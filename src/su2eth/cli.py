"""Command-line front end: thin argument handling over the pipeline functions.

Exit codes: 0 on success, 2 on configuration/validation errors, 1 on
runtime failures (missing cache, failed checks, I/O).
"""

import os

# the sector worker processes supply the cores and inherit these; keep the
# BLAS pools single-threaded unless the caller overrides them explicitly
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json
from pathlib import Path

import click

from . import __version__
from . import oracle as oracle_mod
from .pipeline import (ConfigError, MissingCacheError, RunConfig, run_diag_eth,
                       run_offdiag_eth, run_oracle_check, run_spectrum)
from .tensors import cg_table_rows


def _config_options(fn):
    opts = [
        click.option("--config", "config_path",
                     type=click.Path(exists=True, dir_okay=False),
                     help="JSON run configuration; flags below override its fields."),
        click.option("--L", "L_list", type=int, multiple=True,
                     help="System size (repeatable)."),
        click.option("--lambda", "lam", type=float, default=None,
                     help="Next-nearest-neighbour coupling."),
        click.option("--spin", "-S", "spins", type=int, multiple=True,
                     help="Total-spin sector (repeatable)."),
        click.option("--pair", "spin_pairs", type=(int, int), multiple=True,
                     help="Cross-spin pair S_a S_b (repeatable)."),
        click.option("--observable", "-O", "observables",
                     type=click.Choice(["A", "B", "C"]), multiple=True,
                     help="Observable tag (repeatable)."),
        click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
                     help="Output directory."),
        click.option("--cache", "cache_dir", type=click.Path(file_okay=False), default=None,
                     help="Eigendata cache root (or set SU2ETH_CACHE_DIR)."),
        click.option("--workers", type=int, default=None,
                     help="Parallel sector workers."),
    ]
    for opt in reversed(opts):
        fn = opt(fn)
    return fn


def _build_config(config_path, **flags) -> RunConfig:
    """The config file's fields, overridden by every flag that was set.

    Each flag's destination is the RunConfig field it sets.
    """
    data = {}
    if config_path:
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.UsageError(f"config {config_path} is not valid JSON: {exc}")
    if flags["lam"] is not None:
        data.pop("lambda", None)  # the flag beats the file's alias key
    # unset flags arrive as None, or as () when repeatable
    data.update({key: value for key, value in flags.items() if value not in (None, ())})
    if not data.get("L_list"):
        raise click.UsageError("no system sizes given: set L_list in the config or pass --L")
    try:
        return RunConfig.from_dict(data)
    except (ConfigError, TypeError) as exc:
        raise click.UsageError(str(exc))


def _run(command, config: RunConfig):
    try:
        return command(config)
    except ConfigError as exc:
        raise click.UsageError(str(exc))
    except (MissingCacheError, RuntimeError, ValueError, OSError) as exc:
        raise click.ClickException(str(exc))


@click.group()
@click.version_option(__version__)
def main():
    """Symmetry-resolved diagonalization and eigenstate statistics for the
    extended spin-1/2 chain."""


@main.command()
@_config_options
def spectrum(**kwargs):
    """Diagonalize every k >= 0 sector in the plan and fill the eigendata cache.

    Each -k sector is the complex conjugate of its +k mirror and is counted
    with it, never solved or cached on its own.
    """
    config = _build_config(**kwargs)
    summary = _run(run_spectrum, config)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    if summary["failures"]:
        raise click.ClickException(
            f"{len(summary['failures'])} sector(s) failed; see manifest")


@main.command("diag-eth")
@_config_options
def diag_eth(**kwargs):
    """Diagonal-element series, spin scans, fluctuation scalings, oracle lines."""
    config = _build_config(**kwargs)
    result = _run(run_diag_eth, config)
    click.echo(json.dumps(result, indent=2, sort_keys=True))


@main.command("offdiag-eth")
@_config_options
def offdiag_eth(**kwargs):
    """Off-diagonal ensembles: Gaussianity, spectral functions, scalings."""
    config = _build_config(**kwargs)
    result = _run(run_offdiag_eth, config)
    click.echo(json.dumps(result, indent=2, sort_keys=True))


@main.command("oracle-check")
@_config_options
def oracle_check(**kwargs):
    """Audit eigendata and compare sector traces to the closed forms."""
    config = _build_config(**kwargs)
    report = _run(run_oracle_check, config)
    click.echo(json.dumps({k: report[k] for k in ("config", "lambda", "pass", "failures")},
                          indent=2, sort_keys=True))
    if not report["pass"]:
        names = sorted({f.get("sector", f.get("kind", "?")) for f in report["failures"]})
        raise click.ClickException("oracle check failed: " + ", ".join(names))


@main.command("cg-table")
@click.option("--max-2j", "max_twice_j", type=int, default=20, show_default=True,
              help="Largest twice-j of the coupled angular momenta.")
@click.option("--rank", "twice_ranks", type=int, multiple=True,
              help="Twice-rank of the tensor column (repeatable; default 0 and 4).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default="cg_table.csv",
              show_default=True, help="Destination CSV.")
def cg_table(max_twice_j, twice_ranks, out_path):
    """Emit the exact coupling-coefficient table as CSV."""
    columns = ("2j", "2m", "2j1", "2m1", "2j2", "2m2",
               "numerator", "denominator-square", "float")
    ranks = twice_ranks or (0, 4)
    try:
        rows = list(cg_table_rows(max_twice_j, ranks))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    path = Path(out_path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                format(row[c], ".17g") if c == "float" else str(row[c])
                for c in columns) + "\n")
    click.echo(f"wrote {len(rows)} rows to {path}")


@main.command("oracle")
@click.option("--L", "L", type=int, required=True, help="System size (even, >= 6).")
@click.option("--spin", "-S", "S", type=int, required=True, help="Total spin.")
@click.option("--lambda", "lam", type=float, default=0.0, show_default=True,
              help="Next-nearest-neighbour coupling.")
def oracle_cmd(L, S, lam):
    """Print the closed-form sector moments and line coefficients as JSON."""
    try:
        m = oracle_mod.moments(L, S, lam)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = m.as_dict()
    payload["dimension"] = oracle_mod.spin_sector_dimension(L, S)
    try:
        coeffs = oracle_mod.linear_coefficients(L, S, lam)
        payload["slopeA"] = coeffs.slopeA
        payload["slopeB"] = coeffs.slopeB
    except ValueError:
        payload["slopeA"] = payload["slopeB"] = None
    click.echo(json.dumps(payload, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
