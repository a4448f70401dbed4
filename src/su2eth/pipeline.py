"""Sector-sweep orchestration, cache management and output emission.

One RunConfig drives everything: which sizes, coupling, spins and
observables to process, every estimator knob, and where the cache and
outputs live. Commands are plain functions so the CLI stays a thin shell.
All emitted files embed the configuration hash; CSV rows follow fixed
orderings so identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import json
import hashlib
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, cache, oracle
from .basis import MAX_SITES, MIN_SITES, SectorLabel, enumerate_sector_basis, sector_labels
from .operators import (OBSERVABLE_TAGS, CouplingSpec, build_hamiltonian, build_observable,
                        build_operator, build_total_spin_squared, pair_correlator_terms,
                        quad_correlator_terms)
from .spectral import (SpinResolvedSpectrum, diagonalize_block, expectations, matrix_elements,
                       resolve_spins)
from .tensors import reduce_matrix_elements

__all__ = [
    "ConfigError",
    "MissingCacheError",
    "RunConfig",
    "RunManifest",
    "ensure_spectrum",
    "load_cached_spectrum",
    "run_spectrum",
    "run_diag_eth",
    "run_offdiag_eth",
    "run_oracle_check",
    "sector_trace_moments",
]

# tensor rank entering the CG reduction; the mixed observable C has no
# single rank, so reduced series are only emitted for A and B
_REDUCTION_RANK = {"A": 0, "B": 2}

_MOMENT_FIELDS = ("eps2", "eps2z", "eps4", "eps4z", "E0", "meanA", "meanB", "AH", "BH", "HH")


class ConfigError(ValueError):
    """Configuration rejected before any work started."""


class MissingCacheError(RuntimeError):
    """Analysis requested without cached spectra."""


# ─── configuration ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class RunConfig:
    """One reproducible pipeline run.

    spins selects same-spin ensembles; spin_pairs adds cross-spin ones.
    omega_cut None resolves to 10 for lam != 0 and 3 for the integrable
    point. exclude_k None resolves to {0, L/2} per size.
    """

    L_list: tuple[int, ...]
    lam: float = 0.0
    M: int = 0
    spins: tuple[int, ...] = ()
    spin_pairs: tuple[tuple[int, int], ...] = ()
    observables: tuple[str, ...] = ("A", "B")
    half_width: int = 25
    central_fraction: float = 0.5
    energy_window: float = 0.025
    bin_spacing: float = 0.025
    bin_width: float = 0.175
    min_bin_count: int = 10
    omega_cut: float | None = None
    exclude_k: tuple[int, ...] | None = None
    cache_dir: str | None = None
    out_dir: str = "out"
    workers: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(data) - known - {"lambda"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "lambda" in data:
            data["lam"] = data.pop("lambda")
        if "L_list" in data:
            data["L_list"] = tuple(int(x) for x in data["L_list"])
        for key in ("spins", "observables", "exclude_k"):
            if data.get(key) is not None:
                data[key] = tuple(data[key])
        if data.get("spin_pairs"):
            data["spin_pairs"] = tuple((int(a), int(b)) for a, b in data["spin_pairs"])
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def replace(self, **changes) -> "RunConfig":
        data = asdict(self)
        data.update(changes)
        return RunConfig.from_dict(data)

    def canonical(self) -> dict:
        data = asdict(self)
        data["spin_pairs"] = [list(p) for p in self.spin_pairs]
        for key in ("L_list", "spins", "observables", "exclude_k"):
            if data[key] is not None:
                data[key] = list(data[key])
        # cache/output locations do not change the numbers
        data.pop("cache_dir")
        data.pop("out_dir")
        data.pop("workers")
        return data

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def resolved_omega_cut(self) -> float:
        if self.omega_cut is not None:
            return self.omega_cut
        return 10.0 if self.lam != 0.0 else 3.0

    def excluded_k(self, L: int) -> set[int]:
        if self.exclude_k is not None:
            return set(self.exclude_k)
        return {0, L // 2}

    def all_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, s) for s in self.spins) + self.spin_pairs


def _validate(config: RunConfig, command: str) -> None:
    """Reject a configuration before any work starts, by the rules of one command."""
    if not config.L_list:
        raise ConfigError("L_list must not be empty")
    for L in config.L_list:
        if L % 2 or not MIN_SITES <= L <= MAX_SITES:
            raise ConfigError(f"every L must be even with {MIN_SITES} <= L <= {MAX_SITES}, got {L}")
    if not config.observables:
        raise ConfigError("observables must not be empty")
    for tag in config.observables:
        if tag not in OBSERVABLE_TAGS:
            raise ConfigError(f"unknown observable {tag!r}, expected subset of {OBSERVABLE_TAGS}")
    positive = {
        "half_width": config.half_width,
        "energy_window": config.energy_window,
        "bin_spacing": config.bin_spacing,
        "bin_width": config.bin_width,
        "min_bin_count": config.min_bin_count,
        "workers": config.workers,
    }
    for name, value in positive.items():
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    if not 0.0 < config.central_fraction <= 1.0:
        raise ConfigError(f"central_fraction must lie in (0, 1], got {config.central_fraction}")
    if config.omega_cut is not None and config.omega_cut <= 0:
        raise ConfigError(f"omega_cut must be positive, got {config.omega_cut}")
    if abs(config.M) > min(config.L_list) // 2:
        raise ConfigError(f"|M| <= L/2 required, got M={config.M}")
    if command == "spectrum":
        return

    if config.M != 0:
        raise ConfigError(f"{command} runs in the M = 0 sector only")
    # the closed-form moments start at L = 6; the oracle check audits dense blocks
    top = 10 if command == "oracle-check" else MAX_SITES
    for L in config.L_list:
        if not 6 <= L <= top:
            raise ConfigError(f"{command} covers 6 <= L <= {top}, got {L}")
    if command == "oracle-check":
        return

    if command == "diag-eth" and not config.spins:
        raise ConfigError("empty spin selection: diag-eth needs at least one S in spins")
    if not config.spins and not config.spin_pairs:
        raise ConfigError("empty spin selection: set spins and/or spin_pairs")
    # diag-eth never reads spin_pairs, so the pair rules bind offdiag-eth only
    pairs = config.all_pairs() if command == "offdiag-eth" else tuple((s, s) for s in config.spins)
    bound = min(config.L_list) // 2
    for s_a, s_b in pairs:
        for s in (s_a, s_b):
            if not 0 <= s <= bound:
                raise ConfigError(f"S={s} exceeds the bound S <= L/2 = {bound} for the smallest L")
        delta = abs(s_a - s_b)
        if "A" in config.observables and delta != 0:
            raise ConfigError(f"pair ({s_a},{s_b}): A is spin-diagonal, cross-spin elements vanish")
        if delta == 1:
            raise ConfigError(
                f"pair ({s_a},{s_b}): spin inversion at M=0 forbids |S_a - S_b| = 1 for B")
        if delta > 2:
            raise ConfigError(
                f"pair ({s_a},{s_b}): rank-2 tensors cannot connect |S_a - S_b| > 2")


# ─── run skeleton ────────────────────────────────────────────────────────────


class RunManifest:
    """Append-only JSONL journal of pipeline progress."""

    def __init__(self, path: Path, config_hash: str):
        self.path = Path(path)
        self.config_hash = config_hash

    def record(self, stage: str, status: str, sector: str | None = None,
               seconds: float | None = None, **extra) -> None:
        entry = {
            "ts": datetime.now(timezone.utc).isoformat(),
            "config": self.config_hash,
            "stage": stage,
            "status": status,
        }
        if sector is not None:
            entry["sector"] = sector
        if seconds is not None:
            entry["seconds"] = round(seconds, 6)
        entry.update(extra)
        with open(self.path, "a") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _begin(config: RunConfig, command: str) -> tuple[Path | None, Path, RunManifest]:
    """Validate, resolve the cache root, make the output dir, journal the start.

    Returns (cache root, output dir, manifest). Only oracle-check runs
    without a cache root, building its spectra in memory.
    """
    _validate(config, command)
    try:
        root = cache.cache_dir(config.cache_dir)
    except ValueError as exc:
        if command != "oracle-check":
            raise ConfigError(str(exc)) from exc
        root = None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(out / "manifest.jsonl", config.config_hash())
    manifest.record("run", "start", command=command,
                    fingerprint=f"{cache.build_fingerprint():016x}")
    return root, out, manifest


# ─── spectra ─────────────────────────────────────────────────────────────────


def ensure_spectrum(sector: SectorLabel, lam: float,
                    root: Path | None) -> tuple[SpinResolvedSpectrum, bool]:
    """Load one block spectrum from cache, or build and store it.

    Returns (spectrum, cache_hit). A present-but-incompatible file triggers
    a rebuild with a warning rather than an error.
    """
    if root is not None:
        path = cache.spectrum_path(root, sector, lam)
        try:
            return cache.load_spectrum(root, sector, lam), True
        except cache.CacheMismatch as exc:
            if path.exists():
                warnings.warn(f"rebuilding stale cache entry: {exc}")
    basis = enumerate_sector_basis(sector)
    h = build_hamiltonian(basis, CouplingSpec(lam))
    energies, vectors = diagonalize_block(h)
    spectrum = resolve_spins(energies, vectors, build_total_spin_squared(basis))
    if root is not None:
        cache.save_spectrum(root, lam, spectrum)
    return spectrum, False


def load_cached_spectrum(sector: SectorLabel, lam: float, root: Path) -> SpinResolvedSpectrum:
    try:
        return cache.load_spectrum(root, sector, lam)
    except cache.CacheMismatch as exc:
        raise MissingCacheError(
            f"{exc}; run the spectrum command first to populate the cache") from exc


def _spin_counts(spin_dims) -> dict[int, int]:
    """Eigenstates per total spin, summed over the blocks' spin_dims() dicts."""
    counts: dict[int, int] = {}
    for dims in spin_dims:
        for s, c in dims.items():
            counts[s] = counts.get(s, 0) + c
    return counts


def _sector_name(sector: SectorLabel, lam: float) -> str:
    return cache.spectrum_path(Path("."), sector, lam).stem


# ─── output helpers ──────────────────────────────────────────────────────────


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    return str(value)


def _write_csv(path: Path, columns: tuple[str, ...], rows, config_hash: str) -> Path:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config {config_hash}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _write_json(path: Path, payload: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ─── spectrum command ────────────────────────────────────────────────────────


def _sweep_sector(sector: SectorLabel, lam: float, root: Path) -> tuple[int, dict[int, int], bool]:
    """(dim, spin_dims, cache_hit) of one sector; its eigenvectors are not kept."""
    spectrum, hit = ensure_spectrum(sector, lam, root)
    return spectrum.dim, spectrum.spin_dims(), hit


def run_spectrum(config: RunConfig) -> dict:
    """Diagonalize every sector in the plan, caching the spin-resolved data."""
    root, out, manifest = _begin(config, "spectrum")
    chash = manifest.config_hash
    summary = {"config": chash, "lambda": config.lam, "M": config.M, "sizes": {}, "failures": []}
    for L in config.L_list:
        labels = sector_labels(L, config.M)
        t0 = time.perf_counter()
        results = []
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            futures = [(lab, pool.submit(_sweep_sector, lab, config.lam, root))
                       for lab in labels]
            for lab, fut in futures:
                name = _sector_name(lab, config.lam)
                try:
                    result = fut.result()
                except Exception as exc:  # quarantine the sector, keep sweeping
                    manifest.record("spectrum", "failed", sector=name, error=str(exc))
                    summary["failures"].append({"sector": name, "error": str(exc)})
                    continue
                results.append(result)
                manifest.record("spectrum", "hit" if result[2] else "built", sector=name)
        per_spin = _spin_counts(dims for _, dims, _ in results)
        hits = sum(hit for _, _, hit in results)
        summary["sizes"][str(L)] = {
            "blocks": len(results),
            "states": sum(dim for dim, _, _ in results),
            "per_spin_counts": {str(s): per_spin[s] for s in sorted(per_spin)},
            "cache_hits": hits,
            "built": len(results) - hits,
            "seconds": round(time.perf_counter() - t0, 3),
        }
    _write_json(out / "spectrum_summary.json", summary)
    manifest.record("run", "done", command="spectrum")
    return summary


# ─── shared extraction ───────────────────────────────────────────────────────


def _admitted_blocks(config: RunConfig, root: Path, L: int):
    """Yield (spectrum, basis) for each nonempty admitted block of size L, one load at a time."""
    excluded = config.excluded_k(L)
    for lab in sector_labels(L, config.M):
        if lab.k_index in excluded:
            continue
        spectrum = load_cached_spectrum(lab, config.lam, root)
        if spectrum.dim:
            yield spectrum, enumerate_sector_basis(lab)


def _pool_spin(config: RunConfig, observable: str, L: int, tables, S: int) -> analysis.DiagonalSeries:
    blocks = []
    for energies, values, spins in tables:
        sel = spins == S
        if sel.any():
            blocks.append((energies[sel], values[sel], int(sel.sum())))
    return analysis.pool_diagonal(observable, L, config.lam, S, blocks, config.half_width)


# ─── diagonal command ────────────────────────────────────────────────────────


def run_diag_eth(config: RunConfig) -> dict:
    """Diagonal-element series, per-spin means, fluctuation scaling, oracle lines."""
    root, out, manifest = _begin(config, "diag-eth")
    chash = manifest.config_hash
    diag_rows = []
    spin_rows = []
    fluct_rows = []
    pred_rows = []
    fluct_points: dict[tuple[str, int], list[tuple[float, float]]] = {}

    for L in config.L_list:
        diagonals: dict[str, list] = {observable: [] for observable in config.observables}
        for spectrum, basis in _admitted_blocks(config, root, L):
            for observable in config.observables:
                values = expectations(build_observable(basis, observable), spectrum.vectors)
                diagonals[observable].append((spectrum.energies, values, spectrum.spins))
        for observable, tables in diagonals.items():
            all_spins = sorted({int(s) for _, _, spins in tables for s in np.unique(spins)})

            for S in config.spins:
                series = _pool_spin(config, observable, L, tables, S)
                for e, v in zip(series.energies, series.values):
                    diag_rows.append((e / L, S, v, L, config.lam, observable))
                try:
                    delta = analysis.diagonal_fluctuations(series, config.central_fraction)
                except ValueError as exc:
                    manifest.record("diag", "skipped", sector=f"L{L}_S{S}_{observable}",
                                    error=str(exc))
                    continue
                ld = L * series.mean_block_dim
                fluct_rows.append((observable, L, S, config.lam, ld, delta))
                fluct_points.setdefault((observable, S), []).append((ld, delta))

            scan = analysis.diagonal_vs_spin(
                [_pool_spin(config, observable, L, tables, S) for S in all_spins],
                config.energy_window)
            for i, S in enumerate(scan.spins):
                spin_rows.append((observable, L, config.lam, int(S), S / L,
                                  scan.means[i], scan.stds[i], scan.block_means[i],
                                  int(scan.counts[i]), bool(scan.flagged[i])))

            for S in config.spins:
                m = oracle.moments(L, S, config.lam)
                try:
                    coeffs = oracle.linear_coefficients(L, S, config.lam)
                    slope_a, slope_b = coeffs.slopeA, coeffs.slopeB
                except ValueError:
                    slope_a = slope_b = float("nan")
                slope = slope_a if observable == "A" else slope_b
                mean = m.meanA if observable == "A" else m.meanB
                if observable == "C":
                    # C = -A/sqrt(3) + sqrt(2/3) B, scalars fixed by the definitions
                    mean = -m.meanA / np.sqrt(3.0) + np.sqrt(2.0 / 3.0) * m.meanB
                    slope = -slope_a / np.sqrt(3.0) + np.sqrt(2.0 / 3.0) * slope_b
                pred_rows.append((observable, L, S, config.lam, m.E0, mean, slope))

    fits = {}
    for (observable, S), points in sorted(fluct_points.items()):
        if len(points) < 3:
            continue
        xs, ys = zip(*points)
        result = analysis.scaling_fit(xs, ys)
        entry = result.as_dict()
        entry["inputs"] = _inputs_hash([np.asarray(xs), np.asarray(ys)])
        fits[f"fluct[{observable},S={S}]"] = entry

    paths = {
        "diag": _write_csv(out / "diag.csv",
                           ("E_over_L", "S", "O_diag", "L", "lambda", "observable"),
                           diag_rows, chash),
        "spin_means": _write_csv(out / "spin_means.csv",
                                 ("observable", "L", "lambda", "S", "S_over_L", "mean",
                                  "std", "block_mean", "count", "flagged"),
                                 spin_rows, chash),
        "fluct": _write_csv(out / "fluct.csv",
                            ("observable", "L", "S", "lambda", "LD", "delta"),
                            fluct_rows, chash),
        "predictions": _write_csv(out / "predictions.csv",
                                  ("observable", "L", "S", "lambda", "E0", "mean", "slope"),
                                  pred_rows, chash),
        "fits": _write_json(out / "diag_fits.json", {"config": chash, "fits": fits}),
    }
    manifest.record("run", "done", command="diag-eth")
    return {"config": chash, "paths": {k: str(p) for k, p in paths.items()}, "fits": fits}


# ─── off-diagonal command ────────────────────────────────────────────────────


def _offdiag_ensembles(config: RunConfig, root: Path, L: int):
    """Yield (observable, pair, ens, red_ens) for size L, observables outermost.

    Every observable and spin pair is taken from each admitted block before
    the next one loads. red_ens is the CG-reduced ensemble, None for the
    observables without a single tensor rank or without reduced elements.
    """
    pairs = config.all_pairs()
    raw = {(observable, pair): [] for observable in config.observables for pair in pairs}
    red = {key: [] for key in raw}
    for spectrum, basis in _admitted_blocks(config, root, L):
        dims = spectrum.spin_dims()
        for observable in config.observables:
            rank = _REDUCTION_RANK.get(observable)
            obs = build_observable(basis, observable)
            for pair in pairs:
                s_a, s_b = pair
                d_a, d_b = dims.get(s_a, 0), dims.get(s_b, 0)
                if d_a == 0 or d_b == 0:
                    continue
                part = "offdiagonal" if s_a == s_b else "all"
                table = matrix_elements(obs, spectrum, spin_filter=pair, part=part)
                recs = table.records
                raw[observable, pair].append((recs["e_a"], recs["e_b"], recs["value"], d_a, d_b))
                if rank is not None:
                    rrecs = reduce_matrix_elements(table, rank).records
                    if rrecs.size:
                        red[observable, pair].append(
                            (rrecs["e_a"], rrecs["e_b"], rrecs["value"], d_a, d_b))
    for observable, pair in list(raw):
        ens = analysis.build_offdiagonal_ensemble(
            observable, L, config.lam, pair, raw.pop((observable, pair)), config.energy_window)
        reduced = red.pop((observable, pair))
        red_ens = None
        if reduced:
            red_ens = analysis.build_offdiagonal_ensemble(
                observable, L, config.lam, pair, reduced, config.energy_window)
        yield observable, pair, ens, red_ens


def _series_rows(series: analysis.BinnedSeries, build):
    """Rows for the populated bins of a series; build(center, value, count, flag)."""
    rows = []
    for i in range(len(series.centers)):
        if series.counts[i] == 0:
            continue
        rows.append(build(float(series.centers[i]), float(series.values[i]),
                          int(series.counts[i]), bool(series.flagged[i])))
    return rows


def _inputs_hash(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()[:16]


def run_offdiag_eth(config: RunConfig) -> dict:
    """Gaussianity ratios, spectral functions, variance scalings, low-freq views."""
    root, out, manifest = _begin(config, "offdiag-eth")
    chash = manifest.config_hash
    binning = analysis.Binning(config.bin_spacing, config.bin_width, config.min_bin_count)
    omega_cut = config.resolved_omega_cut()

    gamma_rows = []
    spec_rows = []
    spec_red_rows = []
    low_rows = []
    by_pair: dict[tuple[str, tuple[int, int]], list[analysis.OffDiagonalEnsemble]] = {}

    for L in config.L_list:
        for observable, pair, ens, red_ens in _offdiag_ensembles(config, root, L):
            s_a, s_b = pair
            if ens.size == 0:
                manifest.record("offdiag", "empty", sector=f"L{L}_{observable}_{s_a}_{s_b}")
                continue
            by_pair.setdefault((observable, pair), []).append(ens)

            gamma = analysis.gaussianity_ratio(ens, binning)
            gamma_rows += _series_rows(
                gamma, lambda w, v, c, f, _t=(L, s_a, s_b): (w, v, c) + _t
                + (config.lam, observable, f))

            spec_row = lambda w, v, c, f, _t=(L, s_a, s_b): (w, v) + _t \
                + (config.lam, observable, c, f)
            spectral = analysis.spectral_function(ens, binning)
            spec_rows += _series_rows(spectral, spec_row)

            low = analysis.low_frequency_view(spectral, L, divide_by_L=(observable == "A"))
            low_rows += _series_rows(low, spec_row)

            if red_ens is not None and red_ens.size:
                red_spec = analysis.spectral_function(red_ens, binning)
                spec_red_rows += _series_rows(red_spec, spec_row)

    fits = {}
    for (observable, pair), group in sorted(by_pair.items()):
        if len({e.L for e in group}) < 3:
            continue
        result = analysis.variance_scaling(group, omega_cut)
        entry = result.as_dict()
        entry["inputs"] = _inputs_hash(
            [e.omega for e in group] + [e.abs_sq for e in group])
        fits[f"variance[{observable},{pair[0]},{pair[1]}]"] = entry

    paths = {
        "gamma": _write_csv(out / "gamma.csv",
                            ("omega", "Gamma", "count", "L", "S_a", "S_b", "lambda",
                             "observable", "flagged"),
                            gamma_rows, chash),
        "specfun": _write_csv(out / "specfun.csv",
                              ("omega", "LD_var", "L", "S_a", "S_b", "lambda", "observable",
                               "count", "flagged"),
                              spec_rows, chash),
        "specfun_reduced": _write_csv(out / "specfun_reduced.csv",
                                      ("omega", "LD_var", "L", "S_a", "S_b", "lambda",
                                       "observable", "count", "flagged"),
                                      spec_red_rows, chash),
        "lowfreq": _write_csv(out / "lowfreq.csv",
                              ("omega_L2", "value", "L", "S_a", "S_b", "lambda", "observable",
                               "count", "flagged"),
                              low_rows, chash),
        "fits": _write_json(out / "fits.json",
                            {"config": chash, "omega_cut": omega_cut, "fits": fits}),
    }
    manifest.record("run", "done", command="offdiag-eth")
    return {"config": chash, "paths": {k: str(p) for k, p in paths.items()}, "fits": fits}


# ─── oracle check ────────────────────────────────────────────────────────────


def sector_trace_moments(L: int, lam: float, blocks) -> dict[int, dict[str, float]]:
    """Exact per-spin sector traces of all oracle moments from eigendata.

    blocks: (SectorLabel, SpinResolvedSpectrum) pairs covering every (k, Z2)
    sector of M = 0. Pooling all of them realizes the (S, M=0) trace.
    """
    sums: dict[int, dict[str, float]] = {}
    counts: dict[int, int] = {}
    for lab, spectrum in blocks:
        if spectrum.dim == 0:
            continue
        basis = enumerate_sector_basis(lab)
        ops = {"meanA": build_observable(basis, "A"), "meanB": build_observable(basis, "B")}
        for tag, terms in (("eps2", pair_correlator_terms(L, "dot")),
                           ("eps2z", pair_correlator_terms(L, "zz")),
                           ("eps4", quad_correlator_terms(L, "dotdot")),
                           ("eps4z", quad_correlator_terms(L, "zzdot"))):
            ops[tag] = build_operator(basis, terms, tag)
        # per-state values whose sector averages are the moments
        per_state = {f: expectations(op, spectrum.vectors) for f, op in ops.items()}
        e = spectrum.energies
        per_state.update(E0=e, HH=e * e, AH=per_state["meanA"] * e, BH=per_state["meanB"] * e)
        for s in np.unique(spectrum.spins):
            sel = spectrum.spins == s
            d = sums.setdefault(int(s), dict.fromkeys(_MOMENT_FIELDS, 0.0))
            counts[int(s)] = counts.get(int(s), 0) + int(sel.sum())
            for f in _MOMENT_FIELDS:
                d[f] += per_state[f][sel].sum()
    return {s: {f: d[f] / counts[s] for f in _MOMENT_FIELDS} for s, d in sums.items()}


def _audit_block(lab: SectorLabel, lam: float, spectrum: SpinResolvedSpectrum) -> dict:
    """Recompute trusted residuals for possibly cache-loaded eigendata."""
    basis = enumerate_sector_basis(lab)
    if spectrum.dim == 0:
        return {"eigen_residual": 0.0, "orthonormality": 0.0, "spin_residual": 0.0}
    h = build_hamiltonian(basis, CouplingSpec(lam)).dense()
    v = spectrum.vectors
    eig_res = float(np.abs(h @ v - v * spectrum.energies).max())
    ortho = float(np.abs(v.conj().T @ v - np.eye(spectrum.dim)).max())
    expect = expectations(build_total_spin_squared(basis), v)
    spin_res = float(np.abs(expect - spectrum.spins * (spectrum.spins + 1.0)).max())
    return {"eigen_residual": eig_res, "orthonormality": ortho, "spin_residual": spin_res}


def run_oracle_check(config: RunConfig) -> dict:
    """Audit cached eigendata and compare sector traces to the closed forms.

    Per-block checks (eigen residual, orthonormality, spin sharpness) catch
    corrupted or stale cache entries and name the sector; the pooled moment
    table then validates every closed form to 1e-10.
    """
    root, out, manifest = _begin(config, "oracle-check")
    tol_moment = 1e-10
    report = {"config": manifest.config_hash, "lambda": config.lam, "rows": [],
              "block_audits": [], "failures": [], "pass": True}
    for L in config.L_list:
        blocks = []
        for lab in sector_labels(L, 0):
            spectrum, _ = ensure_spectrum(lab, config.lam, root)
            blocks.append((lab, spectrum))
            audit = _audit_block(lab, config.lam, spectrum)
            name = _sector_name(lab, config.lam)
            entry = {"sector": name, **audit}
            report["block_audits"].append(entry)
            scale = max(1.0, float(np.abs(spectrum.energies).max()) if spectrum.dim else 1.0)
            if (audit["eigen_residual"] > 1e-8 * scale or audit["orthonormality"] > 1e-10
                    or audit["spin_residual"] > 1e-6):
                report["pass"] = False
                report["failures"].append({"sector": name, "kind": "block_audit", **audit})

        for s, c in sorted(_spin_counts(spectrum.spin_dims() for _, spectrum in blocks).items()):
            expected = oracle.spin_sector_dimension(L, s)
            if c != expected:
                report["pass"] = False
                report["failures"].append({"kind": "spin_count", "L": L, "S": s,
                                           "got": c, "expected": expected})

        traces = sector_trace_moments(L, config.lam, blocks)
        for s in sorted(traces):
            m = oracle.moments(L, s, config.lam)
            for fieldname in _MOMENT_FIELDS:
                diff = abs(traces[s][fieldname] - getattr(m, fieldname))
                row = {"L": L, "S": s, "moment": fieldname,
                       "analytic": getattr(m, fieldname),
                       "trace": traces[s][fieldname], "abs_diff": diff,
                       "pass": bool(diff < tol_moment)}
                report["rows"].append(row)
                if diff >= tol_moment:
                    report["pass"] = False
                    report["failures"].append({"kind": "moment", "L": L, "S": s,
                                               "moment": fieldname, "abs_diff": diff})
    _write_json(out / "oracle_check.json", report)
    manifest.record("run", "done", command="oracle-check")
    return report
