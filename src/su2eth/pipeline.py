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
import multiprocessing
import time
import warnings
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path

import numpy as np

from . import analysis, cache, oracle
from .basis import (MAX_SITES, MIN_SITES, SectorLabel, SymmetryBasis, enumerate_sector_basis,
                    sector_labels)
from .operators import (OBSERVABLE_TAGS, CouplingSpec, build_hamiltonian, build_observable,
                        build_operator, build_total_spin_squared, pair_correlator_terms,
                        quad_correlator_terms)
from .spectral import (SpinResolvedSpectrum, diagonalize_block, eigen_residual, expectations,
                       matrix_elements, resolve_spins)
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

    def replace(self, **changes) -> "RunConfig":
        data = asdict(self)
        data.update(changes)
        return RunConfig.from_dict(data)

    def canonical(self) -> dict:
        data = asdict(self)
        # cache/output locations do not change the numbers
        for key in ("cache_dir", "out_dir", "workers"):
            data.pop(key)
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
    # the closed-form moments start at L = 6
    for L in config.L_list:
        if L < 6:
            raise ConfigError(f"{command} covers 6 <= L <= {MAX_SITES}, got {L}")
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


def _begin(config: RunConfig, command: str) -> tuple[Path, Path, RunManifest]:
    """Validate, resolve the cache root, make the output dir, journal the start.

    Returns (cache root, output dir, manifest).
    """
    _validate(config, command)
    try:
        root = cache.cache_dir(config.cache_dir)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(out / "manifest.jsonl", config.config_hash())
    manifest.record("run", "start", command=command,
                    fingerprint=f"{cache.build_fingerprint():016x}")
    return root, out, manifest


# ─── spectra ─────────────────────────────────────────────────────────────────


def _mirror(sector: SectorLabel) -> SectorLabel:
    """The sector at -k; k = 0 and k = pi are their own mirrors."""
    return SectorLabel(sector.L, sector.M, -sector.k_index, sector.z2_parity)


def _solved(sector: SectorLabel) -> SectorLabel:
    """The k >= 0 sector whose eigendata are solved and cached for this one."""
    return sector if sector.k_index >= 0 else _mirror(sector)


def _serve(spectrum: SpinResolvedSpectrum, sector: SectorLabel) -> SpinResolvedSpectrum:
    """The spectrum of _solved(sector), handed out as sector's own.

    H is real in the product basis, so the block at -k is the exact complex
    conjugate of the block at +k: same energies, spins and spin residuals
    (shared read-only), conjugate eigenvectors.
    """
    if spectrum.sector == sector:
        return spectrum
    return SpinResolvedSpectrum(sector, spectrum.energies, np.conjugate(spectrum.vectors),
                                spectrum.spins, spectrum.spin_residuals)


def ensure_spectrum(sector: SectorLabel, lam: float,
                    root: Path) -> tuple[SpinResolvedSpectrum, bool]:
    """Load one block spectrum from cache, or build and store it.

    Only k >= 0 sectors are solved and cached; a -k sector is served from
    its mirror. Returns (spectrum, cache_hit). A present-but-incompatible
    file triggers a rebuild with a warning rather than an error.
    """
    solved = _solved(sector)
    try:
        return _serve(cache.load_spectrum(root, solved, lam), sector), True
    except cache.CacheMismatch as exc:
        if cache.spectrum_path(root, solved, lam).exists():
            warnings.warn(f"rebuilding stale cache entry: {exc}")
    basis = enumerate_sector_basis(solved)
    h = build_hamiltonian(basis, CouplingSpec(lam))
    energies, vectors = diagonalize_block(h)
    spectrum = resolve_spins(energies, vectors, build_total_spin_squared(basis))
    cache.save_spectrum(root, lam, spectrum)
    return _serve(spectrum, sector), False


def load_cached_spectrum(sector: SectorLabel, lam: float, root: Path) -> SpinResolvedSpectrum:
    """One block spectrum from the cache; a -k sector is served from its mirror."""
    try:
        return _serve(cache.load_spectrum(root, _solved(sector), lam), sector)
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


def _csv_format(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "%.17g"
    if isinstance(value, (int, np.integer, np.bool_)):
        return "%d"
    return "%s"


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[tuple], config_hash: str) -> Path:
    """One row template per table, each column formatted by the type of its first value."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config {config_hash}\n")
        fh.write(",".join(columns) + "\n")
        if rows:
            template = ",".join(map(_csv_format, rows[0])) + "\n"
            fh.writelines(template % row for row in rows)
    return path


def _write_json(path: Path, payload: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ─── spectrum command ────────────────────────────────────────────────────────


def _sweep_sector(sector: SectorLabel, lam: float,
                  root: Path) -> tuple[int, dict[int, int], bool, float]:
    """(dim, spin_dims, cache_hit, seconds) of one sector; its eigenvectors are not kept."""
    t0 = time.perf_counter()
    spectrum, hit = ensure_spectrum(sector, lam, root)
    return spectrum.dim, spectrum.spin_dims(), hit, time.perf_counter() - t0


def _sector_pool(workers: int):
    """One worker thread, or that many forked processes.

    Threads of one process do not run eigh side by side, so the sweep
    parallelizes across processes. Fork children inherit the imported
    modules and the BLAS pin instead of importing them again.
    """
    if workers == 1:
        return ThreadPoolExecutor(max_workers=1)
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))


def _submit(pool, *args) -> Future:
    """The future of one sector; after a worker died it holds the broken pool's error."""
    try:
        return pool.submit(_sweep_sector, *args)
    except BrokenExecutor as exc:
        future = Future()
        future.set_exception(exc)
        return future


def run_spectrum(config: RunConfig) -> dict:
    """Solve every k >= 0 sector in the plan, caching the spin-resolved data.

    A -k sector shares its mirror's energies and spins, so it is counted
    in the summary with its mirror's result and never solved or cached.
    Sectors go to at most config.workers workers; eigenvectors travel
    through the cache, never back from a worker.
    """
    root, out, manifest = _begin(config, "spectrum")
    chash = manifest.config_hash
    summary = {"config": chash, "lambda": config.lam, "M": config.M, "sizes": {}, "failures": []}
    plan = {L: sector_labels(L, config.M) for L in config.L_list}
    # a fork pool starts every worker at once, so start no more than can be busy
    workers = min(config.workers, sum(lab.k_index >= 0 for labels in plan.values() for lab in labels))
    with _sector_pool(workers) as pool:
        for L, labels in plan.items():
            t0 = time.perf_counter()
            results = []
            futures = {lab: _submit(pool, lab, config.lam, root) for lab in labels if lab.k_index >= 0}
            for lab in labels:
                name = _sector_name(lab, config.lam)
                solved = _solved(lab)
                mirror = {} if solved == lab else {"mirror_of": _sector_name(solved, config.lam)}
                try:
                    dim, dims, hit, seconds = futures[solved].result()
                except Exception as exc:  # quarantine the sector, keep sweeping
                    manifest.record("spectrum", "failed", sector=name, error=str(exc), **mirror)
                    summary["failures"].append({"sector": name, "error": str(exc)})
                    continue
                results.append((dim, dims, hit))
                manifest.record("spectrum", "hit" if hit else "built", sector=name,
                                seconds=None if mirror else seconds, dim=dim, **mirror)
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
    manifest.record("run", "done", command="spectrum", workers=workers)
    return summary


# ─── shared extraction ───────────────────────────────────────────────────────


def _admitted_labels(config: RunConfig, L: int) -> list[SectorLabel]:
    return [lab for lab in sector_labels(L, config.M) if lab.k_index not in config.excluded_k(L)]


def _feed_admitted_blocks(config: RunConfig, root: Path, L: int, work) -> None:
    """Append the (list, item) pairs of work(spectrum, basis) for each nonempty admitted block.

    Blocks of size L feed in label order. A -k block, the complex conjugate of
    its +k mirror, has the mirror's energies, diagonals and |<a|O|b>|^2 bit for
    bit, so each solved sector is worked once and its pairs feed both labels.
    """
    labels = _admitted_labels(config, L)
    pending = {}
    for lab in labels:
        solved = _solved(lab)
        if solved in pending:
            feeds = pending.pop(solved)
        else:
            spectrum = load_cached_spectrum(solved, config.lam, root)
            feeds = work(spectrum, enumerate_sector_basis(solved)) if spectrum.dim else []
            if solved != lab and solved in labels:
                pending[solved] = feeds
        for target, item in feeds:
            target.append(item)


def _journal_blocks(manifest: RunManifest, config: RunConfig, L: int) -> None:
    """One row per size: the admitted labels and the solved sectors read for them."""
    labels = _admitted_labels(config, L)
    manifest.record("blocks", "done", L=L, admitted=len(labels),
                    loaded=len({_solved(lab) for lab in labels}))


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

        def diagonal_tables(spectrum, basis):
            return [(tables, (spectrum.energies,
                              expectations(build_observable(basis, observable), spectrum.vectors),
                              spectrum.spins)) for observable, tables in diagonals.items()]

        _feed_admitted_blocks(config, root, L, diagonal_tables)
        _journal_blocks(manifest, config, L)
        for observable, tables in diagonals.items():
            all_spins = sorted({int(s) for _, _, spins in tables for s in np.unique(spins)})
            pooled = {S: _pool_spin(config, observable, L, tables, S)
                      for S in {*all_spins, *config.spins}}

            for S in config.spins:
                series = pooled[S]
                diag_rows += zip((series.energies / L).tolist(), repeat(S), series.values.tolist(),
                                 repeat(L), repeat(config.lam), repeat(observable))
                try:
                    delta = analysis.diagonal_fluctuations(series, config.central_fraction)
                except ValueError as exc:
                    manifest.record("diag", "skipped", sector=f"L{L}_S{S}_{observable}",
                                    error=str(exc))
                    continue
                ld = L * series.mean_block_dim
                fluct_rows.append((observable, L, S, config.lam, ld, delta))
                fluct_points.setdefault((observable, S), []).append((ld, delta))

            scan = analysis.diagonal_vs_spin([pooled[S] for S in all_spins], config.energy_window)
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

    def element_tables(spectrum, basis):
        """(ensemble list, element tuple) for every ensemble this block feeds."""
        dims = spectrum.spin_dims()
        feeds = []
        for observable in config.observables:
            rank = _REDUCTION_RANK.get(observable)
            obs = build_observable(basis, observable)
            for pair in pairs:
                s_a, s_b = pair
                d_a, d_b = dims.get(s_a, 0), dims.get(s_b, 0)
                if d_a == 0 or d_b == 0:
                    continue
                # a cross-spin pair has no alpha == beta records to drop
                table = matrix_elements(obs, spectrum, spin_filter=pair, part="offdiagonal")
                recs = table.records
                feeds.append((raw[observable, pair],
                              (recs["e_a"], recs["e_b"], recs["value"], d_a, d_b)))
                if rank is not None:
                    rrecs = reduce_matrix_elements(table, rank).records
                    if rrecs.size:
                        feeds.append((red[observable, pair],
                                      (rrecs["e_a"], rrecs["e_b"], rrecs["value"], d_a, d_b)))
        return feeds

    _feed_admitted_blocks(config, root, L, element_tables)
    for observable, pair in list(raw):
        ens = analysis.build_offdiagonal_ensemble(
            observable, L, config.lam, pair, raw.pop((observable, pair)), config.energy_window)
        reduced = red.pop((observable, pair))
        red_ens = None
        if reduced:
            red_ens = analysis.build_offdiagonal_ensemble(
                observable, L, config.lam, pair, reduced, config.energy_window)
        yield observable, pair, ens, red_ens


def _populated(series: analysis.BinnedSeries) -> list[list]:
    """Centers, values, counts and flags of the populated bins, as Python lists."""
    keep = series.counts != 0
    return [a[keep].tolist() for a in (series.centers, series.values, series.counts, series.flagged)]


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

            tag = [repeat(x) for x in (L, s_a, s_b, config.lam, observable)]
            w, v, c, f = _populated(analysis.gaussianity_ratio(ens, binning))
            gamma_rows += zip(w, v, c, *tag, f)

            spectral = analysis.spectral_function(ens, binning)
            w, v, c, f = _populated(spectral)
            spec_rows += zip(w, v, *tag, c, f)

            low = analysis.low_frequency_view(spectral, L, divide_by_L=(observable == "A"))
            w, v, c, f = _populated(low)
            low_rows += zip(w, v, *tag, c, f)

            if red_ens is not None and red_ens.size:
                w, v, c, f = _populated(analysis.spectral_function(red_ens, binning))
                spec_red_rows += zip(w, v, *tag, c, f)
        _journal_blocks(manifest, config, L)

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


def _state_moments(basis: SymmetryBasis, spectrum: SpinResolvedSpectrum) -> dict[str, np.ndarray]:
    """Per-state values of one nonempty block whose sector averages are the moments."""
    L = basis.sector.L
    ops = {"meanA": build_observable(basis, "A"), "meanB": build_observable(basis, "B")}
    for tag, terms in (("eps2", pair_correlator_terms(L, "dot")),
                       ("eps2z", pair_correlator_terms(L, "zz")),
                       ("eps4", quad_correlator_terms(L, "dotdot")),
                       ("eps4z", quad_correlator_terms(L, "zzdot"))):
        ops[tag] = build_operator(basis, terms, tag)
    per_state = {f: expectations(op, spectrum.vectors) for f, op in ops.items()}
    e = spectrum.energies
    per_state.update(E0=e, HH=e * e, AH=per_state["meanA"] * e, BH=per_state["meanB"] * e)
    return per_state


def _pooled_moments(blocks) -> dict[int, dict[str, float]]:
    """Per-spin averages over (spins, per-state moments) of every block."""
    sums: dict[int, dict[str, float]] = {}
    counts: dict[int, int] = {}
    for spins, per_state in blocks:
        for s in np.unique(spins):
            sel = spins == s
            d = sums.setdefault(int(s), dict.fromkeys(_MOMENT_FIELDS, 0.0))
            counts[int(s)] = counts.get(int(s), 0) + int(sel.sum())
            for f in _MOMENT_FIELDS:
                d[f] += per_state[f][sel].sum()
    return {s: {f: d[f] / counts[s] for f in _MOMENT_FIELDS} for s, d in sums.items()}


def sector_trace_moments(L: int, lam: float, blocks) -> dict[int, dict[str, float]]:
    """Exact per-spin sector traces of all oracle moments from eigendata.

    blocks: (SectorLabel, SpinResolvedSpectrum) pairs covering every (k, Z2)
    sector of M = 0. Pooling all of them realizes the (S, M=0) trace.
    """
    return _pooled_moments((spectrum.spins, _state_moments(enumerate_sector_basis(lab), spectrum))
                           for lab, spectrum in blocks if spectrum.dim)


def _audit_block(basis: SymmetryBasis, lam: float, spectrum: SpinResolvedSpectrum) -> dict:
    """Recompute trusted residuals for possibly cache-loaded eigendata of basis's sector."""
    if spectrum.dim == 0:
        return {"eigen_residual": 0.0, "orthonormality": 0.0, "spin_residual": 0.0}
    v = spectrum.vectors
    eig_res = eigen_residual(build_hamiltonian(basis, CouplingSpec(lam)), spectrum.energies, v)
    ortho = float(np.abs(v.conj().T @ v - np.eye(spectrum.dim)).max())
    expect = expectations(build_total_spin_squared(basis), v)
    spin_res = float(np.abs(expect - spectrum.spins * (spectrum.spins + 1.0)).max())
    return {"eigen_residual": eig_res, "orthonormality": ortho, "spin_residual": spin_res}


def run_oracle_check(config: RunConfig) -> dict:
    """Audit cached eigendata and compare sector traces to the closed forms.

    Per-block checks (eigen residual, orthonormality, spin sharpness) catch
    corrupted or stale cache entries and name the sector; the pooled moment
    table then validates every closed form to 1e-10. Each sector's basis is
    built once and serves its audit and its moments; a -k sector is audited
    against its own H(-k), not its mirror's.
    """
    root, out, manifest = _begin(config, "oracle-check")
    tol_moment = 1e-10
    report = {"config": manifest.config_hash, "lambda": config.lam, "rows": [],
              "block_audits": [], "failures": [], "pass": True}
    for L in config.L_list:
        spin_dims = []
        moments = []
        for lab in sector_labels(L, 0):
            spectrum, _ = ensure_spectrum(lab, config.lam, root)
            basis = enumerate_sector_basis(lab)
            spin_dims.append(spectrum.spin_dims())
            if spectrum.dim:
                moments.append((spectrum.spins, _state_moments(basis, spectrum)))
            audit = _audit_block(basis, config.lam, spectrum)
            name = _sector_name(lab, config.lam)
            entry = {"sector": name, **audit}
            report["block_audits"].append(entry)
            scale = max(1.0, float(np.abs(spectrum.energies).max()) if spectrum.dim else 1.0)
            if (audit["eigen_residual"] > 1e-8 * scale or audit["orthonormality"] > 1e-10
                    or audit["spin_residual"] > 1e-6):
                report["pass"] = False
                report["failures"].append({"sector": name, "kind": "block_audit", **audit})

        for s, c in sorted(_spin_counts(spin_dims).items()):
            expected = oracle.spin_sector_dimension(L, s)
            if c != expected:
                report["pass"] = False
                report["failures"].append({"kind": "spin_count", "L": L, "S": s,
                                           "got": c, "expected": expected})

        traces = _pooled_moments(moments)
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
