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
import numbers
import time
import warnings
from collections import Counter
from collections.abc import Callable, Iterable, Sized
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, fields, replace
from datetime import datetime, timezone
from functools import cache as memoized, lru_cache
from pathlib import Path

import numpy as np

from . import analysis, cache, oracle
from .basis import (MAX_SITES, MIN_SITES, SectorLabel, enumerate_sector_basis, normalized_k,
                    parity_halves, sector_labels, with_parity)
from .operators import (LADDERS, OBSERVABLE_TAGS, BlockOperator, CouplingSpec, build_hamiltonian,
                        build_observable, build_operator, build_spin_ladder,
                        build_total_spin_squared, c_diagonal, parity_block, quad_correlator_terms)
from .spectral import (SpinResolvedSpectrum, band_positions, diagonalize_block, eigen_residual,
                       energy_band, expectations, matrix_elements, operator_image, resolve_spins)
# reduce_matrix_elements is not called here; perfbench/tracing.py patches it on this module
from .tensors import reduce_matrix_elements, reduction_coefficient  # noqa: F401

__all__ = [
    "ConfigError",
    "MissingCacheError",
    "RunConfig",
    "RunManifest",
    "audit_bound",
    "ensure_spectrum",
    "load_cached_spectrum",
    "run_spectrum",
    "run_diag_eth",
    "run_offdiag_eth",
    "run_oracle_check",
    "sector_trace_moments",
]

# each observable as its q = 0 rank components, O = sum_r c_r O_r with O_0 = A
# and O_2 = B; only an observable with a single rank gets a CG-reduced series
_COMPONENTS = {"A": {0: 1.0}, "B": {2: 1.0}, "C": {0: -1.0 / np.sqrt(3.0), 2: np.sqrt(2.0 / 3.0)}}

# each observable as it is computed, O = sum_p c_p p over two primitives: A, one
# projection per unit and none at lam = 0, where its diagonal is E/(sqrt(3) L),
# and C, an exact diagonal block. So B = A/sqrt(2) + sqrt(3/2) C and C never
# needs A; A's part is dropped where rank 0 vanishes (see _terms)
_ASSEMBLY = {"A": {"A": 1.0}, "B": {"A": 1.0 / np.sqrt(2.0), "C": np.sqrt(1.5)}, "C": {"C": 1.0}}

_FILL_CACHE = "run the spectrum command first to populate the cache"
_REBUILD = "run the spectrum command to rebuild it"

# each analysis table's columns, by CSV name
_COLUMNS = {
    "diag": ("E_over_L", "S", "O_diag", "L", "lambda", "observable"),
    "spin_means": ("observable", "L", "lambda", "S", "S_over_L", "mean", "std", "block_mean",
                   "count", "flagged"),
    "fluct": ("observable", "L", "S", "lambda", "LD", "delta"),
    "predictions": ("observable", "L", "S", "lambda", "E0", "mean", "slope"),
    "gamma": ("omega", "Gamma", "count", "L", "S_a", "S_b", "lambda", "observable", "flagged"),
    **dict.fromkeys(("specfun", "specfun_reduced"), ("omega", "LD_var", "L", "S_a", "S_b", "lambda",
                                                      "observable", "count", "flagged")),
    "lowfreq": ("omega_L2", "value", "L", "S_a", "S_b", "lambda", "observable", "count",
                "flagged"),
}

_MOMENT_FIELDS = tuple(f.name for f in fields(oracle.MomentSet) if f.name not in ("L", "S", "lam"))


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
    point. exclude_k None resolves to {0, L/2} per size; an entry n names
    k = 2*pi*n/L at every size, so -8 and 24 exclude k = pi at L = 16.
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

    def __post_init__(self):
        # lists, as JSON and callers write them, become the tuples the rest reads
        pairs = _listed("spin_pairs", self.spin_pairs, "[S_a, S_b] pairs")
        if not all(isinstance(p, Sized) and not isinstance(p, str) and len(p) == 2 for p in pairs):
            raise ConfigError(f"every spin pair needs two spins: spin_pairs={self.spin_pairs!r}")
        object.__setattr__(self, "spin_pairs", tuple(_integers("spin_pairs", p) for p in pairs))
        object.__setattr__(self, "observables", _listed("observables", self.observables, "tags"))
        for key in ("M", "half_width", "min_bin_count", "workers"):
            object.__setattr__(self, key, _integers(key, (getattr(self, key),))[0])
        for key in ("L_list", "spins", "exclude_k"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _integers(key, getattr(self, key)))
        # so that 3, 3.0 and True do not pass as three couplings, nor -0.0 and 0.0 as two
        for key in ("lam", "central_fraction", "energy_window", "bin_spacing", "bin_width"):
            object.__setattr__(self, key, _real(key, getattr(self, key)))
        if self.omega_cut is not None:
            object.__setattr__(self, "omega_cut", _real("omega_cut", self.omega_cut))

    @classmethod
    def from_dict(cls, data: dict, **fields) -> "RunConfig":
        """A config from a JSON object, whose "lambda" names the lam field, and fields, such
        as the set CLI flags, which win over its entries: a lam field over "lambda" too."""
        if not isinstance(data, dict):
            raise ConfigError(f"a config is a JSON object of fields, not {type(data).__name__}")
        unknown = set(data) - set(cls.__dataclass_fields__) - {"lambda"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        if "lambda" in data and "lam" in data and "lam" not in fields:
            raise ConfigError("set the coupling once: the config has both 'lambda' and 'lam'")
        if "lambda" in data:
            data["lam"] = data.pop("lambda")
        data.update(fields)
        if data.get("L_list") is None:
            raise ConfigError("no system sizes given: set L_list in the config or pass --L")
        return cls(**data)

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
        """The excluded k indices at size L, in SectorLabel's window (-L/2, L/2]."""
        if self.exclude_k is not None:
            return {normalized_k(n, L) for n in self.exclude_k}
        return {0, L // 2}

    def all_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((s, s) for s in self.spins) + self.spin_pairs


def _listed(name: str, values, of: str) -> tuple:
    """values as a tuple; a single value, or a string tuple() would split, is rejected."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ConfigError(f"{name} must be a list of {of}, got {values!r}")
    return tuple(values)


def _integers(name: str, values) -> tuple[int, ...]:
    """values as ints; a bool or an entry that is not a whole number is rejected, not truncated."""
    values = _listed(name, values, "whole numbers")
    try:
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints != values or any(isinstance(v, bool) for v in values):
        raise ConfigError(f"{name} must hold whole numbers, got {list(values)}")
    return ints


def _real(name: str, value) -> float:
    """value as a float, -0.0 as 0.0; a bool, a string or any other non-number is rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return float(value) + 0.0  # -0.0 + 0.0 is 0.0


def _validate(config: RunConfig, command: str) -> None:
    """Reject a configuration before any work starts, by the rules of one command."""
    try:
        CouplingSpec(config.lam)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
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
    for name in ("L_list", "observables"):
        _reject_repeats(name, getattr(config, name))
    for name in ("half_width", "energy_window", "bin_spacing", "bin_width", "min_bin_count",
                 "workers", "omega_cut"):
        value = getattr(config, name)
        # a None omega_cut resolves automatically; the bounds fail nan and inf too
        if value is not None and not 0 < value < np.inf:
            raise ConfigError(f"{name} must be positive and finite, got {value}")
    if not 0.0 < config.central_fraction <= 1.0:
        raise ConfigError(f"central_fraction must lie in (0, 1], got {config.central_fraction}")
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
    for L in config.L_list:
        if not _admitted_labels(config, L):
            raise ConfigError(f"exclude_k={list(config.exclude_k)} admits no sector at L = {L}")

    if command == "diag-eth" and not config.spins:
        raise ConfigError("empty spin selection: diag-eth needs at least one S in spins")
    if not config.spins and not config.spin_pairs:
        raise ConfigError("empty spin selection: set spins and/or spin_pairs")
    # diag-eth never reads spin_pairs, so the pair rules bind offdiag-eth only
    pairs = config.all_pairs() if command == "offdiag-eth" else tuple((s, s) for s in config.spins)
    _reject_repeats("the spin selection", pairs)
    bound = min(config.L_list) // 2
    for s_a, s_b in pairs:
        for s in (s_a, s_b):
            if not 0 <= s <= bound:
                raise ConfigError(f"S={s} exceeds the bound S <= L/2 = {bound} for the smallest L")
        # the selection rule of _vanishes: every rank component's <S_a 0|S_b 0; r 0> is 0
        for observable in config.observables:
            if s_a != s_b and _vanishes(observable, s_a, s_b, config.lam, offdiagonal=True):
                raise ConfigError(f"pair ({s_a},{s_b}): every element of {observable} "
                                  f"vanishes between these spins at M = 0")


def _reject_repeats(name: str, values: tuple) -> None:
    # a repeated entry would be pooled, fed and fitted twice
    if len(set(values)) < len(values):
        raise ConfigError(f"{name} repeats an entry: {list(values)}")


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


@contextmanager
def _begin(config: RunConfig, command: str):
    """One run of a command: validate, open the journal and the sector pool around the body.

    Yields (cache root, output dir, manifest, plan, pool). plan maps each size
    to the labels the command works: every sector for spectrum and
    oracle-check, the admitted ones for the analyses. pool is None at one
    worker, and always for diag-eth, which works its sectors in place. The
    run/done row records the effective workers after the body;
    an error raised once the run/start row is written ends the journal
    with a run/failed row carrying it instead, and propagates.
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
    try:
        analysis_run = command in ("diag-eth", "offdiag-eth")
        plan = {L: _admitted_labels(config, L) if analysis_run else sector_labels(L, config.M)
                for L in config.L_list}
        solved = dict.fromkeys(_solved(lab) for each in plan.values() for lab in each)
        for sector in solved:
            path = cache.spectrum_path(root, sector, config.lam)
            if analysis_run and not path.exists():  # fail before any sector is worked
                raise MissingCacheError(f"no cached spectrum at {path}; {_FILL_CACHE}")
        # a fork pool starts every worker at once, so start no more than can be busy; diag-eth
        # reads only cache heads, which cost less than a fork
        workers = 1 if command == "diag-eth" else min(config.workers,
                                                      len({_unit(sector) for sector in solved}))
        with _sector_pool(workers) as pool:
            yield root, out, manifest, plan, pool
    except Exception as exc:
        manifest.record("run", "failed", command=command, error=f"{type(exc).__name__}: {exc}")
        raise
    manifest.record("run", "done", command=command, workers=workers)


def _sector_pool(workers: int):
    """That many forked processes, or for one worker no pool: each sector is worked in place.

    Threads of one process do not run eigh side by side, so the sectors
    go to processes. Fork children inherit the imported modules, the BLAS
    pin and any patched module global instead of importing them again.
    """
    if workers <= 1:
        return nullcontext()
    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))


def _submit(pool, work, *args) -> Future:
    """The future of work(*args), run in place when pool is None."""
    future = Future()
    try:
        if pool is not None:
            return pool.submit(work, *args)
        future.set_result(work(*args))
    except Exception as exc:  # a broken pool's, after a worker died: each of the unit's labels'
        future.set_exception(exc)
    return future


def _per_block(config: RunConfig, root: Path, labels, work,
               pool) -> Callable[[SectorLabel], object]:
    """result(label): work's result for the label's solved sector, or that sector's own error.

    Each unit, _drive(work, _unit(label), ...), is submitted once, at its
    first label, so that a +-k pair and the two parity halves of a k = 0 or
    pi sector share one submission; in place, it is worked before the next
    one is read, so one unit's spectra are alive at a time. A -k block
    equals its +k mirror's real block bit for bit, so it has the mirror's
    energies, spins, diagonals and elements.
    """
    futures = {unit: _submit(pool, _drive, work, unit, config, root)
               for unit in dict.fromkeys(map(_unit, labels))}

    def result(label: SectorLabel):
        outcome = futures[_unit(label)].result()[_solved(label)]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    return result


def _drive(work, unit: SectorLabel, config: RunConfig, root: Path) -> dict[SectorLabel, object]:
    """work(sector, cut, config, root) of each solved sector of one unit, keyed by sector.

    A sector whose work raises has its error as its result, so the other
    parity half keeps its own.
    """
    results = {}
    for sector, cut in _halves(unit, config.lam).items():
        try:
            results[sector] = work(sector, cut, config, root)
        except Exception as exc:
            results[sector] = exc
    return results


# ─── spectra ─────────────────────────────────────────────────────────────────


def _mirror(sector: SectorLabel) -> SectorLabel:
    """The sector at -k; k = 0 and k = pi, the only parity halves, are their own mirrors."""
    return replace(sector, k_index=-sector.k_index)


def _solved(sector: SectorLabel) -> SectorLabel:
    """The k >= 0 sector whose eigendata are solved and cached for this one."""
    return sector if sector.k_index >= 0 else _mirror(sector)


def _unit(sector: SectorLabel) -> SectorLabel:
    """The whole (k, z) sector, k >= 0, whose one assembly of H and S^+- solves this one."""
    return replace(_solved(sector), parity=None)


# the oracle's four-site correlators, by tag: the kind of their terms
_CORRELATORS = {"eps4": "dotdot", "eps4z": "zzdot"}

# the operators of the per-state expectations, each named by its tag: S^2 and the
# correlators (eps2 and eps2z follow from S^2, meanA and meanB from A and C, see _state_moments)
_MOMENT_TAGS = ("S2", *_CORRELATORS)


def _halves(unit: SectorLabel, lam: float) -> dict[SectorLabel, Callable[[str], BlockOperator]]:
    """A cut(tag) for each solved sector of one whole (k, z) sector, keyed by sector.

    cut(tag) is the sector's block of operator tag: H, S2, the ladder S+ or
    S-, an observable or a correlator; C's is its exact diagonal, a 1-D
    array built without a block (see operators.c_diagonal). The unit's
    basis, each whole-sector operator and each sector's block are built
    once, at first use; a parity half at k = 0 or pi takes its parity_block.
    """
    basis = memoized(lambda: enumerate_sector_basis(unit))

    @memoized
    def whole(tag: str) -> BlockOperator | np.ndarray:
        if tag == "H":
            return build_hamiltonian(basis(), CouplingSpec(lam))
        if tag == "S2":
            return build_total_spin_squared(basis())
        if tag in LADDERS:
            return build_spin_ladder(basis(), LADDERS[tag])
        if tag == "C":
            return c_diagonal(basis())
        if tag in OBSERVABLE_TAGS:
            return build_observable(basis(), tag)
        return build_operator(basis(), quad_correlator_terms(unit.L, _CORRELATORS[tag]), tag)

    def cut(tag: str, parity: int | None) -> BlockOperator | np.ndarray:
        half = with_parity(basis(), parity)
        return whole(tag)[half.columns] if tag == "C" else parity_block(whole(tag), half)

    return {sector: memoized(lambda tag, p=sector.parity: cut(tag, p))
            for sector in parity_halves(unit)}


def _serve(spectrum: SpinResolvedSpectrum, sector: SectorLabel) -> SpinResolvedSpectrum:
    """The spectrum of _solved(sector), relabeled as sector's own.

    The PK basis at -k is the conjugate of the one at +k, so both real
    blocks are equal bit for bit and share every array (read-only).
    """
    return replace(spectrum, sector=sector)


def ensure_spectrum(sector: SectorLabel, lam: float, root: Path,
                    cut=None) -> tuple[SpinResolvedSpectrum, bool]:
    """Load one block spectrum from cache, or build and store it.

    Only k >= 0 sectors are solved and cached; a -k sector is served from
    its mirror. A sector is built from H and the spin ladder of its whole
    (k, z) sector, S^+ (S^- at M < 0, so that the ladder never lands on
    M = 0), cut to its parity half at k = 0 and pi; cut, when given, is
    the solved sector's cut (see _halves), so that both halves can share
    one assembly. A built spectrum's vectors are made C-ordered, as the file
    holds them, and each state's <A> and <C> are taken from them with the
    same cut (see _diagonals) and stored in the file's head, so that
    diag-eth reads them instead of the vectors. Returns (spectrum,
    cache_hit). A present-but-incompatible file triggers a rebuild with a
    warning rather than an error.
    """
    solved = _solved(sector)
    try:
        return _serve(cache.load_spectrum(root, solved, lam), sector), True
    except cache.CacheMismatch as exc:
        if cache.spectrum_path(root, solved, lam).exists():
            warnings.warn(f"rebuilding stale cache entry: {exc}")
    cut = cut or _halves(_unit(sector), lam)[solved]
    energies, vectors = diagonalize_block(cut("H"))
    spectrum = resolve_spins(energies, vectors, cut("S-" if sector.M < 0 else "S+"))
    spectrum = replace(spectrum, vectors=np.ascontiguousarray(spectrum.vectors))
    spectrum = replace(spectrum, diagonals=_diagonals(cut, spectrum, lam))
    cache.save_spectrum(root, lam, spectrum)
    return _serve(spectrum, sector), False


def load_cached_spectrum(sector: SectorLabel, lam: float, root: Path,
                         vectors: bool = True) -> SpinResolvedSpectrum:
    """One block spectrum from the cache, without its vectors (cache.load_head) when vectors
    is False; a -k sector is served from its mirror."""
    read = cache.load_spectrum if vectors else cache.load_head
    try:
        return _serve(read(root, _solved(sector), lam), sector)
    except cache.CacheMismatch as exc:  # a file that is there but cannot be read, spectrum rebuilds
        there = cache.spectrum_path(root, _solved(sector), lam).exists()
        raise MissingCacheError(f"{exc}; {_REBUILD if there else _FILL_CACHE}") from exc


def _sector_name(sector: SectorLabel, lam: float) -> str:
    return cache.spectrum_path(Path("."), sector, lam).stem


# ─── output helpers ──────────────────────────────────────────────────────────


def _write_csv(path: Path, columns: tuple[str, ...], groups: list[tuple], config_hash: str) -> Path:
    """One table from row groups, each column formatted by the type of its first value.

    Each entry of a group is one value for all of its rows or a 1-D array
    with one value per row; a group without arrays is one row.
    """
    sizes = [next((len(v) for v in group if isinstance(v, np.ndarray)), 1) for group in groups]
    table = [""] * (sum(sizes) * len(columns))
    first = next((group for group, n in zip(groups, sizes) if n), ())
    for j, (entries, value) in enumerate(zip(zip(*groups), first)):
        end = "\n" if j == len(columns) - 1 else ","
        table[j::len(columns)] = _cells(entries, sizes, np.ravel(value)[0], end)
    with open(path, "w", newline="") as fh:
        fh.write(f"# config {config_hash}\n")
        fh.write(",".join(columns) + "\n")
        fh.write("".join(table))
    return path


def _cells(entries, sizes: list[int], first, end: str) -> list[str]:
    """One column's cells, each distinct value formatted once: %.17g for floats, keyed by
    their bits so that -0.0 and 0.0 stay -0 and 0, %d for integers and flags, else %s."""
    floats = isinstance(first, np.floating)
    fmt = ("%.17g" if floats else "%d" if isinstance(first, (np.integer, np.bool_)) else "%s") + end
    # a scalar entry is one value standing for each of its group's rows
    parts = [(v, 1) if isinstance(v, np.ndarray) else ([v], n) for v, n in zip(entries, sizes)]
    flat = np.concatenate([v for v, _ in parts])
    keys, inverse = np.unique(flat.astype(np.float64).view(np.int64) if floats else flat,
                              return_inverse=True)
    text = [fmt % v for v in (keys.view(np.float64) if floats else keys).tolist()]
    return np.array(text, dtype=object)[np.repeat(inverse, np.repeat(
        [r for _, r in parts], [len(v) for v, _ in parts]))].tolist()


def _write_json(path: Path, payload: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ─── spectrum command ────────────────────────────────────────────────────────


def _sweep_sector(sector: SectorLabel, cut, config: RunConfig, root: Path) -> tuple:
    """(dim, spin_dims, cache_hit, seconds) of one solved sector.

    The parity halves of a unit share one assembly of H and S^+-, made only
    if a half is not cached and counted in the seconds of the first half
    built. No eigenvectors are kept.
    """
    t0 = time.perf_counter()
    spectrum, hit = ensure_spectrum(sector, config.lam, root, cut)
    return spectrum.dim, spectrum.spin_dims(), hit, time.perf_counter() - t0


def run_spectrum(config: RunConfig) -> dict:
    """Solve every k >= 0 sector in the plan, caching the spin-resolved data.

    A -k sector shares its mirror's energies and spins, so it is counted
    in the summary with its mirror's result and never solved or cached.
    The parity halves of a k = 0 or pi sector are worked as one unit, each
    eigensolved and cached on its own; a sector that fails is quarantined.
    Units go to at most config.workers workers, every unit of the plan
    before any result is read and the largest sizes first, so that no
    worker waits at the end of a size; eigenvectors travel through the
    cache, never back from a worker. The journal and the summary follow
    the plan. A size's summary seconds are the seconds of its solved
    sectors summed, the time their loads and solves took on any worker.
    """
    with _begin(config, "spectrum") as (root, out, manifest, plan, pool):
        summary = {"config": manifest.config_hash, "lambda": config.lam, "M": config.M,
                   "sizes": {}, "failures": []}
        order = [lab for L in sorted(plan, reverse=True) for lab in plan[L]]
        result = _per_block(config, root, order, _sweep_sector, pool)
        for L, labels in plan.items():
            results = []
            worked = {}  # seconds per solved sector
            for lab in labels:
                name = _sector_name(lab, config.lam)
                solved = _solved(lab)
                mirror = {} if solved == lab else {"mirror_of": _sector_name(solved, config.lam)}
                try:
                    dim, dims, hit, worked[solved] = result(lab)
                except Exception as exc:  # quarantine the sector, keep sweeping
                    manifest.record("spectrum", "failed", sector=name, error=str(exc), **mirror)
                    summary["failures"].append({"sector": name, "error": str(exc)})
                    continue
                results.append((dim, dims, hit))
                manifest.record("spectrum", "hit" if hit else "built", sector=name,
                                seconds=None if mirror else worked[solved], dim=dim, **mirror)
            per_spin = sum((Counter(dims) for _, dims, _ in results), Counter())
            hits = sum(hit for _, _, hit in results)
            summary["sizes"][str(L)] = {
                "blocks": len(results),
                "states": sum(dim for dim, _, _ in results),
                "per_spin_counts": {str(s): per_spin[s] for s in sorted(per_spin)},
                "cache_hits": hits,
                "built": len(results) - hits,
                "seconds": round(sum(worked.values()), 3),
            }
        _write_json(out / "spectrum_summary.json", summary)
    return summary


# ─── shared extraction ───────────────────────────────────────────────────────


def _admitted_labels(config: RunConfig, L: int) -> list[SectorLabel]:
    return [lab for lab in sector_labels(L, config.M) if lab.k_index not in config.excluded_k(L)]


def _rank_vanishes(rank: int, s_a: int, s_b: int, lam: float, offdiagonal: bool) -> bool:
    """Whether the rank component vanishes between spins s_a and s_b: when
    <S_a 0|S_b 0; r 0> = 0, or r = 0 off the diagonal at lam = 0, where A = H/(sqrt(3) L)."""
    return (reduction_coefficient(rank, s_a, s_b) == 0.0
            or (rank == 0 and offdiagonal and lam == 0.0))


def _vanishes(observable: str, s_a: int, s_b: int, lam: float, offdiagonal: bool) -> bool:
    """Whether each rank component of observable vanishes between spins s_a and s_b."""
    return all(_rank_vanishes(rank, s_a, s_b, lam, offdiagonal) for rank in _COMPONENTS[observable])


def _terms(observable: str, s_a: int, s_b: int, lam: float,
           offdiagonal: bool) -> list[tuple[str, float]]:
    """(primitive, coefficient) of observable between spins s_a and s_b, from _ASSEMBLY:
    without A where rank 0 vanishes, so no A is built or added there."""
    return [(p, c) for p, c in _ASSEMBLY[observable].items()
            if p != "A" or not _rank_vanishes(0, s_a, s_b, lam, offdiagonal)]


def _assemble(terms, values: Callable[[str], np.ndarray]) -> np.ndarray:
    """sum_p c_p values(p) over (p, c) terms, from -0.0, the identity of float addition,
    so that one term with c = 1 comes out bit for bit."""
    return sum((c * values(p) for p, c in terms), -0.0)


def _diagonals(cut, spectrum: SpinResolvedSpectrum, lam: float) -> dict[str, np.ndarray]:
    """Each state's value of each primitive, A and C, of one block, from its vectors.

    At lam = 0, A = H/(sqrt(3) L) is read off the energies, and no A is built.
    """
    a = (spectrum.energies / (np.sqrt(3.0) * spectrum.sector.L) if lam == 0.0
         else expectations(cut("A"), spectrum.vectors))
    return {"A": a, "C": expectations(cut("C"), spectrum.vectors)}


def _journal_blocks(manifest: RunManifest, L: int, labels, **counts) -> None:
    """One row per size: the admitted labels, the solved sectors read for them and counts."""
    manifest.record("blocks", "done", L=L, admitted=len(labels),
                    loaded=len({_solved(lab) for lab in labels}), **counts)


def _fits(manifest: RunManifest, stage: str, named_points, fit) -> dict[str, dict]:
    """fit(points) of each named list of at least 3 points, its inputs the hash of their last
    two columns, x then y; a fit that raises ValueError is named in a stage/skipped row."""
    fits = {}
    for name, points in named_points:
        if len(points) < 3:
            continue
        try:
            entry = fit(points).as_dict()
        except ValueError as exc:
            manifest.record(stage, "skipped", sector=name, error=str(exc))
            continue
        entry["inputs"] = hashlib.sha256(b"".join(
            np.asarray(column).tobytes() for column in list(zip(*points))[-2:])).hexdigest()[:16]
        fits[name] = entry
    return fits


def _pool_spin(config: RunConfig, observable: str, L: int, tables, S: int) -> analysis.DiagonalSeries:
    blocks = []
    for energies, values, spins in tables:
        sel = spins == S
        if sel.any():
            blocks.append((energies[sel], values[sel], int(sel.sum())))
    return analysis.pool_diagonal(observable, L, config.lam, S, blocks, config.half_width)


# ─── diagonal command ────────────────────────────────────────────────────────


def _diagonal_tables(sector: SectorLabel, cut, config: RunConfig, root: Path) -> dict[str, tuple]:
    """(energies, diagonal elements, spins) of one cached solved sector, keyed by observable.

    Read from the file's head alone, so no vector, basis or operator is
    touched: the elements are assembled from the A and C diagonals stored
    at solve time (see _ASSEMBLY); on the diagonal rank 0 never vanishes,
    so A's part is kept.
    """
    head = load_cached_spectrum(sector, config.lam, root, vectors=False)
    return {observable: (head.energies,
                         _assemble(_ASSEMBLY[observable].items(), head.diagonals.__getitem__),
                         head.spins) for observable in config.observables}


def run_diag_eth(config: RunConfig) -> dict:
    """Diagonal-element series, per-spin means, fluctuation scaling, oracle lines.

    Every sector is worked in place, whatever config.workers says: each
    reads only its cache head.
    """
    with _begin(config, "diag-eth") as (root, out, manifest, plan, pool):
        chash = manifest.config_hash
        rows = {name: [] for name in ("diag", "spin_means", "fluct", "predictions")}
        fluct_points: dict[tuple[str, int], list[tuple[float, float]]] = {}

        for L, labels in plan.items():
            blocks = list(map(_per_block(config, root, labels, _diagonal_tables, pool), labels))
            _journal_blocks(manifest, L, labels)
            for observable in config.observables:
                tables = [block[observable] for block in blocks]
                all_spins = sorted({int(s) for _, _, spins in tables for s in np.unique(spins)})
                pooled = {S: _pool_spin(config, observable, L, tables, S)
                          for S in {*all_spins, *config.spins}}

                for S in config.spins:
                    series = pooled[S]
                    rows["diag"].append((series.energies / L, S, series.values, L, config.lam,
                                         observable))
                    try:
                        # its fluctuations would be round-off
                        if _vanishes(observable, S, S, config.lam, offdiagonal=False):
                            raise ValueError(f"{observable} vanishes between S = {S} states")
                        delta = analysis.diagonal_fluctuations(series, config.central_fraction)
                    except ValueError as exc:
                        manifest.record("diag", "skipped", sector=f"L{L}_S{S}_{observable}",
                                        error=str(exc))
                        continue
                    ld = L * series.mean_block_dim
                    rows["fluct"].append((observable, L, S, config.lam, ld, delta))
                    fluct_points.setdefault((observable, S), []).append((ld, delta))

                scan = analysis.diagonal_vs_spin([pooled[S] for S in all_spins],
                                                 config.energy_window)
                rows["spin_means"].append((observable, L, config.lam, scan.spins, scan.spins / L,
                                           scan.means, scan.stds, scan.block_means, scan.counts,
                                           scan.flagged))

                for S in config.spins:
                    m = oracle.moments(L, S, config.lam)
                    try:
                        coeffs = oracle.linear_coefficients(L, S, config.lam)
                        slopes = {0: coeffs.slopeA, 2: coeffs.slopeB}
                    except ValueError:
                        slopes = dict.fromkeys((0, 2), float("nan"))
                    rows["predictions"].append((observable, L, S, config.lam, m.E0, *(
                        _assemble(_COMPONENTS[observable].items(), by_rank.__getitem__)
                        for by_rank in ({0: m.meanA, 2: m.meanB}, slopes))))

        fits = _fits(manifest, "diag",
                     [(f"fluct[{observable},S={S}]", points)
                      for (observable, S), points in sorted(fluct_points.items())],
                     lambda points: analysis.scaling_fit(*zip(*points)))

        paths = {name: _write_csv(out / f"{name}.csv", _COLUMNS[name], groups, chash)
                 for name, groups in rows.items()}
        paths["fits"] = _write_json(out / "diag_fits.json", {"config": chash, "fits": fits})
    return {"config": chash, "paths": {k: str(p) for k, p in paths.items()}, "fits": fits}


# ─── off-diagonal command ────────────────────────────────────────────────────


def _element_tables(sector: SectorLabel, cut, config: RunConfig,
                    root: Path) -> dict[tuple, analysis.OffDiagonalEnsemble]:
    """One cached solved sector's windowed ensembles, keyed by (observable, pair, reduced).

    Each primitive's image, A or C times the vectors of one ket spin (see
    operator_image), is formed once, when a pair first needs it, shared by
    every pair of that ket spin and dropped after the last one. Per pair,
    elements are formed only in the energy window's band (see energy_band),
    widened by 1e-9 max(1, max|E|) so that it holds every kept pair; the
    band's row and column energies are laid out once, as flat arrays with
    one entry per element, shared by every observable. Each primitive's band
    table is formed once per pair and dropped once no later observable
    needs it. Each observable's values are assembled from them (see
    _ASSEMBLY), divided by the pair's CG coefficient for the reduced series
    and windowed exactly by build_offdiagonal_ensemble, so only the kept
    (omega, |O|^2) pairs outlive the call or leave a worker. No element
    records are laid out.
    """
    spectrum = load_cached_spectrum(sector, config.lam, root)
    dims = spectrum.spin_dims()
    L = spectrum.sector.L
    slack = 1e-9 * max(1.0, float(np.abs(spectrum.energies).max(initial=0.0)))
    plan = []  # (pair, its live observables and their terms) of each pair with elements to form
    for pair in config.all_pairs():
        # fewest primitives first, so that each table is dropped as early as it can be
        live = sorted(((observable, _terms(observable, *pair, config.lam, offdiagonal=True))
                       for observable in config.observables
                       if not _vanishes(observable, *pair, config.lam, offdiagonal=True)),
                      key=lambda item: len(item[1]))
        if live and all(dims.get(s, 0) for s in pair):
            plan.append((pair, live))
    needs = [{(p, pair[1]) for _, terms in live for p, _ in terms} for pair, live in plan]
    images, parts = {}, {}
    for n, (pair, live) in enumerate(plan):
        d_a, d_b = (dims[s] for s in pair)
        e_rows, e_cols = (spectrum.energies[spectrum.spins == s] for s in pair)
        # the kept E_a + E_b lie within 2 energy_window L of twice the window's center
        center = 2 * analysis.window_center(L, config.lam, pair)
        half = 2 * config.energy_window * L + slack
        band = energy_band(e_rows, e_cols, center - half, center + half)
        i, j = band_positions(band)
        # alpha == beta only on a same-spin pair's diagonal, which the ensembles drop
        keep = i != j if pair[0] == pair[1] else slice(None)
        e_a, e_b = e_rows[i[keep]], e_cols[j[keep]]
        del i, j
        tables = {}
        for k, (observable, terms) in enumerate(live):
            for p, _ in terms:
                if p not in tables:
                    if (p, pair[1]) not in images:
                        images[p, pair[1]] = operator_image(
                            cut(p), spectrum.vectors[:, spectrum.spins == pair[1]])
                    tables[p] = matrix_elements(cut(p), spectrum, pair, images[p, pair[1]],
                                                band).block[keep]
            values = tables[terms[0][0]]
            if terms != [(terms[0][0], 1.0)]:  # not one primitive's values as they are
                values = _assemble(terms, tables.__getitem__)
            for p in set(tables) - {p for _, later in live[k + 1:] for p, _ in later}:
                del tables[p]
            ranks = list(_COMPONENTS[observable])
            cg = reduction_coefficient(ranks[0], *pair) if len(ranks) == 1 else 0.0
            series = {False: values}
            if cg and d_a * (d_b - (pair[0] == pair[1])):  # else the pair offers nothing to reduce
                series[True] = values / cg
            parts.update({(observable, pair, reduced): analysis.build_offdiagonal_ensemble(
                observable, L, config.lam, pair,
                [(e_a, e_b, v, d_a, d_b)], config.energy_window) for reduced, v in series.items()})
        for key in set(images) - set().union(*needs[n + 1:]):
            del images[key]
    return parts


def _offdiag_ensembles(config: RunConfig, root: Path, L: int, labels, pool=None):
    """Yield (observable, pair, ens, red_ens) for size L, observables outermost.

    labels are the size's admitted labels, from the plan. Each admitted
    block is windowed where its elements are computed, in place or in
    pool's workers when one is given. ens joins the kept pairs of each
    solved sector once, in label order of its first admitted label, weighted
    by the number of admitted labels it serves (2 for a +-k pair, 1 for a
    lone -k or +k label or a parity half); its block_dims has one entry per
    admitted label, in label order. red_ens is the CG-reduced ensemble, None
    for the observables without a single tensor rank or without reduced
    elements.
    """
    parts = {}  # per key, (part, weight) of each solved sector; popped once its ensemble is joined
    dims = {}  # per key, the block dims of every admitted label
    served = Counter(map(_solved, labels))
    taken = set()
    result = _per_block(config, root, labels, _element_tables, pool)
    for lab in labels:
        solved = _solved(lab)
        for key, part in result(lab).items():
            dims.setdefault(key, []).extend(part.block_dims)
            if solved not in taken:
                parts.setdefault(key, []).append((part, served[solved]))
        taken.add(solved)
    del result  # its futures hold every part: drop them, so each part is freed once joined
    for observable in config.observables:
        for pair in config.all_pairs():
            raw, reduced = ((observable, pair, r) for r in (False, True))
            ens = _joined(L, parts.pop(raw, []), dims.pop(raw, []))
            red_ens = _joined(L, parts.pop(reduced), dims.pop(reduced)) if reduced in parts else None
            yield observable, pair, ens, red_ens


def _joined(L: int, parts, dims) -> analysis.OffDiagonalEnsemble:
    """The windowed (part, weight) pairs of a size's solved sectors as one weighted ensemble."""
    if not parts:  # a pair that no admitted block populates
        return analysis.OffDiagonalEnsemble(L, np.empty(0), np.empty(0), tuple(dims))
    weights = np.repeat(np.array([w for _, w in parts], dtype=np.uint8), [p.size for p, _ in parts])
    return analysis.OffDiagonalEnsemble(
        L, np.concatenate([p.omega for p, _ in parts]),
        np.concatenate([p.abs_sq for p, _ in parts]), tuple(dims), weights)


def _populated(series: analysis.BinnedSeries) -> list[np.ndarray]:
    """Centers, values, counts and flags of the populated bins, as arrays."""
    keep = series.counts != 0
    return [a[keep] for a in (series.centers, series.values, series.counts, series.flagged)]


def run_offdiag_eth(config: RunConfig) -> dict:
    """Gaussianity ratios, spectral functions, variance scalings, low-freq views."""
    with _begin(config, "offdiag-eth") as (root, out, manifest, plan, pool):
        chash = manifest.config_hash
        binning = analysis.Binning(config.bin_spacing, config.bin_width, config.min_bin_count)
        omega_cut = config.resolved_omega_cut()

        rows = {name: [] for name in ("gamma", "specfun", "specfun_reduced", "lowfreq")}
        # per (observable, pair), one (L, L*D, below-cut mean |O|^2) point per size
        points: dict[tuple[str, tuple[int, int]], list[tuple[int, float, float]]] = {}

        for L, labels in plan.items():
            elements = kept = 0  # raw pairs (alpha != beta) offered to the window, and kept
            for observable, pair, ens, red_ens in _offdiag_ensembles(config, root, L, labels, pool):
                s_a, s_b = pair
                elements += sum(d_a * (d_b - (s_a == s_b)) for d_a, d_b in ens.block_dims)
                kept += ens.weighted_size
                if ens.size == 0:
                    manifest.record("offdiag", "empty", sector=f"L{L}_{observable}_{s_a}_{s_b}")
                    continue
                points.setdefault((observable, pair), []).append(
                    analysis.variance_point(ens, omega_cut))

                tag = (L, s_a, s_b, config.lam, observable)
                gamma, spectral = analysis.gaussianity_and_spectral_function(ens, binning)
                w, v, c, f = _populated(gamma)
                rows["gamma"].append((w, v, c, *tag, f))

                series = {"specfun": spectral, "lowfreq": analysis.low_frequency_view(
                    spectral, L, divide_by_L=(observable == "A"))}
                if red_ens is not None and red_ens.size:
                    series["specfun_reduced"] = analysis.spectral_function(red_ens, binning)
                for name, binned in series.items():
                    w, v, c, f = _populated(binned)
                    rows[name].append((w, v, *tag, c, f))
            _journal_blocks(manifest, L, labels, elements=elements, kept=kept)

        fits = _fits(manifest, "offdiag",
                     [(f"variance[{observable},{s_a},{s_b}]", group)
                      for (observable, (s_a, s_b)), group in sorted(points.items())],
                     analysis.variance_scaling)

        paths = {name: _write_csv(out / f"{name}.csv", _COLUMNS[name], groups, chash)
                 for name, groups in rows.items()}
        paths["fits"] = _write_json(out / "fits.json",
                                    {"config": chash, "omega_cut": omega_cut, "fits": fits})
    return {"config": chash, "paths": {k: str(p) for k, p in paths.items()}, "fits": fits}


# ─── oracle check ────────────────────────────────────────────────────────────


def _state_moments(cut, spectrum: SpinResolvedSpectrum, lam: float) -> dict[str, np.ndarray]:
    """Per-state values of one block, from its cut, whose sector averages are the moments.

    S2 is each state's <S^2>. At M = 0, sum_{i != j} S_i.S_j = S^2 - 3L/4 and
    sum_{i != j} S^z_i S^z_j = -L/4 give eps2 and eps2z without an operator.
    meanA and meanB are assembled from A and C as diag-eth assembles its
    diagonals, so their closed forms audit that assembly; A and C, taken
    from the vectors, are in the result too.
    """
    per_state = {tag: expectations(cut(tag), spectrum.vectors) for tag in _MOMENT_TAGS}
    per_state.update(_diagonals(cut, spectrum, lam))
    mean_a, mean_b = (_assemble(_ASSEMBLY[o].items(), per_state.__getitem__) for o in ("A", "B"))
    e, L, s2 = spectrum.energies, spectrum.sector.L, per_state["S2"]
    per_state.update(eps2=(s2 - 0.75 * L) / (L * (L - 1)), eps2z=np.full(len(e), -0.25 / (L - 1)),
                     E0=e, HH=e * e, meanA=mean_a, meanB=mean_b, AH=mean_a * e, BH=mean_b * e)
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
    sector of M = 0. Pooling all of them realizes the (S, M=0) trace. The
    two parity halves of a k = 0 or pi sector, adjacent in sector_labels'
    order, share one operator table; a -k label gets its own, built at -k,
    which checks the mirror rule.
    """
    tables = lru_cache(maxsize=1)(lambda whole: _halves(whole, lam))
    return _pooled_moments(
        (spectrum.spins, _state_moments(tables(replace(lab, parity=None))[lab], spectrum, lam))
        for lab, spectrum in blocks)


def audit_bound(field: str, row: dict) -> float | None:
    """The bound oracle-check holds a round-off field of a report row to, None for other fields.

    A moment's abs_diff from its closed form is held to 1e-10 and a block's
    spin_residual to 1e-6; its eigen_residual to 1e-8 * its scale, max(1,
    max |E|), and its orthonormality to 10 * dim * eps. A row without scale
    or dim, written before they were recorded, gives those two no bound.
    """
    if field == "orthonormality" and "dim" in row:
        return 10 * row["dim"] * np.finfo(float).eps
    if field == "eigen_residual" and "scale" in row:
        return 1e-8 * row["scale"]
    return {"abs_diff": 1e-10, "spin_residual": 1e-6}.get(field)


def _audit_sector(sector: SectorLabel, cut, config: RunConfig, root: Path) -> dict:
    """Spin counts, per-state moments, per-label (block audit, failed) and the stale primitives
    of one solved sector.

    A sector missing from the cache is solved from the same cut; a file
    that fails to load stops the run, named by MissingCacheError. The A and
    C diagonals in the file's head are stale when their bits are not those
    recomputed from its vectors, as diag-eth reads them instead. A solved
    sector's -k mirror shares its vectors, orthonormality and spin
    sharpness; the mirror's eigen residual is taken against its own H(-k),
    which checks the mirror rule.
    """
    if cache.spectrum_path(root, sector, config.lam).exists():
        spectrum = load_cached_spectrum(sector, config.lam, root)
    else:
        spectrum, _ = ensure_spectrum(sector, config.lam, root, cut)
    v, spins = spectrum.vectors, spectrum.spins
    # a parity half may be empty, with every audit 0
    ortho = float(np.abs(v.T @ v - np.eye(spectrum.dim)).max(initial=0.0))
    moments = _state_moments(cut, spectrum, config.lam)
    stale = [p for p in ("A", "C") if moments.pop(p).tobytes() != spectrum.diagonals[p].tobytes()]
    spin_res = float(np.abs(moments["S2"] - spins * (spins + 1.0)).max(initial=0.0))
    scale = max(1.0, float(np.abs(spectrum.energies).max(initial=0.0)))
    audits = {}
    for label in dict.fromkeys((sector, _mirror(sector))):
        own = cut if label == sector else _halves(label, config.lam)[label]
        eig_res = eigen_residual(own("H"), spectrum.energies, v)
        # dim and scale give audit_bound's bounds, so a reader can hold the fields to them
        audit = {"sector": _sector_name(label, config.lam), "eigen_residual": eig_res,
                 "orthonormality": ortho, "spin_residual": spin_res,
                 "dim": spectrum.dim, "scale": scale}
        # each bound fails on NaN, as a corrupted vector gives
        audits[label] = audit, not all(audit[f] <= audit_bound(f, audit) for f in
                                       ("eigen_residual", "orthonormality", "spin_residual"))
    return {"spin_dims": spectrum.spin_dims(), "audits": audits, "stale": stale,
            "moments": (spins, moments)}


def run_oracle_check(config: RunConfig) -> dict:
    """Audit cached eigendata and compare sector traces to the closed forms.

    Per-block checks (eigen residual, orthonormality, spin sharpness, and
    the stored A and C diagonals against the vectors, bit for bit) catch
    corrupted or stale cache entries and name the sector; the pooled moment
    table then validates every closed form. audit_bound holds the bounds of
    both. Each solved sector is read and worked once for itself and its -k
    mirror; the two parity halves of a k = 0 or pi sector are worked as one
    unit, with one assembly of each operator.
    """
    with _begin(config, "oracle-check") as (root, out, manifest, plan, pool):
        report = {"config": manifest.config_hash, "lambda": config.lam, "rows": [],
                  "block_audits": [], "failures": []}
        for L, labels in plan.items():
            sectors = list(map(_per_block(config, root, labels, _audit_sector, pool), labels))
            for lab, checked in zip(labels, sectors):
                audit, failed = checked["audits"][lab]
                report["block_audits"].append(audit)
                if failed:
                    report["failures"].append({"kind": "block_audit", **audit})
                if lab == _solved(lab) and checked["stale"]:
                    report["failures"].append({"kind": "stored_diagonals", "sector": audit["sector"],
                                               "primitives": checked["stale"]})

            # every spin the oracle expects and every label present; none is expected past L/2
            spin_counts = sum((Counter(checked["spin_dims"]) for checked in sectors), Counter())
            for s in sorted({*spin_counts, *range(L // 2 + 1)}):
                expected = oracle.spin_sector_dimension(L, s) if 0 <= s <= L // 2 else 0
                if spin_counts[s] != expected:
                    report["failures"].append({"kind": "spin_count", "L": L, "S": s,
                                               "got": spin_counts[s], "expected": expected})

            traces = _pooled_moments(checked["moments"] for checked in sectors)
            for s in sorted(s for s in traces if 0 <= s <= L // 2):
                m = oracle.moments(L, s, config.lam)
                for fieldname in _MOMENT_FIELDS:
                    diff = abs(traces[s][fieldname] - getattr(m, fieldname))
                    row = {"L": L, "S": s, "moment": fieldname,
                           "analytic": getattr(m, fieldname),
                           "trace": traces[s][fieldname], "abs_diff": diff,
                           "pass": bool(diff < audit_bound("abs_diff", {}))}  # False for NaN
                    report["rows"].append(row)
                    if not row["pass"]:
                        report["failures"].append({"kind": "moment", "L": L, "S": s,
                                                   "moment": fieldname, "abs_diff": diff})
        report["pass"] = not report["failures"]
        _write_json(out / "oracle_check.json", report)
    return report
