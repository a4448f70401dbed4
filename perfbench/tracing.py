"""Spans around su2eth's public functions, and the per-layer table built from them.

The wrappers live here, not in the package: a traced run swaps them into the
namespaces the pipeline calls through and restores the originals afterwards.
`pipeline` binds `diagonalize_block`, `build_*`, `matrix_elements`,
`reduce_matrix_elements` and friends with `from ... import`, so those are
patched on `su2eth.pipeline`; `cache`, `analysis` and `oracle` are reached
through the module attribute, so those are patched on their own modules.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# Real flops per dim^3 of one `diagonalize_block` call on a complex Hermitian
# block: Householder tridiagonalisation (16/3), back-transformation of the
# eigenvectors (8), and the residual audit's complex matrix product (8).
# The figure is computed from the block sizes, not counted by hardware.
EIGH_FLOPS_PER_DIM3 = 16.0 / 3.0 + 8.0 + 8.0

# Bytes of one matrix-element record (alpha, beta, e_a, e_b, s_a, s_b, value).
MATRIX_ELEMENT_RECORD_BYTES = 44

GROUPS = {
    "analysis.binning": ("analysis.gaussianity_ratio", "analysis.spectral_function",
                         "analysis.low_frequency_view"),
    "analysis.fits": ("analysis.variance_scaling", "analysis.scaling_fit"),
    "analysis.diagonal": ("analysis.pool_diagonal", "analysis.diagonal_fluctuations",
                          "analysis.diagonal_vs_spin"),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    thread: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from every thread; one instance per traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        # span that owns work started on threads with no open span (the
        # sector pool inside run_spectrum)
        self.root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = stack[-1] if stack else self.root
        rec = Span(sid, parent, name, threading.get_ident(), 0.0, attrs=dict(attrs))
        stack.append(sid)
        rec.t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec.t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    @contextmanager
    def command(self, name: str):
        """A span that owns the spans of pool threads started inside it."""
        with self.span(name) as rec:
            self.root = rec.sid
            try:
                yield rec
            finally:
                self.root = None

    def wrap(self, name: str, fn, measure=None, key=None):
        """fn with a span per call.

        key(args) labels the span before the call, so failed calls keep it;
        measure(args, kwargs, result) -> attrs runs after a successful call.
        """
        def traced(*args, **kwargs):
            attrs = {} if key is None else {"key": key(args)}
            with self.span(name, **attrs) as rec:
                result = fn(*args, **kwargs)
            if measure is not None:
                rec.attrs.update(measure(args, kwargs, result))
            return result
        traced.__wrapped__ = fn
        return traced


def _nnz(args, kwargs, result):
    return {"nnz": int(result.matrix.nnz)}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _patch_plan(su2eth):
    """(module, attribute, span name, measure, key) for every traced call site.

    The load key and measure read `args` positionally, which matches every
    call `ensure_spectrum` and `load_cached_spectrum` make.
    """
    pipeline, cache = su2eth.pipeline, su2eth.cache

    plan = [
        (pipeline, "enumerate_sector_basis", "basis.enumerate_sector_basis", None, None),
        (pipeline, "build_hamiltonian", "operators.build_hamiltonian", _nnz, None),
        (pipeline, "build_total_spin_squared", "operators.build_total_spin_squared", _nnz, None),
        (pipeline, "build_observable", "operators.build_observable", _nnz, None),
        (pipeline, "diagonalize_block", "spectral.diagonalize_block",
         lambda a, k, r: {"dim": int(a[0].dim)}, None),
        (pipeline, "resolve_spins", "spectral.resolve_spins", None, None),
        (pipeline, "matrix_elements", "spectral.matrix_elements",
         lambda a, k, r: {"records": int(len(r.records))}, None),
        (pipeline, "reduce_matrix_elements", "tensors.reduce_matrix_elements",
         lambda a, k, r: {"records_in": int(len(a[0].records)),
                          "records_out": int(len(r.records))}, None),
        (pipeline, "ensure_spectrum", "pipeline.ensure_spectrum",
         lambda a, k, r: {"hit": bool(r[1])}, None),
        (cache, "save_spectrum", "cache.save_spectrum",
         lambda a, k, r: {"bytes": _file_bytes(r)}, None),
        (cache, "load_spectrum", "cache.load_spectrum",
         lambda a, k, r: {"bytes": _file_bytes(cache.spectrum_path(*a))},
         lambda a: (a[1], a[2])),
        (su2eth.analysis, "build_offdiagonal_ensemble", "analysis.build_offdiagonal_ensemble",
         lambda a, k, r: {"records_in": int(sum(len(b[0]) for b in a[4])),
                          "records_out": int(r.size)}, None),
        (su2eth.oracle, "moments", "oracle.moments", None, None),
    ]
    for members in GROUPS.values():
        for name in members:
            plan.append((su2eth.analysis, name.split(".", 1)[1], name, None, None))
    return plan


@contextmanager
def installed(tracer: Tracer, su2eth):
    """Swap traced wrappers into the call-site namespaces for the duration."""
    originals = []
    try:
        for module, attr, name, measure, key in _patch_plan(su2eth):
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, measure, key))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


# ─── per-layer table ─────────────────────────────────────────────────────────


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the part covered by child spans, from any thread."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - _covered(children.get(s.sid, ()), s.t0, s.t1)
            for s in spans}


def layer_table(spans: list[Span], spectrum_workers: int) -> dict[str, float]:
    """Every per-layer metric of one traced iteration, by name."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(own[s.sid] for n in names for s in by_name.get(n, ()))

    def total_s(name):
        return sum(s.t1 - s.t0 for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    diag = "spectral.diagonalize_block"
    dims = np.array([s.attrs["dim"] for s in by_name.get(diag, ())], dtype=np.float64)
    block_ms = [1e3 * (s.t1 - s.t0) for s in by_name.get(diag, ())]
    out[diag + ".calls"] = calls(diag)
    out[diag + ".self_s"] = self_s(diag)
    out[diag + ".p90_ms"] = float(np.percentile(block_ms, 90)) if block_ms else 0.0
    out[diag + ".dim_sum"] = float(dims.sum())
    out[diag + ".flops_computed"] = float(EIGH_FLOPS_PER_DIM3 * (dims ** 3).sum())
    out["spectral.resolve_spins.self_s"] = self_s("spectral.resolve_spins")
    me = "spectral.matrix_elements"
    out[me + ".calls"] = calls(me)
    out[me + ".self_s"] = self_s(me)
    out[me + ".records"] = attr_sum(me, "records")
    out[me + ".bytes_computed"] = MATRIX_ELEMENT_RECORD_BYTES * attr_sum(me, "records")

    for name in ("operators.build_hamiltonian", "operators.build_total_spin_squared",
                 "operators.build_observable"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
        out[name + ".nnz"] = attr_sum(name, "nnz")
    out["basis.enumerate_sector_basis.calls"] = calls("basis.enumerate_sector_basis")
    out["basis.enumerate_sector_basis.self_s"] = self_s("basis.enumerate_sector_basis")

    for name in ("cache.save_spectrum", "cache.load_spectrum"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = self_s(name)
        out[name + ".bytes"] = attr_sum(name, "bytes")
    loads = by_name.get("cache.load_spectrum", ())
    distinct = len({s.attrs["key"] for s in loads})
    out["cache.loads_per_sector"] = len(loads) / distinct if distinct else 0.0
    ensures = by_name.get("pipeline.ensure_spectrum", ())
    hits = sum(1 for s in ensures if s.attrs.get("hit"))
    out["cache.hit_ratio"] = hits / len(ensures) if ensures else 0.0

    red = "tensors.reduce_matrix_elements"
    out[red + ".calls"] = calls(red)
    out[red + ".self_s"] = self_s(red)
    out[red + ".records_in"] = attr_sum(red, "records_in")
    out[red + ".records_out"] = attr_sum(red, "records_out")

    ens = "analysis.build_offdiagonal_ensemble"
    kept_in = attr_sum(ens, "records_in")
    out[ens + ".calls"] = calls(ens)
    out[ens + ".self_s"] = self_s(ens)
    out[ens + ".kept_ratio"] = attr_sum(ens, "records_out") / kept_in if kept_in else 0.0
    for group, members in GROUPS.items():
        out[group + ".calls"] = sum(calls(n) for n in members)
        out[group + ".self_s"] = self_s(*members)

    out["oracle.moments.calls"] = calls("oracle.moments")
    out["oracle.moments.self_s"] = self_s("oracle.moments")

    for cmd in ("run_spectrum", "run_diag_eth", "run_offdiag_eth"):
        out[f"pipeline.{cmd}.self_s"] = self_s("pipeline." + cmd)
        out[f"pipeline.{cmd}.wall_s"] = total_s("pipeline." + cmd)
    out["pipeline.ensure_spectrum.self_s"] = self_s("pipeline.ensure_spectrum")
    spectrum_wall = total_s("pipeline.run_spectrum")
    out["pipeline.pool_utilisation"] = (
        total_s("pipeline.ensure_spectrum") / (spectrum_workers * spectrum_wall)
        if spectrum_wall else 0.0)
    return out
