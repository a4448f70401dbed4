"""Correctness checks and run metadata; all of it runs outside the timed region."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import COLD, SIZES

MOMENT_TOL = 1e-10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_VARS = BLAS_THREAD_VARS + ("MALLOC_ARENA_MAX",)


class Tally:
    """Attempted and failed sectors, commands and checks, with the misses named."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.misses.append(what)

    def merge(self, other: dict) -> None:
        """Add a tally that a child process returned as vars(Tally)."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.misses += other["misses"]

    def check(self, ok: bool, what: str) -> bool:
        self.record(1, 0 if ok else 1, what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_summary(tally: Tally, su2eth, workload: str, lam: float, summary: dict) -> None:
    """Sectors of one run_spectrum call: none failed, built counts, per-spin counts."""
    failures = {f["sector"] for f in summary["failures"]}
    for L in SIZES:
        blocks = len(su2eth.basis.sector_labels(L, 0))
        failed = sum(1 for name in failures if name.startswith(f"L{L}_"))
        tally.record(blocks, failed, f"lam={lam:g} L={L}: {failed} sector(s) failed")
        size = summary["sizes"].get(str(L), {})
        # sectors built come from the summary, not the unlocked global counter
        expect = blocks if workload in COLD else 0
        tally.check(size.get("built") == expect,
                    f"lam={lam:g} L={L}: built {size.get('built')} sectors, expected {expect}")
        counts = {int(s): c for s, c in size.get("per_spin_counts", {}).items()}
        tally.check(counts == _oracle_counts(su2eth, L),
                    f"lam={lam:g} L={L}: summary per-spin counts differ from the oracle")


def _oracle_counts(su2eth, L: int) -> dict[int, int]:
    return {S: su2eth.oracle.spin_sector_dimension(L, S) for S in range(L // 2 + 1)}


def audit_cache(tally: Tally, su2eth, cache_dir: Path, lam: float) -> float:
    """Per-spin counts and trace moments of one coupling's cached eigendata
    against the closed forms, at every L.

    Returns the worst |trace - closed form| over every moment and L.
    """
    pipeline = su2eth.pipeline
    worst = 0.0
    for L in SIZES:
        where = f"lam={lam:g} L={L}"
        try:
            blocks = [(lab, pipeline.load_cached_spectrum(lab, lam, cache_dir))
                      for lab in su2eth.basis.sector_labels(L, 0)]
        except pipeline.MissingCacheError as exc:
            tally.record(2, 2, f"{where}: {exc}")
            continue
        counts: dict[int, int] = {}
        for _, spectrum in blocks:
            for s, c in spectrum.spin_dims().items():
                counts[s] = counts.get(s, 0) + c
        tally.check(counts == _oracle_counts(su2eth, L),
                    f"{where}: cached per-spin counts differ from the oracle")
        traces = pipeline.sector_trace_moments(L, lam, blocks)
        dev = 0.0
        for s, row in traces.items():
            m = su2eth.oracle.moments(L, s, lam)
            dev = max([dev] + [abs(v - getattr(m, f)) for f, v in row.items()])
        worst = max(worst, dev)
        tally.check(dev < MOMENT_TOL and set(traces) == set(counts),
                    f"{where}: trace moments off the closed forms by {dev:.3e}")
    return worst


def _canonical_json(obj):
    # run_spectrum's summary carries per-size wall times; everything else is data
    if isinstance(obj, dict):
        return {k: _canonical_json(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [_canonical_json(v) for v in obj]
    return obj


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every emitted CSV and JSON file, by path under out_dir."""
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        if path.suffix == ".csv":
            data = path.read_bytes()
        elif path.suffix == ".json":
            data = json.dumps(_canonical_json(json.loads(path.read_text())),
                              sort_keys=True).encode()
        else:
            continue
        digests[path.relative_to(out_dir).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def check_digests(tally: Tally, per_iteration: list[dict], reference: Path) -> None:
    """Outputs identical across this run's iterations and the earlier runs of the
    same source in this checkout."""
    first = per_iteration[0]
    for i, digests in enumerate(per_iteration[1:], 1):
        tally.check(digests == first, f"iteration {i} outputs differ from iteration 0")
    if reference.exists():
        earlier = json.loads(reference.read_text())
        tally.check(earlier == first, f"outputs differ from an earlier run ({reference.name})")


def save_reference(digests: dict, reference: Path) -> None:
    if not reference.exists():
        write_atomic(reference, digests)


def write_atomic(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(tmp, path)


def environment(root: Path, inherited: dict, nproc: int) -> dict:
    """Run metadata: not gated, recorded with every result."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: blas[k] for k in ("blas", "lapack") if k in blas}
    except (TypeError, KeyError):
        blas = None
    commit = None
    try:
        # only the repository rooted here; a checkout may sit inside another one
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == root.resolve():
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    src = root / "src" / "su2eth"
    sha = hashlib.sha256()
    lines = 0
    for path in sorted(src.glob("*.py")):
        data = path.read_bytes()
        sha.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "pinned_env_inherited": {v: inherited.get(v) for v in PINNED_VARS},
        "pinned_env_effective": {v: os.environ.get(v) for v in PINNED_VARS},
        "git_commit": commit,
        "src_sha256": sha.hexdigest()[:16],
        "src_su2eth_lines": lines,
        "platform": platform.platform(),
        "executable": sys.executable,
    }
