"""The benchmark's workloads: which pipeline commands one iteration runs, with what.

Inputs mirror the acceptance fixtures: L = 10..16 at the chaotic (3.0) and
integrable (0.0) couplings. Nothing here is random.
"""

from __future__ import annotations

import os
from pathlib import Path

SIZES = (10, 12, 14, 16)
COUPLINGS = (3.0, 0.0)
# BENCHMARK.json gates cold-pool and warm-analysis; cold-serial is run by hand
WORKLOADS = ("cold-serial", "cold-pool", "warm-analysis")
COLD = ("cold-serial", "cold-pool")
# time inside each pipeline command, summed over both couplings
COMMAND_METRICS = ("spectrum_s", "diag_eth_s", "offdiag_eth_s")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spectrum_workers(workload: str) -> int:
    return nproc() if workload == "cold-pool" else 1


def _config(pipeline, lam: float, cache_dir: Path, out_dir: Path, **kw):
    return pipeline.RunConfig(L_list=SIZES, lam=lam, cache_dir=str(cache_dir),
                              out_dir=str(out_dir), **kw)


def commands(pipeline, workload: str, cache_dir: Path, out_dir: Path):
    """(command, function, RunConfig) in the order one iteration runs them."""
    plan = []
    for lam in COUPLINGS:
        base = out_dir / f"lam{lam:g}"
        plan.append(("spectrum", pipeline.run_spectrum,
                     _config(pipeline, lam, cache_dir, base / "spectrum",
                             workers=spectrum_workers(workload))))
        if workload == "warm-analysis":
            plan.append(("diag_eth", pipeline.run_diag_eth,
                         _config(pipeline, lam, cache_dir, base / "diag",
                                 spins=(0, 1, 2), observables=("A", "B", "C"))))
            plan.append(("offdiag_eth", pipeline.run_offdiag_eth,
                         _config(pipeline, lam, cache_dir, base / "offdiag",
                                 spins=(0, 1, 2), spin_pairs=((0, 2),),
                                 observables=("B", "C"))))
    return plan


def fill_cache(pipeline, cache_dir: Path, out_dir: Path) -> int:
    """Build every sector of both couplings into cache_dir; returns failed sectors."""
    failed = 0
    for lam in COUPLINGS:
        summary = pipeline.run_spectrum(_config(pipeline, lam, cache_dir,
                                                out_dir / f"lam{lam:g}", workers=nproc()))
        failed += len(summary["failures"])
    return failed
