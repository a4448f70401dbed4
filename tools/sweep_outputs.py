"""Write the outputs of every su2eth command into one tree for tools/compare_outputs.py.

    python tools/sweep_outputs.py <out> --L 8 --L 10 [--cache DIR] [--workers N]

For each coupling, lambda = 3 and 0, it runs under <out>/lam<lambda>/:

- spectrum/        the spectrum command, which fills the cache;
- diag-eth/        diag-eth, S = 0, 1, 2 and A, B, C, default exclude_k;
- diag-eth-all-k/  the same with exclude_k = [], so k = 0 and pi are admitted;
- offdiag-eth/     offdiag-eth, S = 0, 1, 2 and the pair (0, 2), B and C;
- oracle-check/    oracle-check.

The cache defaults to <out>/cache. Sweep two builds into two directories
and compare them with

    python tools/compare_outputs.py <reference out> <candidate out>

Exits 0 when every run succeeds and oracle-check passes at every coupling,
1 naming each failure otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# one sector per worker process: keep each BLAS pool single-threaded, as the CLI does
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from su2eth.pipeline import (RunConfig, run_diag_eth, run_offdiag_eth,  # noqa: E402
                             run_oracle_check, run_spectrum)

COUPLINGS = (3.0, 0.0)

# (output subdirectory, command, the fields it sets beyond sizes, coupling and paths)
RUNS = (
    ("spectrum", run_spectrum, {}),
    ("diag-eth", run_diag_eth, {"spins": [0, 1, 2], "observables": ["A", "B", "C"]}),
    ("diag-eth-all-k", run_diag_eth,
     {"spins": [0, 1, 2], "observables": ["A", "B", "C"], "exclude_k": []}),
    ("offdiag-eth", run_offdiag_eth,
     {"spins": [0, 1, 2], "spin_pairs": [[0, 2]], "observables": ["B", "C"]}),
    ("oracle-check", run_oracle_check, {}),
)


def sweep(out: Path, sizes, cache: Path, workers: int = 1) -> list[str]:
    """Run every command of RUNS at both couplings into out; the failures, one line each."""
    failures = []
    for lam in COUPLINGS:
        for name, command, fields in RUNS:
            where = out / f"lam{lam:g}" / name
            config = RunConfig(L_list=sizes, lam=lam, cache_dir=str(cache), out_dir=str(where),
                               workers=workers, **fields)
            result = command(config)
            if result.get("failures"):
                failures.append(f"{where}: {len(result['failures'])} failures, "
                                f"the first {result['failures'][0]}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--L", dest="sizes", type=int, action="append", required=True,
                        help="System size (repeatable).")
    parser.add_argument("--cache", type=Path, default=None,
                        help="Eigendata cache root (default <out>/cache).")
    parser.add_argument("--workers", type=int, default=1, help="Sector worker processes.")
    args = parser.parse_args(argv)
    failures = sweep(args.out, args.sizes, args.cache or args.out / "cache", args.workers)
    for line in failures:
        print(line)
    if not failures:
        print(f"{len(COUPLINGS) * len(RUNS)} runs written under {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
