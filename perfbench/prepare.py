"""One set-up of a benchmark run, in a fresh interpreter so its cost is a user's.

    python3 perfbench/prepare.py <src dir>                         # imports only
    python3 perfbench/prepare.py <src dir> <cache dir> <out dir>   # plus cache fill

The caller times the whole process and pins the BLAS thread counts in the
environment it passes down.
"""

import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from su2eth import (analysis, basis, cache, operators, oracle,  # noqa: E402,F401
                    pipeline, spectral, tensors)

import workloads  # noqa: E402

if len(sys.argv) == 4:
    if workloads.fill_cache(pipeline, Path(sys.argv[2]), Path(sys.argv[3])):
        sys.exit("cache fill failed for some sectors")
