"""Symmetry-resolved exact diagonalization and eigenstate-statistics toolkit
for the extended spin-1/2 Heisenberg chain.

The package imports none of its submodules, so the command-line entry point
can pin BLAS thread counts before the numerical stack comes up.
"""

__version__ = "0.1.0"
