"""Block diagonalization, total-spin resolution, matrix-element tables.

Every symmetry block is small enough at desk scale (<= ~3000 states) for a
full dense eigensolve. Total spin is assigned per eigenstate by evaluating
S^2; inside degenerate energy clusters the eigenvectors are first rotated
to diagonalize the projected S^2 so each output vector carries a sharp spin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .basis import SectorLabel
from .operators import BlockOperator

__all__ = [
    "RECORD_DTYPE",
    "SpinResolvedSpectrum",
    "MatrixElementTable",
    "diagonalize_block",
    "expectations",
    "resolve_spins",
    "matrix_elements",
    "diagonalization_count",
    "reset_diagonalization_count",
]

# one record per bra/ket pair; value is <alpha| O |beta>
RECORD_DTYPE = np.dtype([
    ("alpha", np.int32),
    ("beta", np.int32),
    ("e_a", np.float64),
    ("e_b", np.float64),
    ("s_a", np.int16),
    ("s_b", np.int16),
    ("value", np.complex128),
])

_diagonalizations = 0


def diagonalization_count() -> int:
    """Number of dense eigensolves since the last reset (cache audit hook)."""
    return _diagonalizations


def reset_diagonalization_count() -> None:
    global _diagonalizations
    _diagonalizations = 0


def diagonalize_block(block: BlockOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of one Hermitian block.

    Rejects non-Hermitian input and audits the reconstruction residual
    max|H v - E v| < 1e-9 * max|E|.
    """
    global _diagonalizations
    dim = block.dim
    if dim == 0:
        return np.empty(0), np.empty((0, 0), dtype=np.complex128)
    m = block.dense()
    scale = max(1.0, float(np.abs(m).max()))
    defect = float(np.abs(m - m.conj().T).max())
    if defect > 1e-12 * scale:
        raise ValueError(f"block {block.label} in {block.sector} is not Hermitian (defect {defect:.3e})")
    _diagonalizations += 1
    energies, vectors = sla.eigh(m)
    residual = float(np.abs(m @ vectors - vectors * energies).max())
    if residual > 1e-9 * max(1.0, float(np.abs(energies).max())):
        raise RuntimeError(f"eigensolver residual {residual:.3e} too large for {block.sector}")
    return energies, vectors


@dataclass(frozen=True)
class SpinResolvedSpectrum:
    """Eigenpairs of one block with an integer total-spin label per state."""

    sector: SectorLabel
    energies: np.ndarray
    vectors: np.ndarray
    spins: np.ndarray
    spin_residuals: np.ndarray

    def __post_init__(self):
        for arr in (self.energies, self.vectors, self.spins, self.spin_residuals):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        return len(self.energies)

    def spin_dims(self) -> dict[int, int]:
        """Number of eigenstates per spin value inside this block."""
        values, counts = np.unique(self.spins, return_counts=True)
        return {int(s): int(c) for s, c in zip(values, counts)}


def resolve_spins(
    energies: np.ndarray,
    vectors: np.ndarray,
    s2: BlockOperator,
    degeneracy_tol: float | None = None,
) -> SpinResolvedSpectrum:
    """Assign an integer total spin to every eigenstate.

    Within each energy cluster (consecutive gaps below degeneracy_tol,
    default 1e-9 times the spectral width) the projected S^2 is
    diagonalized and the cluster vectors rotated accordingly, so degenerate
    states come out with sharp spin. Spins follow from rounding the
    solution of s(s+1) = <S^2>; any residual above 1e-6 is a hard error
    since it signals a basis or tolerance bug, not statistics.
    """
    energies = np.asarray(energies, dtype=np.float64)
    dim = len(energies)
    if dim == 0:
        empty = np.empty(0)
        return SpinResolvedSpectrum(s2.sector, energies.copy(), np.asarray(vectors).copy(),
                                    empty.astype(np.int16), empty.copy())
    if s2.dim != dim:
        raise ValueError("S^2 block does not match the eigenbasis dimension")
    vectors = np.array(vectors, dtype=np.complex128, copy=True)
    spread = float(energies[-1] - energies[0]) if dim > 1 else 0.0
    tol = degeneracy_tol if degeneracy_tol is not None else 1e-9 * max(spread, 1.0)

    s2v = s2.matrix @ vectors
    boundaries = np.flatnonzero(np.diff(energies) > tol)
    starts = np.concatenate(([0], boundaries + 1))
    stops = np.concatenate((boundaries + 1, [dim]))
    for lo, hi in zip(starts, stops):
        if hi - lo < 2:
            continue
        sub = vectors[:, lo:hi].conj().T @ s2v[:, lo:hi]
        sub = 0.5 * (sub + sub.conj().T)
        _, rot = np.linalg.eigh(sub)
        vectors[:, lo:hi] = vectors[:, lo:hi] @ rot
        s2v[:, lo:hi] = s2v[:, lo:hi] @ rot

    expectation = np.einsum("ij,ij->j", vectors.conj(), s2v).real
    spins = np.rint((-1.0 + np.sqrt(1.0 + 4.0 * np.maximum(expectation, 0.0))) / 2.0).astype(np.int16)
    residuals = np.abs(expectation - spins * (spins + 1.0))
    worst = int(np.argmax(residuals)) if dim else 0
    if dim and residuals[worst] > 1e-6:
        raise RuntimeError(
            f"spin resolution failed in {s2.sector}: state {worst} has "
            f"<S^2> = {expectation[worst]:.9f} (residual {residuals[worst]:.3e})"
        )
    return SpinResolvedSpectrum(s2.sector, energies.copy(), vectors, spins, residuals)


@dataclass(frozen=True)
class MatrixElementTable:
    """Matrix elements of one observable between spin-resolved eigenstates.

    records is a RECORD_DTYPE structured array; alpha/beta are state indices
    within the block spectrum.
    """

    observable: str
    sector: SectorLabel
    records: np.ndarray

    def __post_init__(self):
        self.records.setflags(write=False)


def expectations(op: BlockOperator, vectors: np.ndarray) -> np.ndarray:
    """<v|op|v> for every eigenvector column v: the diagonal elements of op."""
    return np.einsum("ij,ij->j", vectors.conj(), op.matrix @ vectors).real


def matrix_elements(
    obs: BlockOperator,
    spectrum: SpinResolvedSpectrum,
    spin_filter: tuple[int, int] | None = None,
    part: str = "all",
) -> MatrixElementTable:
    """<alpha| O |beta> for eigenstates of one block.

    spin_filter (S_a, S_b) restricts bra and ket spins before the matrix
    products, which is what keeps large sweeps cheap. part selects 'all'
    or 'offdiagonal' (alpha != beta) pairs; diagonal elements come from
    expectations().
    """
    if obs.sector != spectrum.sector:
        raise ValueError("observable block does not match the spectrum")
    if part not in ("all", "offdiagonal"):
        raise ValueError(f"unknown part {part!r}")

    if spin_filter is None:
        rows = cols = np.arange(spectrum.dim)
    else:
        s_a, s_b = spin_filter
        rows = np.flatnonzero(spectrum.spins == s_a)
        cols = np.flatnonzero(spectrum.spins == s_b)

    block = spectrum.vectors[:, rows].conj().T @ (obs.matrix @ spectrum.vectors[:, cols])
    alpha = np.repeat(rows, len(cols))
    beta = np.tile(cols, len(rows))
    values = block.reshape(-1)
    if part == "offdiagonal":
        keep = alpha != beta
        alpha, beta, values = alpha[keep], beta[keep], values[keep]
    records = np.empty(len(alpha), dtype=RECORD_DTYPE)
    records["alpha"] = alpha
    records["beta"] = beta
    records["e_a"] = spectrum.energies[alpha]
    records["e_b"] = spectrum.energies[beta]
    records["s_a"] = spectrum.spins[alpha]
    records["s_b"] = spectrum.spins[beta]
    records["value"] = values
    return MatrixElementTable(obs.label, obs.sector, records)
