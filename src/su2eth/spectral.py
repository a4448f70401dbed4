"""Block diagonalization, total-spin resolution, matrix-element tables.

Every symmetry block is real symmetric (see ``operators``) and small enough
at desk scale (<= ~3000 states) for a full dense eigensolve with LAPACK's
divide-and-conquer driver. Eigenvectors, expectation values and matrix
elements are all float64.

Total spin is assigned per eigenstate from W = S^+- V, the eigenvectors'
image under the spin ladder block (see ``operators.build_spin_ladder``):
<S^2> = |w|^2 + M(M +- 1), so no S^2 block is assembled to solve a sector.
Inside degenerate energy clusters the eigenvectors are first rotated to
diagonalize the cluster's W^T W, so each output vector carries a sharp
spin. The ladder is the only way spins are labelled; S^2 stays the
independent check of those labels, through expectations(S^2, V), which
``oracle-check`` audits. Every guard fails unless its value is finite and
within its bound, so NaN passes none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .basis import SectorLabel
from .operators import LADDERS, BlockOperator

__all__ = [
    "EIGH_DRIVER",
    "RECORD_DTYPE",
    "SpinResolvedSpectrum",
    "MatrixElementTable",
    "diagonalize_block",
    "eigen_residual",
    "expectations",
    "resolve_spins",
    "matrix_elements",
]

# one record per bra/ket pair; value is <alpha| O |beta>
RECORD_DTYPE = np.dtype([
    ("alpha", np.int32),
    ("beta", np.int32),
    ("e_a", np.float64),
    ("e_b", np.float64),
    ("s_a", np.int16),
    ("s_b", np.int16),
    ("value", np.float64),
])

# the LAPACK driver of every eigensolve; part of the cache fingerprint
EIGH_DRIVER = "evd"


def eigen_residual(block: BlockOperator, energies: np.ndarray, vectors: np.ndarray) -> float:
    """max|H v - v E| over every eigenpair, through the sparse block matrix."""
    return float(np.abs(block.matrix @ vectors - vectors * energies).max(initial=0.0))


def diagonalize_block(block: BlockOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of one real symmetric block.

    Rejects non-symmetric input and audits the reconstruction residual
    eigen_residual < 1e-9 * max(1, max|E|).
    """
    dim = block.dim
    if dim == 0:
        return np.empty(0), np.empty((0, 0))
    m = block.dense()
    scale = max(1.0, float(np.abs(m).max()))
    defect = float(np.abs(m - m.T).max())
    if not defect <= 1e-12 * scale:
        raise ValueError(f"block {block.label} in {block.sector} is not Hermitian (symmetric defect {defect:.3e})")
    energies, vectors = sla.eigh(m, driver=EIGH_DRIVER)
    residual = eigen_residual(block, energies, vectors)
    if not residual <= 1e-9 * max(1.0, float(np.abs(energies).max())):
        raise RuntimeError(f"eigensolver residual {residual:.3e} too large for {block.sector}")
    return energies, vectors


@dataclass(frozen=True)
class SpinResolvedSpectrum:
    """Eigenpairs of one block with an integer total-spin label per state."""

    sector: SectorLabel
    energies: np.ndarray
    vectors: np.ndarray
    spins: np.ndarray

    def __post_init__(self):
        for arr in (self.energies, self.vectors, self.spins):
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
    ladder: BlockOperator,
) -> SpinResolvedSpectrum:
    """Assign an integer total spin to every eigenstate from the sector's S^+ or S^- block.

    With W = S^+- V, <S^2> = |w|^2 + M(M +- 1) per state. Within each
    energy cluster (consecutive gaps below 1e-9 times the spectral width,
    or 1e-9 for a width below 1) the cluster's W^T W is diagonalized and
    the cluster vectors rotated accordingly, so degenerate states come out
    with sharp spin. W is formed whole, in one sparse product. Spins follow
    from rounding the solution of s(s+1) = <S^2>; a residual that is not
    finite or is above 1e-6 is a hard error since it signals a basis or
    tolerance bug, not statistics.
    So is, at M = 0, a spin whose flip parity (-1)^(S + L/2) is not the
    sector's z.
    Raises ValueError for a block that is not a ladder (label in LADDERS).
    """
    if ladder.label not in LADDERS:
        raise ValueError(f"spins are resolved from an S+ or S- ladder block, got {ladder.label}")
    energies = np.asarray(energies, dtype=np.float64)
    dim = len(energies)
    if ladder.dim != dim:
        raise ValueError(f"{ladder.label} block does not match the eigenbasis dimension")
    vectors = np.array(vectors, dtype=np.float64, copy=True)
    spread = float(energies[-1] - energies[0]) if dim > 1 else 0.0
    tol = 1e-9 * max(spread, 1.0)

    boundaries = np.flatnonzero(np.diff(energies) > tol)
    starts = np.concatenate(([0], boundaries + 1))
    stops = np.concatenate((boundaries + 1, [dim]))
    image = ladder.matrix @ vectors
    for a, b in zip(starts, stops):
        if b - a > 1:
            w = image[:, a:b]
            sub = w.T @ w
            _, rot = np.linalg.eigh(0.5 * (sub + sub.T))
            vectors[:, a:b] = vectors[:, a:b] @ rot
            image[:, a:b] = w @ rot

    M = ladder.sector.M
    expectation = np.einsum("ij,ij->j", image, image) + M * (M + LADDERS[ladder.label])
    spins = np.rint((-1.0 + np.sqrt(1.0 + 4.0 * np.maximum(expectation, 0.0))) / 2.0)
    residuals = np.abs(expectation - spins * (spins + 1.0))
    if not residuals.max(initial=0.0) <= 1e-6:  # NaN if there is one
        worst = int(np.argmax(residuals))  # the first NaN, or the largest residual
        raise RuntimeError(
            f"spin resolution failed in {ladder.sector}: state {worst} has "
            f"<S^2> = {expectation[worst]:.9f} (residual {residuals[worst]:.3e})"
        )
    # at M = 0 the spin flip acts on a spin-S state as (-1)^(S + L/2), so this catches a
    # label off by an odd number, which the residual cannot see
    z = ladder.sector.z2_parity
    odd = np.flatnonzero((spins + ladder.sector.L // 2) % 2 != (z == -1))
    if z is not None and odd.size:
        raise RuntimeError(f"spin resolution failed in {ladder.sector}: state {odd[0]} has "
                           f"S = {spins[odd[0]]:.0f}, but (-1)^(S + L/2) is not z = {z}")
    return SpinResolvedSpectrum(ladder.sector, energies.copy(), vectors, spins.astype(np.int16))


class MatrixElementTable:
    """Matrix elements of one observable between the eigenstates of one spin pair.

    block is the 2-D array of <rows[i]| O |cols[j]>, with rows and cols the
    state indices within spectrum of the pair's bra and ket spins. records,
    a read-only RECORD_DTYPE array of every (row, col) in row-major order,
    alpha == beta included, is laid out from them at first read and kept.
    """

    def __init__(self, block: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 spectrum: SpinResolvedSpectrum):
        self.block, self.rows, self.cols, self.spectrum = block, rows, cols, spectrum
        self._records = None
        block.setflags(write=False)

    @property
    def records(self) -> np.ndarray:
        if self._records is None:
            alpha, beta = np.repeat(self.rows, len(self.cols)), np.tile(self.cols, len(self.rows))
            e, s = self.spectrum.energies, self.spectrum.spins
            self._records = np.empty(len(alpha), dtype=RECORD_DTYPE)
            for name, column in zip(RECORD_DTYPE.names, (alpha, beta, e[alpha], e[beta], s[alpha],
                                                         s[beta], self.block.reshape(-1))):
                self._records[name] = column
            self._records.setflags(write=False)
        return self._records


def expectations(op: BlockOperator, vectors: np.ndarray) -> np.ndarray:
    """<v|op|v> for every eigenvector column v: the diagonal elements of op."""
    return np.einsum("ij,ij->j", vectors, op.matrix @ vectors)


def matrix_elements(obs: BlockOperator, spectrum: SpinResolvedSpectrum,
                    spin_pair: tuple[int, int]) -> MatrixElementTable:
    """<alpha| O |beta> for bra spin S_a and ket spin S_b of one block, as one 2-D block.

    spin_pair (S_a, S_b) restricts bra and ket states before the matrix
    products, which is what keeps large sweeps cheap. Diagonal elements
    come from expectations().
    """
    if obs.sector != spectrum.sector:
        raise ValueError("observable block does not match the spectrum")
    rows, cols = (np.flatnonzero(spectrum.spins == s) for s in spin_pair)
    block = spectrum.vectors[:, rows].T @ (obs.matrix @ spectrum.vectors[:, cols])
    return MatrixElementTable(block, rows, cols, spectrum)
