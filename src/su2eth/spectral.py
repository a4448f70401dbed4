"""Block diagonalization, total-spin resolution, matrix-element tables.

Every symmetry block is real symmetric (see ``operators``) and small enough
at desk scale (<= ~3000 states) for a full dense eigensolve: numpy.linalg.eigh
on the lower triangle, which runs LAPACK's divide-and-conquer driver ?syevd
on numpy's OpenBLAS. scipy's own LAPACK module is never imported, so no
process loads a second BLAS. Eigenvectors, expectation values and matrix
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

from .basis import SectorLabel
from .operators import LADDERS, BlockOperator

__all__ = [
    "EIGH_DRIVER",
    "RECORD_DTYPE",
    "SpinResolvedSpectrum",
    "MatrixElementTable",
    "band_positions",
    "diagonalize_block",
    "eigen_residual",
    "energy_band",
    "expectations",
    "operator_image",
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

# the LAPACK driver numpy.linalg.eigh runs (?syevd); part of the cache fingerprint
EIGH_DRIVER = "evd"

# rows per energy_band rectangle: taller rectangles carry more pairs outside the
# window, shorter ones more GEMM calls. At L = 16 the element tables took
# 0.19-0.21 s at 8 or 16 rows against 0.21 s at 64 and 0.22-0.23 s at 128
_BAND_ROWS = 16


def eigen_residual(block: BlockOperator, energies: np.ndarray, vectors: np.ndarray) -> float:
    """max|H v - v E| over every eigenpair, through the sparse block matrix."""
    return float(np.abs(block.matrix @ vectors - vectors * energies).max(initial=0.0))


def diagonalize_block(block: BlockOperator) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of one real symmetric block.

    Rejects non-symmetric or non-finite input before the eigensolve, and
    audits the reconstruction residual
    eigen_residual < 1e-9 * max(1, max|E|).
    """
    dim = block.dim
    if dim == 0:
        return np.empty(0), np.empty((0, 0))
    m = block.dense()
    scale = float(np.abs(m).max())  # NaN or inf if any entry is
    defect = float(np.abs(m - m.T).max()) if scale < np.inf else np.nan
    if not defect <= 1e-12 * max(1.0, scale):
        raise ValueError(f"block {block.label} in {block.sector} is not Hermitian (symmetric defect {defect:.3e})")
    energies, vectors = np.linalg.eigh(m)
    residual = eigen_residual(block, energies, vectors)
    if not residual <= 1e-9 * max(1.0, float(np.abs(energies).max())):
        raise RuntimeError(f"eigensolver residual {residual:.3e} too large for {block.sector}")
    return energies, vectors


@dataclass(frozen=True)
class SpinResolvedSpectrum:
    """Eigenpairs of one block with an integer total-spin label per state.

    diagonals holds each state's <A> and <C>, keyed by "A" and "C", once
    they are computed or read; vectors is None for a spectrum read without
    them (see cache.load_head).
    """

    sector: SectorLabel
    energies: np.ndarray
    vectors: np.ndarray | None
    spins: np.ndarray
    diagonals: dict[str, np.ndarray] | None = None

    def __post_init__(self):
        for arr in (self.energies, self.vectors, self.spins, *(self.diagonals or {}).values()):
            if arr is not None:
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

    rows and cols are the state indices within spectrum of the pair's bra
    and ket spins. Without a band, block is the 2-D array of
    <rows[i]| O |cols[j]>. With one, a tuple of (r0, r1, c0, c1) rectangles
    of positions in rows and cols whose row ranges ascend without overlap
    (see energy_band), block is 1-D: each rectangle's elements in row-major
    order, one rectangle after the next, so the table's elements are in
    row-major order either way. records, a read-only RECORD_DTYPE array of
    every element in that order, alpha == beta included, is laid out from
    them at first read and kept.
    """

    def __init__(self, block: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 spectrum: SpinResolvedSpectrum, band: tuple | None = None):
        self.block, self.rows, self.cols, self.spectrum, self.band = block, rows, cols, spectrum, band
        self._records = None
        block.setflags(write=False)

    @property
    def records(self) -> np.ndarray:
        if self._records is None:
            whole = ((0, len(self.rows), 0, len(self.cols)),)
            i, j = band_positions(whole if self.band is None else self.band)
            alpha, beta = self.rows[i], self.cols[j]
            e, s = self.spectrum.energies, self.spectrum.spins
            self._records = np.empty(len(alpha), dtype=RECORD_DTYPE)
            for name, column in zip(RECORD_DTYPE.names, (alpha, beta, e[alpha], e[beta], s[alpha],
                                                         s[beta], self.block.reshape(-1))):
                self._records[name] = column
            self._records.setflags(write=False)
        return self._records


def band_positions(band) -> tuple[np.ndarray, np.ndarray]:
    """(i, j), the row and column positions of each element of band's rectangles, in the
    order of a band table's block (see MatrixElementTable)."""
    i = [np.repeat(np.arange(r0, r1), c1 - c0) for r0, r1, c0, c1 in band]
    j = [np.tile(np.arange(c0, c1), r1 - r0) for r0, r1, c0, c1 in band]
    empty = [np.empty(0, dtype=np.intp)]
    return np.concatenate(i or empty), np.concatenate(j or empty)


def operator_image(obs: BlockOperator | np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """obs times vectors, C-ordered.

    obs is a block, or a diagonal block given by its diagonal as a 1-D array
    (see operators.c_diagonal), whose image is formed by broadcasting. That
    image equals the sparse diagonal block's product bit for bit: + 0.0 turns
    an entry's -0.0 into the 0.0 the sparse sum starts from, and order="C"
    gives the layout the sparse product gives, which sets the order of a
    GEMM's sums over it.
    """
    if isinstance(obs, BlockOperator):
        return obs.matrix @ vectors
    image = np.multiply(obs[:, None], vectors, order="C")
    image += 0.0
    return image


def expectations(op: BlockOperator | np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """<v|op|v> for every eigenvector column v: the diagonal elements of op (see operator_image)."""
    return np.einsum("ij,ij->j", vectors, operator_image(op, vectors))


def energy_band(e_rows: np.ndarray, e_cols: np.ndarray, lo: float,
                hi: float) -> tuple[tuple[int, int, int, int], ...]:
    """(r0, r1, c0, c1) rectangles that cover every (i, j) with lo <= e_rows[i] + e_cols[j] <= hi.

    Both energy lists ascend, so row i's columns in range form one
    contiguous run, which moves left as i grows: an anti-diagonal band.
    Rows come in chunks of up to _BAND_ROWS rows, each with the run that covers
    every one of its rows; chunks whose rows have no column in range are
    left out. The rectangles can hold pairs outside [lo, hi] (a caller
    applies its exact condition), never miss one inside.
    """
    starts = np.searchsorted(e_cols, lo - e_rows, side="left")
    stops = np.searchsorted(e_cols, hi - e_rows, side="right")
    band = []
    for r0 in range(0, len(e_rows), _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, len(e_rows))
        c0, c1 = int(starts[r0:r1].min()), int(stops[r0:r1].max())
        if c0 < c1:
            band.append((r0, r1, c0, c1))
    return tuple(band)


def matrix_elements(obs: BlockOperator | np.ndarray, spectrum: SpinResolvedSpectrum,
                    spin_pair: tuple[int, int], image: np.ndarray | None = None,
                    band: tuple | None = None) -> MatrixElementTable:
    """<alpha| O |beta> for bra spin S_a and ket spin S_b of one block.

    spin_pair (S_a, S_b) restricts bra and ket states before the matrix
    products, which is what keeps large sweeps cheap. obs is a block or a
    diagonal block's diagonal (see operator_image). image, when given, is
    operator_image(obs, V_b) for the ket spin's vectors V_b, which every pair
    with that ket spin can share. Without a band the table is the whole 2-D
    block; with one (see energy_band and MatrixElementTable) it holds the
    band's elements only, each rectangle formed by its own GEMM, whose sums
    can round differently from the whole block's in the last bits.
    Diagonal elements come from expectations().
    """
    if isinstance(obs, BlockOperator) and obs.sector != spectrum.sector:
        raise ValueError("observable block does not match the spectrum")
    rows, cols = (np.flatnonzero(spectrum.spins == s) for s in spin_pair)
    if image is None:
        image = operator_image(obs, spectrum.vectors[:, cols])
    bra = spectrum.vectors[:, rows].T
    if band is None:
        return MatrixElementTable(bra @ image, rows, cols, spectrum)
    block = np.empty(sum((r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in band))
    start = 0
    for r0, r1, c0, c1 in band:
        stop = start + (r1 - r0) * (c1 - c0)
        np.matmul(bra[r0:r1], image[:, c0:c1], out=block[start:stop].reshape(r1 - r0, c1 - c0))
        start = stop
    return MatrixElementTable(block, rows, cols, spectrum, band)
