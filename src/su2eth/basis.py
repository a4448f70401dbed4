"""Symmetry-adapted basis for the periodic spin-1/2 chain.

Product states are L-bit integers with bit i set meaning spin up on site i.
One translation step moves site i to site i+1, i.e. rotates the bit word
left; the global spin flip complements all L bits. Sectors are labeled by
magnetization M, quasimomentum index n (k = 2*pi*n/L), at M = 0 the
spin-flip parity z = +/-1 and, at k = 0 and pi, optionally the bond
reflection parity p = +/-1.

For every product state of the magnetization sector we tabulate once the
canonical representative of its symmetry orbit together with the group
element (t, x) mapping the state onto that representative,
T^t X^x |state> = |rep>. These shared tables are what the operator layer
consumes to assemble block matrices.

Each sector's coordinates are not the orbit states |r> themselves but a
basis invariant under PK, the bond reflection P (bit reversal) composed
with complex conjugation K of product amplitudes. PK keeps k, z and M and
maps |r> to c_r |r'>, with r' the orbit of P(r) and c_r a phase. Every
operator that is real in the product basis and reflection-invariant is
therefore real symmetric in this basis.

At k = 0 and pi the orbit states are real, so PK acts there as P itself,
and every PK column is a P eigenvector: a self-partnered column has parity
c_r, a pair's first column +1 and its second -1. A label with parity p
spans the parity-p columns of its (k, z) sector; one with parity None
spans them all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "MIN_SITES",
    "MAX_SITES",
    "SectorLabel",
    "SymmetryBasis",
    "normalized_k",
    "translate_bits",
    "flip_bits",
    "reflect_bits",
    "magnetization_states",
    "sector_labels",
    "parity_halves",
    "enumerate_sector_basis",
    "with_parity",
    "expand_to_product_basis",
    "expansion_matrix",
]

MIN_SITES = 4
MAX_SITES = 18


def translate_bits(states, L: int):
    """One translation step: site i -> i+1 (left rotation of the bit word)."""
    mask = (1 << L) - 1
    if isinstance(states, (int, np.integer)):
        s = int(states)
        return ((s << 1) | (s >> (L - 1))) & mask
    states = np.asarray(states, dtype=np.int64)
    return ((states << 1) | (states >> (L - 1))) & mask


def flip_bits(states, L: int):
    """Global spin flip: complement all L bits."""
    mask = (1 << L) - 1
    if isinstance(states, (int, np.integer)):
        return int(states) ^ mask
    return np.asarray(states, dtype=np.int64) ^ mask


def reflect_bits(states, L: int):
    """Bond reflection P: site i -> L-1-i (bit reversal of the L-bit word)."""
    states = np.asarray(states, dtype=np.int64)
    out = np.zeros_like(states)
    for i in range(L):
        out |= ((states >> i) & 1) << (L - 1 - i)
    return out


@lru_cache(maxsize=None)
def magnetization_states(L: int, n_up: int) -> np.ndarray:
    """All L-bit states with n_up set bits, ascending. Cached and read-only."""
    if not 0 <= n_up <= L:
        return np.empty(0, dtype=np.int64)
    # popcounts of 0 .. 2^L - 1: the upper half of each doubling is the lower one plus a bit
    counts = np.zeros(1, dtype=np.int8)
    for _ in range(L):
        counts = np.concatenate((counts, counts + 1))
    out = np.flatnonzero(counts == n_up).astype(np.int64, copy=False)
    out.setflags(write=False)
    return out


def normalized_k(n: int, L: int) -> int:
    """The momentum index n modulo L, in the window (-L/2, L/2]."""
    n %= L
    return n - L if n > L // 2 else n


@dataclass(frozen=True)
class SectorLabel:
    """One simultaneous {M, k, Z2, P} symmetry sector of an L-site ring.

    k_index is the integer n in k = 2*pi*n/L, normalized into the window
    (-L/2, L/2]. z2_parity must be +1 or -1 when M = 0 (where the flip is
    a symmetry) and None otherwise. parity, the bond reflection eigenvalue
    +1 or -1, may be set only at k = 0 and pi (where reflection keeps k);
    None means the whole (k, z) sector.
    """

    L: int
    M: int
    k_index: int
    z2_parity: int | None = None
    parity: int | None = None

    def __post_init__(self):
        if self.L % 2 or not MIN_SITES <= self.L <= MAX_SITES:
            raise ValueError(f"L must be even with {MIN_SITES} <= L <= {MAX_SITES}, got {self.L}")
        if abs(self.M) > self.L // 2:
            raise ValueError(f"|M| <= L/2 required, got M={self.M} at L={self.L}")
        object.__setattr__(self, "k_index", normalized_k(self.k_index, self.L))
        if self.M == 0:
            if self.z2_parity not in (1, -1):
                raise ValueError("M = 0 sectors carry z2_parity of +1 or -1")
        elif self.z2_parity is not None:
            raise ValueError("z2_parity is only defined at M = 0")
        if self.parity is not None and (self.parity not in (1, -1) or not self.reflective):
            raise ValueError(f"parity must be +1 or -1 at k = 0 or pi, got {self.parity} "
                             f"at k_index {self.k_index}")

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.k_index / self.L

    @property
    def reflective(self) -> bool:
        """Whether bond reflection keeps the sector's momentum: k = 0 or pi."""
        return self.k_index in (0, self.L // 2)


def sector_labels(L: int, M: int = 0) -> list[SectorLabel]:
    """All sector labels of an (L, M) magnetization block, deterministic order.

    At k = 0 and pi each (k, z) sector comes as its two parity halves,
    p = +1 first.
    """
    return [half for n in range(-L // 2 + 1, L // 2 + 1)
            for z in ((1, -1) if M == 0 else (None,))
            for half in parity_halves(SectorLabel(L, M, n, z))]


def parity_halves(sector: SectorLabel) -> list[SectorLabel]:
    """The labels of a whole (k, z) sector: its two parity halves at k = 0 and pi, else itself."""
    return [replace(sector, parity=p) for p in (1, -1)] if sector.reflective else [sector]


@dataclass(frozen=True)
class _SectorTables:
    """Shared per-(L, M) canonicalization tables; independent of k and z."""

    states: np.ndarray      # ascending product states of the magnetization sector
    canon: np.ndarray       # canonical representative of each state's orbit
    shift_t: np.ndarray     # t with T^t X^x |state> = |canon>
    shift_x: np.ndarray     # x in {0, 1}
    period: np.ndarray      # smallest t >= 1 with T^t |state> = |state>
    flip_shift: np.ndarray  # smallest g >= 0 with T^g X |state> = |state>, else -1
    rep_positions: np.ndarray  # indices where canon == state


@lru_cache(maxsize=64)
def _sector_tables(L: int, M: int) -> _SectorTables:
    states = magnetization_states(L, L // 2 + M)
    n = len(states)
    canon = states.copy()
    shift_t = np.zeros(n, dtype=np.int64)
    shift_x = np.zeros(n, dtype=np.int64)
    period = np.full(n, L, dtype=np.int64)
    flip_shift = np.full(n, -1, dtype=np.int64)

    cur = states
    for t in range(1, L):
        cur = translate_bits(cur, L)
        first = (cur == states) & (period == L)
        period[first] = t
        better = cur < canon
        canon[better] = cur[better]
        shift_t[better] = t

    if M == 0:
        cur = flip_bits(states, L)
        for t in range(L):
            if t:
                cur = translate_bits(cur, L)
            hit = (cur == states) & (flip_shift < 0)
            flip_shift[hit] = t
            better = cur < canon
            canon[better] = cur[better]
            shift_t[better] = t
            shift_x[better] = 1

    for arr in (states, canon, shift_t, shift_x, period, flip_shift):
        arr.setflags(write=False)
    return _SectorTables(states, canon, shift_t, shift_x, period, flip_shift,
                         np.flatnonzero(canon == states))


@dataclass(frozen=True)
class SymmetryBasis:
    """Orthonormal PK-invariant basis of one {M, k, Z2, P} sector.

    reps lists the admitted orbits of the (k, z) sector in ascending order;
    rep_index maps each product state of the magnetization sector (by its
    position in tables.states) to its orbit's row in reps, or -1 when that
    orbit has vanishing projection in this sector. The (k, z) sector's PK
    columns are the columns of a unitary U on the orbit states, at most two
    orbits per column: orbit a enters column pk_columns[a, m] with amplitude
    pk_coeffs[a, m] (m = 0, 1; a zero amplitude pads an orbit that enters
    one column). parities holds each of those columns' reflection parity,
    None away from k = 0 and pi. The basis spans the columns listed in
    columns: all of them, or a parity half's.
    """

    sector: SectorLabel
    reps: np.ndarray
    orbit_sizes: np.ndarray
    tables: _SectorTables
    rep_index: np.ndarray
    pk_columns: np.ndarray
    pk_coeffs: np.ndarray
    parities: np.ndarray | None

    @cached_property
    def columns(self) -> np.ndarray:
        """The (k, z) sector's PK columns this basis spans, ascending."""
        p = self.sector.parity
        out = np.arange(len(self.reps)) if p is None else np.flatnonzero(self.parities == p)
        out.setflags(write=False)
        return out

    @property
    def dim(self) -> int:
        return len(self.columns)


def enumerate_sector_basis(sector: SectorLabel) -> SymmetryBasis:
    """Build the basis of one sector: admitted orbits, orbit sizes, lookup tables.

    An orbit enters the k sector only when k is commensurate with its
    translation periodicity R, i.e. (n*R) % L == 0. At M = 0 an orbit that
    is mapped onto itself by the flip (partner shift g) exists only in the
    parity sector with z = exp(-i k g), which is +/-1 whenever the momentum
    condition holds; self-distinct orbit pairs appear in both parities with
    doubled orbit size.
    """
    L = sector.L
    tabs = _sector_tables(L, sector.M)
    pos = tabs.rep_positions
    R = tabs.period[pos]
    n = sector.k_index % L
    keep = (n * R) % L == 0
    if sector.M == 0:
        g = tabs.flip_shift[pos]
        paired = g >= 0
        phase_index = (n * np.where(paired, g, 0)) % L  # e^{-ikg} = z requirement
        wanted = 0 if sector.z2_parity == 1 else L // 2
        keep &= ~paired | (phase_index == wanted)
        sizes = np.where(paired, R, 2 * R)
    else:
        sizes = R

    kept = np.flatnonzero(keep)
    rep_rows = np.full(len(tabs.states), -1, dtype=np.int64)
    rep_rows[pos[kept]] = np.arange(len(kept))
    # propagate to every state through its canonical representative
    canon_pos = np.searchsorted(tabs.states, tabs.canon)
    rep_index = rep_rows[canon_pos]

    reps = tabs.states[pos[kept]]
    out = SymmetryBasis(sector, reps, sizes[kept], tabs, rep_index,
                        *_pk_basis(sector, reps, tabs, rep_index))
    for arr in (out.reps, out.orbit_sizes, out.rep_index, out.pk_columns, out.pk_coeffs,
                out.parities):
        if arr is not None:
            arr.setflags(write=False)
    return out


def with_parity(basis: SymmetryBasis, parity: int | None) -> SymmetryBasis:
    """The basis of the same (k, z) sector spanning one parity half, or all of it for None."""
    return replace(basis, sector=replace(basis.sector, parity=parity))


def _pk_basis(sector: SectorLabel, reps: np.ndarray, tabs: _SectorTables,
              rep_index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(pk_columns, pk_coeffs, parities) of the PK-invariant columns of one (k, z) sector.

    PK |r> = c_r |r'>, where r' is the orbit of s = P(r) and
    c_r = exp(-i k t_s) z^(x_s). A self-partnered orbit gives the column
    sqrt(c_r) |r>; a pair r < r' gives (|r> + c_r |r'>)/sqrt(2) and
    i (|r> - c_r |r'>)/sqrt(2), in that order. Columns follow the first
    orbit of each pair. The basis at -k is the conjugate of the one at +k,
    so both give the same real blocks bit for bit. At k = 0 and pi, where
    c_r = +-1 and PK = P, the columns have parities c_r, +1 and -1.
    """
    dim = len(reps)
    pos = np.searchsorted(tabs.states, reflect_bits(reps, sector.L))
    partner = rep_index[pos]
    angle = (-2.0 * math.pi * abs(sector.k_index) / sector.L) * tabs.shift_t[pos]
    if sector.z2_parity == -1:
        angle = angle + math.pi * tabs.shift_x[pos]
    rows = np.arange(dim)
    alone = partner == rows
    first = partner > rows
    width = np.where(alone, 1, np.where(first, 2, 0))
    start = (np.cumsum(width) - width)[np.minimum(rows, partner)]
    columns = np.stack((start, start + ~alone), axis=1)
    # the phase of each pair is its first orbit's c_r
    c = np.where(first, 1.0, np.exp(1j * angle[np.minimum(rows, partner)]))
    r2 = math.sqrt(0.5)
    coeffs = np.stack((np.where(alone, np.exp(0.5j * angle), r2 * c),
                       np.where(alone, 0.0, np.where(first, 1j, -1j) * r2 * c)), axis=1)
    parities = None
    if sector.reflective:
        parities = np.ones(dim, dtype=np.int64)
        parities[start[alone]] = np.rint(np.cos(angle[alone]))
        parities[start[first] + 1] = -1
    return columns, coeffs.conj() if sector.k_index < 0 else coeffs, parities


def expand_to_product_basis(basis: SymmetryBasis, column: int) -> dict[int, complex]:
    """Amplitudes of one normalized basis vector on its product states.

    The vector is sum_a U[a, column] |a> over its (at most two) orbits. The
    orbit state |a> has amplitude exp(-i k t) z^x / sqrt(N) on T^t X^x |rep>
    with N the orbit size; group elements hitting the same product state
    agree on this phase for every admitted orbit.
    """
    if not 0 <= column < basis.dim:
        raise IndexError(f"column {column} out of range (dim {basis.dim})")
    sector = basis.sector
    L = sector.L
    amplitudes: dict[int, complex] = {}
    hit = (basis.pk_columns == basis.columns[column]) & (basis.pk_coeffs != 0)
    for orbit, m in zip(*np.nonzero(hit)):
        weight = basis.pk_coeffs[orbit, m] / math.sqrt(basis.orbit_sizes[orbit])
        for x in ((0, 1) if sector.M == 0 else (0,)):
            s = flip_bits(int(basis.reps[orbit]), L) if x else int(basis.reps[orbit])
            zx = (sector.z2_parity if x else 1) or 1
            for t in range(L):
                if t:
                    s = translate_bits(s, L)
                amplitudes[s] = cmath.exp(-1j * sector.k * t) * zx * weight
    return amplitudes


def expansion_matrix(basis: SymmetryBasis) -> np.ndarray:
    """Dense (n_states, dim) map from sector coordinates to product amplitudes.

    Row order follows basis.tables.states (ascending product states). Meant
    for small-L oracles and the cross-magnetization tests; O(n_states * dim).
    """
    states = basis.tables.states
    mat = np.zeros((len(states), basis.dim), dtype=np.complex128)
    for col in range(basis.dim):
        for s, amp in expand_to_product_basis(basis, col).items():
            mat[np.searchsorted(states, s), col] = amp
    return mat
