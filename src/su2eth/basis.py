"""Symmetry-adapted basis for the periodic spin-1/2 chain.

Product states are L-bit integers with bit i set meaning spin up on site i.
One translation step moves site i to site i+1, i.e. rotates the bit word
left; the global spin flip complements all L bits. Sectors are labeled by
magnetization M, quasimomentum index n (k = 2*pi*n/L) and, at M = 0, the
spin-flip parity z = +/-1.

For every product state of the magnetization sector we tabulate once the
canonical representative of its symmetry orbit together with the group
element (t, x) mapping the state onto that representative,
T^t X^x |state> = |rep>. These shared tables are what the operator layer
consumes to assemble block matrices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

__all__ = [
    "MIN_SITES",
    "MAX_SITES",
    "SectorLabel",
    "SymmetryBasis",
    "translate_bits",
    "flip_bits",
    "magnetization_states",
    "sector_labels",
    "enumerate_sector_basis",
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


@lru_cache(maxsize=None)
def magnetization_states(L: int, n_up: int) -> np.ndarray:
    """All L-bit states with n_up set bits, ascending. Cached and read-only."""
    if not 0 <= n_up <= L:
        return np.empty(0, dtype=np.int64)
    out = np.fromiter(
        (sum(1 << i for i in pos) for pos in combinations(range(L), n_up)),
        dtype=np.int64,
        count=math.comb(L, n_up),
    )
    out.sort()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SectorLabel:
    """One simultaneous {M, k, Z2} symmetry sector of an L-site ring.

    k_index is the integer n in k = 2*pi*n/L, normalized into the window
    (-L/2, L/2]. z2_parity must be +1 or -1 when M = 0 (where the flip is
    a symmetry) and None otherwise.
    """

    L: int
    M: int
    k_index: int
    z2_parity: int | None = None

    def __post_init__(self):
        if self.L % 2 or not MIN_SITES <= self.L <= MAX_SITES:
            raise ValueError(f"L must be even with {MIN_SITES} <= L <= {MAX_SITES}, got {self.L}")
        if abs(self.M) > self.L // 2:
            raise ValueError(f"|M| <= L/2 required, got M={self.M} at L={self.L}")
        n = self.k_index % self.L
        if n > self.L // 2:
            n -= self.L
        object.__setattr__(self, "k_index", n)
        if self.M == 0:
            if self.z2_parity not in (1, -1):
                raise ValueError("M = 0 sectors carry z2_parity of +1 or -1")
        elif self.z2_parity is not None:
            raise ValueError("z2_parity is only defined at M = 0")

    @property
    def k(self) -> float:
        return 2.0 * math.pi * self.k_index / self.L

    @property
    def momentum_excluded(self) -> bool:
        """True at k = 0 and k = pi; those sectors are skipped in statistics."""
        return self.k_index in (0, self.L // 2)


def sector_labels(L: int, M: int = 0) -> list[SectorLabel]:
    """All sector labels of an (L, M) magnetization block, deterministic order."""
    out = []
    for n in range(-L // 2 + 1, L // 2 + 1):
        if M == 0:
            out.extend(SectorLabel(L, 0, n, z) for z in (1, -1))
        else:
            out.append(SectorLabel(L, M, n))
    return out


@dataclass(frozen=True)
class _SectorTables:
    """Shared per-(L, M) canonicalization tables; independent of k and z."""

    L: int
    M: int
    with_flip: bool
    states: np.ndarray      # ascending product states of the magnetization sector
    canon: np.ndarray       # canonical representative of each state's orbit
    shift_t: np.ndarray     # t with T^t X^x |state> = |canon>
    shift_x: np.ndarray     # x in {0, 1}
    period: np.ndarray      # smallest t >= 1 with T^t |state> = |state>
    flip_shift: np.ndarray  # smallest g >= 0 with T^g X |state> = |state>, else -1
    rep_positions: np.ndarray  # indices where canon == state


@lru_cache(maxsize=64)
def _sector_tables(L: int, M: int, with_flip: bool) -> _SectorTables:
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

    if with_flip:
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
    return _SectorTables(
        L, M, with_flip, states, canon, shift_t, shift_x, period, flip_shift,
        np.flatnonzero(canon == states),
    )


@dataclass(frozen=True)
class SymmetryBasis:
    """Orthonormal symmetry-adapted basis of one {M, k, Z2} sector.

    Row/column index order is ascending representative. rep_index maps each
    product state of the magnetization sector (by its position in
    tables.states) to the row of its orbit here, or -1 when that orbit has
    vanishing projection in this sector.
    """

    sector: SectorLabel
    reps: np.ndarray
    orbit_sizes: np.ndarray
    norms: np.ndarray
    tables: _SectorTables
    rep_index: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.reps)


def enumerate_sector_basis(sector: SectorLabel) -> SymmetryBasis:
    """Build the basis of one sector: admitted orbits, norms, lookup tables.

    An orbit enters the k sector only when k is commensurate with its
    translation periodicity R, i.e. (n*R) % L == 0. At M = 0 an orbit that
    is mapped onto itself by the flip (partner shift g) exists only in the
    parity sector with z = exp(-i k g), which is +/-1 whenever the momentum
    condition holds; self-distinct orbit pairs appear in both parities with
    doubled orbit size.
    """
    L = sector.L
    with_flip = sector.M == 0
    tabs = _sector_tables(L, sector.M, with_flip)
    pos = tabs.rep_positions
    R = tabs.period[pos]
    n = sector.k_index % L
    keep = (n * R) % L == 0
    if with_flip:
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
    orbit_sizes = sizes[kept]
    out = SymmetryBasis(
        sector=sector,
        reps=reps,
        orbit_sizes=orbit_sizes,
        norms=1.0 / np.sqrt(orbit_sizes.astype(np.float64)),
        tables=tabs,
        rep_index=rep_index,
    )
    for arr in (out.reps, out.orbit_sizes, out.norms, out.rep_index):
        arr.setflags(write=False)
    return out


def expand_to_product_basis(basis: SymmetryBasis, orbit_index: int) -> dict[int, complex]:
    """Amplitudes of one normalized basis vector on its product states.

    The amplitude on T^t X^x |rep> is exp(-i k t) z^x / sqrt(N) with N the
    orbit size; group elements hitting the same product state agree on this
    phase for every admitted orbit.
    """
    if not 0 <= orbit_index < basis.dim:
        raise IndexError(f"orbit_index {orbit_index} out of range (dim {basis.dim})")
    sector = basis.sector
    L = sector.L
    rep = int(basis.reps[orbit_index])
    inv_sqrt_n = float(basis.norms[orbit_index])
    amplitudes: dict[int, complex] = {}
    flips = (0, 1) if sector.M == 0 else (0,)
    for x in flips:
        s = flip_bits(rep, L) if x else rep
        zx = (sector.z2_parity if x else 1) or 1
        for t in range(L):
            if t:
                s = translate_bits(s, L)
            amplitudes[s] = cmath.exp(-1j * sector.k * t) * zx * inv_sqrt_n
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
