"""Real symmetric block operators in a symmetry-adapted basis.

Operators are described as sums of products of two-site factors, each factor
being the full exchange S_i . S_j ("dot") or its Ising part S^z_i S^z_j
("zz"). Factors inside one product must act on pairwise distinct sites;
that covers the chain Hamiltonian, the observables, the total-spin square
and the four-site correlators needed by the trace oracle.

``_branches`` is the one two-site branch rule: diagonal +-1/4 (aligned or
anti-aligned pair) and, for "dot" on anti-aligned pairs, an exchange of 1/2.
``raising_matrix`` is written independently of it and, with the closed
forms in ``oracle``, checks it.

Block assembly follows the representative-orbit calculus, in one
projection rule (``_project``) for every block: applying a branch to a
column representative |r> yields a product state u, and the canonical
data (t, x) with T^t X^x |u> = |rep'> contribute

    value * exp(-i k t) * z^x * sqrt(N_col / N_row)

to the (row of rep', row of r) entry of the orbit-basis block M. Branches
landing on orbits with vanishing projection in the sector are dropped.
The block returned is U^dagger M U in the PK-invariant basis (see
``basis``), with at most two nonzeros per column of U. Every operator here
is real in the product basis and reflection-invariant, so that block is
real: an imaginary part above round-off means a broken symmetry, and the
build raises. A parity half's block (see ``basis``) is the parity-p rows
and columns of its whole (k, z) block, cut by ``parity_block``, which
raises on a cross-parity entry above round-off in the same way.

``build_spin_ladder`` feeds the same rule its own branches: total S^+ or
S^- from a sector into the sector of equal k at M +- 1, a rectangular
block. It labels spins without S^2, whose L(L-1)/2 exchange terms make it
the densest operator here: <S^2> = |S^+- v|^2 + M(M +- 1).

The observable C = (1/L) sum_i S^z_i S^z_{i+1} needs no projection: it is
diagonal in the product basis and invariant under T, X and P, so every PK
column is its eigenvector and ``build_observable`` builds C's block as that
diagonal, with exact zeros off it. ``observable_terms(L, "C")`` through
``build_operator`` stays its independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product as iter_product

import numpy as np
import scipy.sparse as sp

from .basis import (SectorLabel, SymmetryBasis, enumerate_sector_basis, flip_bits,
                    magnetization_states, translate_bits)

__all__ = [
    "CouplingSpec",
    "Factor",
    "Term",
    "TermSum",
    "BlockOperator",
    "hamiltonian_terms",
    "spin_squared_terms",
    "observable_terms",
    "pair_correlator_terms",
    "quad_correlator_terms",
    "build_operator",
    "parity_block",
    "build_hamiltonian",
    "build_total_spin_squared",
    "build_observable",
    "build_spin_ladder",
    "product_basis_matrix",
    "raising_matrix",
]

OBSERVABLE_TAGS = ("A", "B", "C")

# the labels of the spin ladder blocks, by the magnetization step they make
LADDERS = {"S+": 1, "S-": -1}

# largest imaginary part, or cross-parity entry, a block may drop, relative to its largest entry
_IMAG_BOUND = 1e-12


@dataclass(frozen=True)
class CouplingSpec:
    """Next-nearest-neighbor coupling strength of the chain Hamiltonian."""

    lam: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be a finite nonnegative real, got {self.lam}")


@dataclass(frozen=True)
class Factor:
    """A single two-site factor: 'dot' = S_i . S_j, 'zz' = S^z_i S^z_j."""

    kind: str
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("dot", "zz"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.i == self.j:
            raise ValueError("factor sites must differ")


@dataclass(frozen=True)
class Term:
    """coeff times a product of factors acting on pairwise distinct sites."""

    coeff: float
    factors: tuple[Factor, ...]

    def __post_init__(self):
        sites = [s for f in self.factors for s in (f.i, f.j)]
        if len(set(sites)) != len(sites):
            raise ValueError("factors within a term must not share sites")


@dataclass(frozen=True)
class TermSum:
    """A Hermitian operator: identity * 1 + sum of product terms."""

    terms: tuple[Term, ...]
    identity: float = 0.0


@dataclass(frozen=True)
class BlockOperator:
    """One operator block, stored sparse with a dense view on demand.

    A ladder block (label in LADDERS) maps sector into the sector at M +- 1;
    every other block is square.
    """

    sector: SectorLabel
    matrix: sp.csr_matrix
    label: str

    @property
    def dim(self) -> int:
        """The dimension of the sector the block acts on: its number of columns."""
        return self.matrix.shape[1]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()


# ─── standard term lists ────────────────────────────────────────────────────


def hamiltonian_terms(L: int, coupling: CouplingSpec) -> TermSum:
    """-sum_i S_i.S_{i+1} - lambda * sum_i S_i.S_{i+2} on the ring."""
    terms = [Term(-1.0, (Factor("dot", i, (i + 1) % L),)) for i in range(L)]
    if coupling.lam != 0.0:
        terms += [Term(-coupling.lam, (Factor("dot", i, (i + 2) % L),)) for i in range(L)]
    return TermSum(tuple(terms))


def spin_squared_terms(L: int) -> TermSum:
    """S^2 = (3L/4) + 2 sum_{i<j} S_i.S_j, one term per unordered pair."""
    terms = [Term(2.0, (Factor("dot", i, j),)) for i in range(L) for j in range(i + 1, L)]
    return TermSum(tuple(terms), identity=0.75 * L)


def observable_terms(L: int, which: str) -> TermSum:
    """The three bond observables.

    A = -(1/(sqrt(3) L)) sum_i S_i.S_{i+1}           (rank 0)
    B = (1/(sqrt(6) L)) sum_i (3 S^z_i S^z_{i+1} - S_i.S_{i+1})   (rank 2, q=0)
    C = (1/L) sum_i S^z_i S^z_{i+1}
    """
    if which == "A":
        c = -1.0 / (math.sqrt(3.0) * L)
        return TermSum(tuple(Term(c, (Factor("dot", i, (i + 1) % L),)) for i in range(L)))
    if which == "B":
        c = 1.0 / (math.sqrt(6.0) * L)
        terms = []
        for i in range(L):
            terms.append(Term(3.0 * c, (Factor("zz", i, (i + 1) % L),)))
            terms.append(Term(-c, (Factor("dot", i, (i + 1) % L),)))
        return TermSum(tuple(terms))
    if which == "C":
        return TermSum(tuple(Term(1.0 / L, (Factor("zz", i, (i + 1) % L),)) for i in range(L)))
    raise ValueError(f"unknown observable {which!r}, expected one of {OBSERVABLE_TAGS}")


def pair_correlator_terms(L: int, kind: str) -> TermSum:
    """(1/(L(L-1))) sum_{i != j} of a two-site factor; trace gives the pair moment."""
    c = 1.0 / (L * (L - 1))
    return TermSum(tuple(
        Term(c, (Factor(kind, i, j),)) for i in range(L) for j in range(L) if i != j
    ))


def quad_correlator_terms(L: int, kind: str) -> TermSum:
    """Translation average of a disjoint four-site product.

    kind 'dotdot': (1/L) sum_i (S_i.S_{i+1})(S_{i+2}.S_{i+3})
    kind 'zzdot' : (1/(2L)) sum_i [(S^z_i S^z_{i+1})(S_{i+2}.S_{i+3})
                                   + (S_i.S_{i+1})(S^z_{i+2} S^z_{i+3})]

    Reflection swaps the two orders of zzdot, so only their average is
    reflection-invariant. The sector trace of either kind equals the
    corresponding four-site moment because the trace only sees the
    partition pattern of the site set.
    """
    orders = {"dotdot": (("dot", "dot"),), "zzdot": (("zz", "dot"), ("dot", "zz"))}[kind]
    c = 1.0 / (L * len(orders))
    return TermSum(tuple(
        Term(c, (Factor(a, i, (i + 1) % L), Factor(b, (i + 2) % L, (i + 3) % L)))
        for i in range(L) for a, b in orders
    ))


# ─── block assembly ─────────────────────────────────────────────────────────


def _branches(states: np.ndarray, terms: TermSum):
    """Every branch of every term in one array pass: (diag, flip_mask, src, amplitude).

    diag is the identity plus each non-flipping branch, added in term order.
    The flat flipping entries take states[src] to states[src] ^ flip_mask
    with the given amplitude, branch by branch in term order and ascending
    src within a branch.
    """
    # one row per (term, flip choice), one (i, j, action) slot per factor:
    # action 0 pads a shorter term, 1 keeps the pair, 2 flips it
    width = max((len(term.factors) for term in terms.terms), default=0)
    coeffs, slots, masks = [], [], []
    for term in terms.terms:
        choices = [(1, 2) if f.kind == "dot" else (1,) for f in term.factors]
        for actions in iter_product(*choices):
            coeffs.append(term.coeff)
            slots.append([(f.i, f.j, a) for f, a in zip(term.factors, actions)]
                         + [(0, 0, 0)] * (width - len(actions)))
            masks.append(sum((1 << f.i) | (1 << f.j)
                             for f, a in zip(term.factors, actions) if a == 2))
    slots = np.array(slots, dtype=np.int64).reshape(len(coeffs), width, 3)
    masks = np.array(masks, dtype=np.int64)
    amp = np.repeat(np.array(coeffs, dtype=np.float64)[:, None], len(states), axis=1)
    ok = np.ones(amp.shape, dtype=bool)
    for i, j, action in slots.transpose(1, 2, 0):
        aligned = ((states >> i[:, None]) & 1) == ((states >> j[:, None]) & 1)
        flip = (action == 2)[:, None]
        amp *= np.where(flip, 0.5, np.where((action == 1)[:, None],
                                            np.where(aligned, 0.25, -0.25), 1.0))
        ok &= ~(flip & aligned)
    diag = np.full(len(states), terms.identity, dtype=np.float64)
    for row in amp[masks == 0]:
        diag += row
    branch, src = np.nonzero(ok & (masks != 0)[:, None])
    return diag, masks[branch], src, amp[branch, src]


def build_operator(basis: SymmetryBasis, terms: TermSum, label: str) -> BlockOperator:
    """Assemble the real block matrix of a TermSum in one symmetry sector.

    Raises ValueError when an entry's imaginary part exceeds _IMAG_BOUND
    times the largest entry, i.e. when the operator is not PK-invariant. A
    parity half's block is cut from the block of its whole (k, z) sector.
    """
    diag, flip_mask, src, amp = _branches(basis.reps, terms)
    return _project(basis, basis, src, basis.reps[src] ^ flip_mask, amp, label, diag)


def build_spin_ladder(basis: SymmetryBasis, step: int) -> BlockOperator:
    """Total S^+ (step 1) or S^- (step -1) from a sector into the whole k sector at M + step.

    S^+- commutes with T, and X S^+- X = S^-+. So the orbit state of r
    maps, through its R translates, onto the branches S^+- |r> with
    c = 1 and, at M = 0, z X S^-+ |r> when X|r> lies outside r's
    translation orbit, each of amplitude c R / N (R the translation period
    and N the orbit size of r). Rows follow the target's PK columns, every
    one of them for a parity half, whose block is its columns of the whole
    sector's; a target beyond |M| = L/2 has no rows. The target must not
    be M = 0, whose sectors carry a flip parity the ladder does not keep.
    """
    label = "S+" if step == 1 else "S-"
    sector = basis.sector
    L, M = sector.L, sector.M + step
    if step not in (1, -1) or M == 0:
        raise ValueError(f"the ladder from M = {sector.M} takes a step of +-1 away from M = 0, "
                         f"got {step}")
    if abs(M) > L // 2:
        return BlockOperator(sector, sp.csr_matrix((0, basis.dim), dtype=np.float64), label)
    tabs = basis.tables
    period = tabs.period[np.searchsorted(tabs.states, basis.reps)]
    sites = 1 << np.arange(L, dtype=np.int64)
    up = (basis.reps[:, None] & sites) != 0
    # S^+ sets a site that is down, S^- clears one that is up; each flips that bit
    src, site = np.nonzero(up != (step == 1))
    dest = basis.reps[src] ^ sites[site]
    c = np.ones(len(src))
    if sector.M == 0:
        lone = basis.orbit_sizes == 2 * period  # the flip maps the orbit to another one
        fsrc, fsite = np.nonzero(lone[:, None] & (up == (step == 1)))
        src = np.concatenate((src, fsrc))
        dest = np.concatenate((dest, flip_bits(basis.reps[fsrc] ^ sites[fsite], L)))
        c = np.concatenate((c, np.full(len(fsrc), float(sector.z2_parity))))
    target = enumerate_sector_basis(SectorLabel(L, M, sector.k_index))
    return _project(basis, target, src, dest, c * period[src] / basis.orbit_sizes[src], label)


def _project(basis: SymmetryBasis, target: SymmetryBasis, src: np.ndarray, dest: np.ndarray,
             amp: np.ndarray, label: str, diag: np.ndarray | None = None) -> BlockOperator:
    """The real PK block of a map from basis's sector into target's, given by its branches.

    Branch j takes the representative of orbit src[j] of basis to the
    product state dest[j] with amplitude amp[j]; with (t, x) the canonical
    data of dest[j] in target's tables, it adds
    amp * exp(-i k t) * z^x * sqrt(N_src / N_row) to the orbit-basis entry
    (row of dest[j]'s orbit, src[j]), and nothing when that orbit vanishes
    in target's sector. diag, when given, is added to the diagonal of a
    map into basis's own sector. The block is U_target^dagger M U_basis,
    built in the whole (k, z) sector and cut to basis's parity half. Raises
    ValueError when an entry's imaginary part exceeds _IMAG_BOUND times
    max(1, largest entry).
    """
    tabs = target.tables
    ti = np.searchsorted(tabs.states, dest)
    row = target.rep_index[ti]
    good = row >= 0
    src, row, ti = src[good], row[good], ti[good]
    phase = np.exp(-1j * target.sector.k * tabs.shift_t[ti])
    if target.sector.z2_parity == -1:
        phase = phase * np.where(tabs.shift_x[ti] == 1, -1.0, 1.0)
    vals = amp[good] * phase * (np.sqrt(basis.orbit_sizes[src]) / np.sqrt(target.orbit_sizes[row]))
    mat = sp.coo_matrix((vals, (row, src)), shape=(len(target.reps), len(basis.reps)),
                        dtype=np.complex128).tocsr()
    if diag is not None:
        mat += sp.diags(diag.astype(np.complex128), format="csr")
    whole = (_pk_unitary(target).conj().T @ (mat @ _pk_unitary(basis))).tocsr()
    sector = replace(basis.sector, parity=None)
    scale = max(1.0, float(np.abs(whole.data).max(initial=0.0)))
    dropped = float(np.abs(whole.data.imag).max(initial=0.0))
    if dropped > _IMAG_BOUND * scale:
        raise ValueError(f"{label} in {sector} is not real in the PK basis "
                         f"(imaginary part {dropped:.3e}): it breaks reflection symmetry")
    real = sp.csr_matrix((whole.data.real.copy(), whole.indices, whole.indptr), shape=whole.shape)
    return parity_block(BlockOperator(sector, real, label), basis)


def _pk_unitary(basis: SymmetryBasis) -> sp.csr_matrix:
    """U, the PK columns of a whole (k, z) sector on its orbit states."""
    dim = len(basis.reps)
    return sp.csr_matrix((basis.pk_coeffs.ravel(), basis.pk_columns.ravel(),
                          np.arange(0, 2 * dim + 1, 2)), shape=(dim, dim))


def parity_block(block: BlockOperator, basis: SymmetryBasis) -> BlockOperator:
    """The rows and columns of a whole (k, z) block that basis spans.

    basis spans one parity half of block's sector, or the whole sector, whose
    block is returned as it is. A ladder block keeps every row: S^+- commutes
    with P, so a half's columns map into the target's half of equal parity.
    Raises ValueError when a dropped cross-parity entry exceeds _IMAG_BOUND
    times max(1, largest entry), i.e. when the operator breaks reflection
    symmetry.
    """
    if basis.sector == block.sector:
        return block
    if replace(basis.sector, parity=None) != block.sector:
        raise ValueError(f"{basis.sector} is not a parity half of {block.sector}")
    inside = np.zeros(block.dim, dtype=bool)
    inside[basis.columns] = True
    if block.label in LADDERS:
        return BlockOperator(basis.sector, block.matrix[:, inside].tocsr(), block.label)
    rows = block.matrix[inside]
    scale = max(1.0, float(np.abs(block.matrix.data).max(initial=0.0)))
    dropped = float(np.abs(rows[:, ~inside].data).max(initial=0.0))
    if dropped > _IMAG_BOUND * scale:
        raise ValueError(f"{block.label} in {basis.sector} couples opposite reflection parities "
                         f"(entry {dropped:.3e}): it breaks reflection symmetry")
    return BlockOperator(basis.sector, rows[:, inside].tocsr(), block.label)


def build_hamiltonian(basis: SymmetryBasis, coupling: CouplingSpec) -> BlockOperator:
    """Chain Hamiltonian block for the sector of the given basis."""
    return build_operator(basis, hamiltonian_terms(basis.sector.L, coupling),
                          f"H(lam={coupling.lam:g})")


def build_total_spin_squared(basis: SymmetryBasis) -> BlockOperator:
    """Total S^2 block; eigenvalues are S(S+1) for integer S at M = 0."""
    return build_operator(basis, spin_squared_terms(basis.sector.L), "S2")


def build_observable(basis: SymmetryBasis, which: str) -> BlockOperator:
    """One of the bond observables A, B, C in the sector basis; C as its exact diagonal.

    Orbit r's states and those of its reflection partner, the orbits of one
    PK column, each have popcount(r ^ T r) anti-aligned bonds, so that
    column's diagonal entry of C is (L - 2 popcount(r ^ T r)) / (4L).
    """
    if which != "C":
        return build_operator(basis, observable_terms(basis.sector.L, which), which)
    L, reps = basis.sector.L, basis.reps
    flips = reps ^ translate_bits(reps, L)
    anti = sum((flips >> i) & 1 for i in range(L))
    diag = np.empty(len(reps))
    diag[basis.pk_columns] = ((L - 2 * anti) / (4 * L))[:, None]
    return BlockOperator(basis.sector, sp.diags(diag[basis.columns], format="csr"), which)


# ─── product-basis oracles ──────────────────────────────────────────────────


def product_basis_matrix(L: int, M: int, terms: TermSum) -> np.ndarray:
    """Dense matrix of a TermSum in the raw magnetization product basis.

    Brute-force oracle for small L; row/column order is ascending bit
    pattern, matching magnetization_states(L, L/2 + M).
    """
    states = magnetization_states(L, L // 2 + M)
    diag, flip_mask, src, amp = _branches(states, terms)
    out = np.diag(diag)
    np.add.at(out, (np.searchsorted(states, states[src] ^ flip_mask), src), amp)
    return out


def raising_matrix(L: int, M: int) -> np.ndarray:
    """Total S^+ = sum_i S^+_i mapping the M product basis into M + 1.

    Rows follow magnetization_states(L, L/2 + M + 1), columns
    magnetization_states(L, L/2 + M). On normalized |S M> input the image
    has squared norm S(S+1) - M(M+1).
    """
    src_states = magnetization_states(L, L // 2 + M)
    dst_states = magnetization_states(L, L // 2 + M + 1)
    out = np.zeros((len(dst_states), len(src_states)), dtype=np.float64)
    for col, s in enumerate(src_states):
        for i in range(L):
            if not (s >> i) & 1:
                row = np.searchsorted(dst_states, s | (1 << i))
                out[row, col] += 1.0
    return out
