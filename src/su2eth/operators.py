"""Hermitian block operators in a symmetry-adapted basis.

Operators are described as sums of products of two-site factors, each factor
being the full exchange S_i . S_j ("dot") or its Ising part S^z_i S^z_j
("zz"). Factors inside one product must act on pairwise distinct sites;
that covers the chain Hamiltonian, the observables, the total-spin square
and the four-site correlators needed by the trace oracle.

``_branches`` is the one two-site branch rule: diagonal +-1/4 (aligned or
anti-aligned pair) and, for "dot" on anti-aligned pairs, an exchange of 1/2.
``raising_matrix`` is written independently of it and, with the closed
forms in ``oracle``, checks it.

Block assembly follows the representative-orbit calculus: applying a branch
of a term to a column representative |r> yields a product state u, and the
canonical data (t, x) with T^t X^x |u> = |rep'> contribute

    value * exp(-i k t) * z^x * sqrt(N_col / N_row)

to the (row of rep', row of r) entry. Branches landing on orbits with
vanishing projection in the sector are dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np
import scipy.sparse as sp

from .basis import SectorLabel, SymmetryBasis, magnetization_states

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
    "build_hamiltonian",
    "build_total_spin_squared",
    "build_observable",
    "product_basis_matrix",
    "raising_matrix",
]

OBSERVABLE_TAGS = ("A", "B", "C")


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
    """One operator block, stored sparse with a dense view on demand."""

    sector: SectorLabel
    matrix: sp.csr_matrix
    label: str

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

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
    """S^2 = (3L/4) + 2 sum_{i<j} S_i.S_j, written over ordered pairs."""
    terms = [
        Term(1.0, (Factor("dot", i, (i + d) % L),))
        for d in range(1, L)
        for i in range(L)
    ]
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
    kind 'zzdot' : (1/L) sum_i (S^z_i S^z_{i+1})(S_{i+2}.S_{i+3})

    The sector trace of either equals the corresponding four-site moment
    because the trace only sees the partition pattern of the site set.
    """
    first = {"dotdot": "dot", "zzdot": "zz"}[kind]
    c = 1.0 / L
    return TermSum(tuple(
        Term(c, (Factor(first, i, (i + 1) % L), Factor("dot", (i + 2) % L, (i + 3) % L)))
        for i in range(L)
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
    """Assemble the block matrix of a TermSum in one symmetry sector."""
    sector = basis.sector
    dim = basis.dim
    if dim == 0:
        return BlockOperator(sector, sp.csr_matrix((0, 0), dtype=np.complex128), label)

    tabs = basis.tables
    sqrt_n = np.sqrt(basis.orbit_sizes.astype(np.float64))
    diag, flip_mask, src, amp = _branches(basis.reps, terms)
    ti = np.searchsorted(tabs.states, basis.reps[src] ^ flip_mask)
    row = basis.rep_index[ti]
    good = row >= 0
    src = src[good]
    row = row[good]
    ti = ti[good]
    phase = np.exp(-1j * sector.k * tabs.shift_t[ti])
    if sector.z2_parity == -1:
        phase = phase * np.where(tabs.shift_x[ti] == 1, -1.0, 1.0)
    vals = amp[good] * phase * (sqrt_n[src] / sqrt_n[row])
    mat = sp.coo_matrix((vals, (row, src)), shape=(dim, dim), dtype=np.complex128).tocsr()
    mat += sp.diags(diag.astype(np.complex128), format="csr")
    return BlockOperator(sector, mat, label)


def build_hamiltonian(basis: SymmetryBasis, coupling: CouplingSpec) -> BlockOperator:
    """Chain Hamiltonian block for the sector of the given basis."""
    return build_operator(basis, hamiltonian_terms(basis.sector.L, coupling),
                          f"H(lam={coupling.lam:g})")


def build_total_spin_squared(basis: SymmetryBasis) -> BlockOperator:
    """Total S^2 block; eigenvalues are S(S+1) for integer S at M = 0."""
    return build_operator(basis, spin_squared_terms(basis.sector.L), "S2")


def build_observable(basis: SymmetryBasis, which: str) -> BlockOperator:
    """One of the bond observables A, B, C in the sector basis."""
    return build_operator(basis, observable_terms(basis.sector.L, which), which)


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
