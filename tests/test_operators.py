"""Block operators: hermiticity, symmetry algebra, observable identities."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from su2eth.basis import (SectorLabel, enumerate_sector_basis, expansion_matrix, parity_halves,
                          sector_labels, with_parity)
from su2eth.operators import (
    BlockOperator,
    CouplingSpec,
    Factor,
    Term,
    TermSum,
    build_hamiltonian,
    build_observable,
    build_operator,
    build_spin_ladder,
    build_total_spin_squared,
    hamiltonian_terms,
    observable_terms,
    pair_correlator_terms,
    parity_block,
    product_basis_matrix,
    quad_correlator_terms,
    raising_matrix,
    spin_squared_terms,
)
from su2eth.spectral import diagonalize_block


def _blocks(L, M=0):
    return [enumerate_sector_basis(lab) for lab in sector_labels(L, M)]


def _nonempty(L, M=0):
    return [b for b in _blocks(L, M) if b.dim]


# ─── hermiticity and commutation ────────────────────────────────────────────


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
def test_hamiltonian_blocks_are_hermitian(lam):
    for basis in _nonempty(8):
        H = build_hamiltonian(basis, CouplingSpec(lam)).dense()
        assert np.allclose(H, H.conj().T, atol=1e-13)


@pytest.mark.parametrize("which", ["A", "B", "C"])
def test_observable_blocks_are_hermitian(which):
    for basis in _nonempty(8):
        O = build_observable(basis, which).dense()
        assert np.allclose(O, O.conj().T, atol=1e-13)


def test_spin_squared_commutes_with_scalars():
    for basis in _nonempty(8):
        S2 = build_total_spin_squared(basis).dense()
        for block in (build_hamiltonian(basis, CouplingSpec(3.0)),
                      build_observable(basis, "A")):
            O = block.dense()
            comm = S2 @ O - O @ S2
            assert np.max(np.abs(comm)) < 1e-11, block.label


def test_rank_two_observable_transfers_spin():
    # B is not a scalar: it must NOT commute with S^2 in a mixed-spin block
    basis = enumerate_sector_basis(SectorLabel(8, 0, 1, 1))
    S2 = build_total_spin_squared(basis).dense()
    B = build_observable(basis, "B").dense()
    assert np.max(np.abs(S2 @ B - B @ S2)) > 1e-3


def test_spin_squared_eigenvalues_are_s_times_s_plus_one():
    allowed = {s * (s + 1) for s in range(0, 5)}
    for basis in _nonempty(8):
        S2 = build_total_spin_squared(basis).dense()
        for ev in np.linalg.eigvalsh(S2):
            assert min(abs(ev - a) for a in allowed) < 1e-10


# ─── observable identities ──────────────────────────────────────────────────


def test_scalar_composition_of_c():
    # C = -A/sqrt(3) + sqrt(2/3) B, block by block
    for basis in _nonempty(8):
        A = build_observable(basis, "A").dense()
        B = build_observable(basis, "B").dense()
        C = build_observable(basis, "C").dense()
        composed = -A / math.sqrt(3) + math.sqrt(2 / 3) * B
        assert np.allclose(C, composed, atol=1e-13)


@pytest.mark.parametrize("L", [6, 8, 10, 12, 14, 16])
def test_c_is_built_as_the_diagonal_of_its_projection(L):
    # in every k >= 0 sector and parity half: C's block is diagonal, the generic
    # projection of observable_terms(L, "C") agrees with it on the diagonal and
    # is round-off off it, and A/sqrt(2) + sqrt(3/2) C is the projected B
    worst = dict.fromkeys(("diagonal", "off-diagonal", "B"), 0.0)
    units = {replace(lab, parity=None) for lab in sector_labels(L) if lab.k_index >= 0}
    for unit in units:
        basis = enumerate_sector_basis(unit)
        projected = {tag: build_operator(basis, observable_terms(L, tag), tag) for tag in "BC"}
        a = build_observable(basis, "A")
        for half in parity_halves(unit):
            cut = with_parity(basis, half.parity)
            c = build_observable(cut, "C")
            assert c.sector == half and c.label == "C"
            diag = c.matrix.diagonal()
            assert np.array_equal(c.dense(), np.diag(diag)), half
            ref_b, ref_c = (parity_block(projected[tag], cut).dense() for tag in "BC")
            worst["diagonal"] = max(worst["diagonal"], np.abs(diag - ref_c.diagonal()).max(initial=0.0))
            worst["off-diagonal"] = max(worst["off-diagonal"], np.abs(
                ref_c - np.diag(ref_c.diagonal())).max(initial=0.0))
            assembled = parity_block(a, cut).dense() / math.sqrt(2.0) + math.sqrt(1.5) * np.diag(diag)
            worst["B"] = max(worst["B"], np.abs(assembled - ref_b).max(initial=0.0))
    assert all(value <= 1e-15 for value in worst.values()), worst


def test_a_is_rescaled_nearest_neighbour_hamiltonian():
    L = 8
    for basis in _nonempty(L):
        A = build_observable(basis, "A").dense()
        H0 = build_hamiltonian(basis, CouplingSpec(0.0)).dense()
        assert np.allclose(A, H0 / (math.sqrt(3) * L), atol=1e-13)


def test_next_nearest_coupling_enters_linearly():
    for basis in _nonempty(6):
        H0 = build_hamiltonian(basis, CouplingSpec(0.0)).dense()
        H1 = build_hamiltonian(basis, CouplingSpec(1.0)).dense()
        H3 = build_hamiltonian(basis, CouplingSpec(3.0)).dense()
        assert np.allclose(H3, H0 + 3.0 * (H1 - H0), atol=1e-12)


def test_observable_terms_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown observable"):
        observable_terms(6, "X")


def test_build_operator_forwards_label():
    basis = _nonempty(6)[0]
    block = build_operator(basis, observable_terms(6, "B"), "custom")
    assert block.label == "custom"
    assert block.sector == basis.sector
    assert block.dim == basis.dim


# ─── product-basis matrices ─────────────────────────────────────────────────


def test_product_basis_spectrum_matches_pooled_blocks():
    """Block-diagonalization must preserve the full fixed-M spectrum."""
    L, M = 6, 1
    terms = hamiltonian_terms(L, CouplingSpec(3.0))
    full = product_basis_matrix(L, M, terms)
    assert np.allclose(full, full.conj().T, atol=1e-13)
    pooled = []
    for basis in _nonempty(L, M):
        H = build_hamiltonian(basis, CouplingSpec(3.0)).dense()
        pooled.extend(np.linalg.eigvalsh(H))
    assert np.allclose(np.sort(np.linalg.eigvalsh(full)), np.sort(pooled), atol=1e-11)


def test_pair_correlator_trace_vanishes_over_full_space():
    # tr(S_i . S_j) and tr(Sz_i Sz_j) over all of 2^L are zero for i != j
    L = 6
    for kind in ("dot", "zz"):
        terms = pair_correlator_terms(L, kind)
        total = sum(np.trace(product_basis_matrix(L, M, terms)).real
                    for M in range(-L // 2, L // 2 + 1))
        assert abs(total) < 1e-12


def _term_sets(L):
    """Every operator the pipeline builds: H, S^2, the observables, the oracle's correlators."""
    return {
        "H lam=0": hamiltonian_terms(L, CouplingSpec(0.0)),
        "H": hamiltonian_terms(L, CouplingSpec(3.0)),
        "S2": spin_squared_terms(L),
        **{tag: observable_terms(L, tag) for tag in ("A", "B", "C")},
        "pair dot": pair_correlator_terms(L, "dot"),
        "pair zz": pair_correlator_terms(L, "zz"),
        "quad dotdot": quad_correlator_terms(L, "dotdot"),
        "quad zzdot": quad_correlator_terms(L, "zzdot"),
    }


@pytest.mark.parametrize("L, M", [(6, 0), (6, 1), (8, 0), (8, 1)])
def test_blocks_are_projections_of_the_product_basis_matrix(L, M):
    """Each sector block is real and equals U^dagger P U, with U the sector's expansion map."""
    bases = _nonempty(L, M)
    for name, terms in _term_sets(L).items():
        full = product_basis_matrix(L, M, terms)
        for basis in bases:
            U = expansion_matrix(basis)
            block = build_operator(basis, terms, name).matrix
            assert block.dtype == np.float64, (name, basis.sector)
            assert np.max(np.abs(U.conj().T @ full @ U - block.toarray())) < 1e-13, (name, basis.sector)


@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("L, M", [(6, 0), (6, 1), (8, 0), (8, 1)])
def test_block_energies_match_the_dense_product_basis_spectrum(L, M, lam):
    terms = hamiltonian_terms(L, CouplingSpec(lam))
    pooled = []
    for basis in _nonempty(L, M):
        energies, vectors = diagonalize_block(build_operator(basis, terms, "H"))
        assert vectors.dtype == np.float64
        pooled.extend(energies)
    full = np.linalg.eigvalsh(product_basis_matrix(L, M, terms))
    assert np.abs(np.sort(pooled) - full).max() < 1e-12


def test_an_operator_without_reflection_symmetry_is_rejected():
    # (S^z_i S^z_{i+1})(S_{i+2}.S_{i+3}) alone reflects into the other order
    L = 8
    terms = TermSum(tuple(
        Term(1.0 / L, (Factor("zz", i, (i + 1) % L), Factor("dot", (i + 2) % L, (i + 3) % L)))
        for i in range(L)))
    with pytest.raises(ValueError, match="breaks reflection symmetry"):
        for basis in _nonempty(L):
            build_operator(basis, terms, "zzdot")


def _halves(L, M=0):
    return [lab for lab in sector_labels(L, M) if lab.parity is not None]


@pytest.mark.parametrize("lam", [0.0, 3.0])
@pytest.mark.parametrize("L, M", [(8, 0), (10, 0), (12, 0), (10, 1)])
def test_parity_halves_split_the_whole_block(L, M, lam):
    """A half's block is its parity's rows and columns; both halves' energies are the whole's."""
    terms = hamiltonian_terms(L, CouplingSpec(lam))
    for z in dict.fromkeys(lab.z2_parity for lab in _halves(L, M)):
        for k in (0, L // 2):
            whole = enumerate_sector_basis(SectorLabel(L, M, k, z))
            block = build_operator(whole, terms, "H")
            energies = []
            for p in (1, -1):
                half = enumerate_sector_basis(SectorLabel(L, M, k, z, p))
                cut = build_operator(half, terms, "H")
                assert cut.sector == half.sector and cut.dim == half.dim
                cols = half.columns
                assert np.array_equal(cut.dense(), block.dense()[np.ix_(cols, cols)])
                energies.extend(diagonalize_block(cut)[0])
            full = diagonalize_block(block)[0]
            assert np.abs(np.sort(energies) - full).max() < 1e-12, (k, z)


def test_an_operator_coupling_opposite_parities_is_rejected():
    lab = SectorLabel(10, 0, 0, 1, 1)
    whole = enumerate_sector_basis(replace(lab, parity=None))
    half = enumerate_sector_basis(lab)
    block = build_hamiltonian(whole, CouplingSpec(3.0))
    a = int(half.columns[0])
    b = int(np.flatnonzero(whole.parities == -1)[0])
    coupling = sp.csr_matrix(([1e-6, 1e-6], ([a, b], [b, a])), shape=block.matrix.shape)
    mixed = BlockOperator(block.sector, (block.matrix + coupling).tocsr(), "mixed")
    with pytest.raises(ValueError, match="couples opposite reflection parities"):
        parity_block(mixed, half)
    # round-off is not a coupling, and a whole sector's block is returned as it is
    tiny = BlockOperator(block.sector, (block.matrix + 1e-15 * coupling / 1e-6).tocsr(), "H")
    assert parity_block(tiny, half).dim == half.dim
    assert parity_block(block, whole) is block
    with pytest.raises(ValueError, match="not a parity half"):
        parity_block(block, enumerate_sector_basis(SectorLabel(10, 0, 5, 1, 1)))


@pytest.mark.parametrize("L, M", [(6, 0), (8, 0), (10, 0), (12, 0), (8, 1), (6, 1)])
def test_mirror_blocks_are_exact_conjugates(L, M):
    """H(-k) == conj(H(k)) == H(k) bit for bit, so the pipeline may solve k >= 0 only.

    The PK basis at -k is the conjugate of the one at +k, so the real
    blocks are equal, which is what conjugation means for real data.
    """
    builders = {name: (lambda b, terms=terms, name=name: build_operator(b, terms, name))
                for name, terms in _term_sets(L).items()}
    mirrored = [lab for lab in sector_labels(L, M) if lab.k_index < 0]
    assert mirrored
    for lab in mirrored:
        minus = enumerate_sector_basis(lab)
        plus = enumerate_sector_basis(SectorLabel(L, M, -lab.k_index, lab.z2_parity))
        assert np.array_equal(minus.reps, plus.reps), lab
        for name, build in builders.items():
            a, b = build(minus).matrix, build(plus).matrix
            assert a.indptr.tobytes() == b.indptr.tobytes(), (name, lab)
            assert a.indices.tobytes() == b.indices.tobytes(), (name, lab)
            assert a.data.dtype == np.float64, (name, lab)
            assert a.data.tobytes() == np.conjugate(b.data).tobytes(), (name, lab)


def test_quad_correlators_are_hermitian():
    for kind in ("dotdot", "zzdot"):
        mat = product_basis_matrix(6, 0, quad_correlator_terms(6, kind))
        assert np.allclose(mat, mat.conj().T, atol=1e-12)


# ─── raising map ────────────────────────────────────────────────────────────


def test_raising_matrix_shapes():
    assert raising_matrix(6, 0).shape == (15, 20)
    assert raising_matrix(6, 2).shape == (1, 6)
    assert raising_matrix(6, 3).shape == (0, 1)


def test_raising_matrix_norm_identity():
    # S+ dagger S+ = S^2 - M(M+1) on a fixed-M block, exactly
    L = 6
    for M in (0, 1, 2):
        R = raising_matrix(L, M)
        S2 = product_basis_matrix(L, M, spin_squared_terms(L))
        lhs = R.conj().T @ R
        rhs = S2 - M * (M + 1) * np.eye(S2.shape[0])
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_raising_matrix_commutes_with_hamiltonian():
    L, lam = 6, 3.0
    terms = hamiltonian_terms(L, CouplingSpec(lam))
    H0 = product_basis_matrix(L, 0, terms)
    H1 = product_basis_matrix(L, 1, terms)
    R = raising_matrix(L, 0)
    assert np.max(np.abs(R @ H0 - H1 @ R)) < 1e-12


# ─── spin ladder blocks ─────────────────────────────────────────────────────


def _steps(M):
    # S^+ from M >= 0, S^- from M <= 0: the ladder never lands on M = 0
    return [step for step in (1, -1) if step * M >= 0]


@pytest.mark.parametrize("L", [6, 8])
def test_spin_ladder_is_the_raising_map_between_sector_bases(L):
    # the block is U(M +- 1)^H S^+- U(M); S^- is the transpose of S^+ from M - 1
    for M in range(-2, 3):
        for lab in sector_labels(L, M):
            basis = enumerate_sector_basis(lab)
            for step in _steps(M):
                block = build_spin_ladder(basis, step)
                target = enumerate_sector_basis(SectorLabel(L, M + step, lab.k_index))
                ladder = raising_matrix(L, M) if step == 1 else raising_matrix(L, M - 1).T
                expected = expansion_matrix(target).conj().T @ ladder @ expansion_matrix(basis)
                assert block.label == ("S+" if step == 1 else "S-")
                assert block.sector == lab and block.dim == basis.dim
                assert block.matrix.shape == expected.shape
                assert np.abs(block.dense() - expected).max(initial=0.0) < 1e-12, (lab, step)


@pytest.mark.parametrize("L", [6, 8, 10, 12, 14])
def test_spin_ladder_gram_matrix_is_the_spin_squared_block(L):
    # (S^+-)^T S^+- + M(M +- 1) = S^2, with M = +-1 and +-2 at the smaller sizes
    for M in (0, 1, -1, 2, -2) if L <= 8 else (0,):
        for basis in _blocks(L, M):
            s2 = build_total_spin_squared(basis).dense()
            for step in _steps(M):
                w = build_spin_ladder(basis, step).dense()
                gram = w.T @ w + M * (M + step) * np.eye(basis.dim)
                assert np.abs(gram - s2).max(initial=0.0) < 1e-12, (basis.sector, step)


def test_spin_ladder_past_the_largest_magnetization_has_no_rows():
    for M, step in ((3, 1), (-3, -1)):
        for basis in _blocks(6, M):
            block = build_spin_ladder(basis, step)
            assert block.matrix.shape == (0, basis.dim) and block.dim == basis.dim


def test_spin_ladder_refuses_a_step_onto_m_zero():
    basis = enumerate_sector_basis(SectorLabel(6, 1, 0))
    with pytest.raises(ValueError, match="away from M = 0"):
        build_spin_ladder(basis, -1)


def test_spin_ladder_of_a_parity_half_is_its_columns_of_the_whole_block():
    for lab in sector_labels(8, 0):
        if lab.parity is None:
            continue
        half = enumerate_sector_basis(lab)
        whole = build_spin_ladder(enumerate_sector_basis(replace(lab, parity=None)), 1)
        block = build_spin_ladder(half, 1)
        assert block.sector == lab
        assert np.array_equal(block.dense(), whole.dense()[:, half.columns])
