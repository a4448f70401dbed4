"""Symmetry-adapted basis construction: labels, orbits, completeness."""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from su2eth.basis import (
    MAX_SITES,
    MIN_SITES,
    SectorLabel,
    enumerate_sector_basis,
    expand_to_product_basis,
    expansion_matrix,
    flip_bits,
    magnetization_states,
    reflect_bits,
    sector_labels,
    translate_bits,
)

# ─── bit primitives ─────────────────────────────────────────────────────────


def test_magnetization_states_counts_and_order():
    for L in (4, 6, 8):
        for n_up in range(L + 1):
            states = magnetization_states(L, n_up)
            assert len(states) == math.comb(L, n_up)
            assert np.all(np.diff(states) > 0)
            assert all(int(s).bit_count() == n_up for s in states)


def test_magnetization_states_match_the_enumeration_of_combinations():
    for L in range(1, 19):
        for n_up in range(L + 1):
            states = magnetization_states(L, n_up)
            expected = sorted(sum(1 << i for i in pos) for pos in combinations(range(L), n_up))
            assert states.dtype == np.int64 and states.tolist() == expected
            assert not states.flags.writeable


def test_magnetization_states_out_of_range_is_empty():
    assert magnetization_states(6, 7).size == 0
    assert magnetization_states(6, -1).size == 0


def test_translate_full_cycle_is_identity():
    L = 8
    states = magnetization_states(L, 3)
    rolled = states.copy()
    for _ in range(L):
        rolled = translate_bits(rolled, L)
    assert np.array_equal(rolled, states)


def test_translate_moves_one_site():
    # site 0 occupied -> site 1 occupied after one shift
    assert translate_bits(np.array([0b0001]), 4)[0] == 0b0010
    assert translate_bits(np.array([0b1000]), 4)[0] == 0b0001


def test_flip_is_an_involution_and_negates_m():
    L = 6
    states = magnetization_states(L, 2)
    flipped = flip_bits(states, L)
    assert all(int(s).bit_count() == 4 for s in flipped)
    assert np.array_equal(flip_bits(flipped, L), states)


# ─── sector labels ──────────────────────────────────────────────────────────


def test_label_validation():
    with pytest.raises(ValueError):
        SectorLabel(5, 0, 0, 1)  # odd L
    with pytest.raises(ValueError):
        SectorLabel(MIN_SITES - 2, 0, 0, 1)
    with pytest.raises(ValueError):
        SectorLabel(MAX_SITES + 2, 0, 0, 1)
    with pytest.raises(ValueError):
        SectorLabel(6, 4, 0)  # |M| > L/2
    with pytest.raises(ValueError):
        SectorLabel(6, 0, 0)  # M = 0 needs a parity
    with pytest.raises(ValueError):
        SectorLabel(6, 1, 0, 1)  # parity meaningless away from M = 0


def test_reflection_parity_only_at_k_zero_and_pi():
    assert SectorLabel(6, 0, 0, 1, -1).parity == -1
    assert SectorLabel(6, 1, -3, None, 1).k_index == 3
    for k in (1, -2):
        with pytest.raises(ValueError, match="parity"):
            SectorLabel(6, 0, k, 1, 1)
    with pytest.raises(ValueError, match="parity"):
        SectorLabel(6, 0, 0, 1, 0)


def test_k_index_normalized_into_signed_window():
    assert SectorLabel(6, 1, 5).k_index == -1
    assert SectorLabel(6, 1, -3).k_index == 3
    assert SectorLabel(8, 1, 4).k_index == 4
    assert SectorLabel(8, 1, -4).k_index == 4


def test_sector_labels_m0_carries_both_parities_at_every_k():
    labels = sector_labels(6, 0)
    assert len(labels) == 16
    seen = {(lab.k_index, lab.z2_parity) for lab in labels}
    assert seen == {(n, z) for n in range(-2, 4) for z in (1, -1)}
    halves = {(lab.k_index, lab.z2_parity, lab.parity) for lab in labels if lab.parity}
    assert halves == {(n, z, p) for n in (0, 3) for z in (1, -1) for p in (1, -1)}


def test_sector_labels_m_nonzero_has_no_parity():
    labels = sector_labels(6, 1)
    assert len(labels) == 8
    assert all(lab.z2_parity is None for lab in labels)
    assert [lab.k_index for lab in labels] == [-2, -1, 0, 0, 1, 2, 3, 3]
    assert [lab.parity for lab in labels] == [None, None, 1, -1, None, None, 1, -1]


# ─── completeness and orthonormality ────────────────────────────────────────


@pytest.mark.parametrize("L,M", [(6, 0), (6, 1), (8, 0), (8, 2), (10, 0)])
def test_sector_dimensions_cover_magnetization_block(L, M):
    """Symmetry blocks partition the fixed-M product space state by state."""
    total = sum(enumerate_sector_basis(lab).dim for lab in sector_labels(L, M))
    assert total == math.comb(L, L // 2 + M)


def test_expansion_matrix_is_an_isometry():
    for lab in sector_labels(6, 0):
        basis = enumerate_sector_basis(lab)
        if basis.dim == 0:
            continue
        U = expansion_matrix(basis)
        assert U.shape == (len(magnetization_states(6, 3)), basis.dim)
        gram = U.conj().T @ U
        assert np.allclose(gram, np.eye(basis.dim), atol=1e-13)


@pytest.mark.parametrize("L, M", [(6, 0), (6, 1), (8, 0), (8, 1)])
def test_pk_basis_is_unitary_with_at_most_two_orbits_per_column(L, M):
    # U spans a whole (k, z) sector; a parity half takes some of its columns
    for lab in dict.fromkeys(replace(lab, parity=None) for lab in sector_labels(L, M)):
        basis = enumerate_sector_basis(lab)
        u = np.zeros((basis.dim, basis.dim), dtype=complex)
        np.add.at(u, (np.arange(basis.dim)[:, None], basis.pk_columns), basis.pk_coeffs)
        assert np.abs(u.conj().T @ u - np.eye(basis.dim)).max() < 1e-14, lab
        assert (np.count_nonzero(u, axis=0) <= 2).all(), lab


@pytest.mark.parametrize("L, M", [(6, 0), (6, 1), (8, 0), (8, 1)])
def test_every_basis_vector_is_pk_invariant(L, M):
    # (PK v)(s) = conj(v(P s)) on product states
    states = magnetization_states(L, L // 2 + M)
    reflected = np.searchsorted(states, reflect_bits(states, L))
    for lab in sector_labels(L, M):
        vectors = expansion_matrix(enumerate_sector_basis(lab))
        assert np.abs(vectors[reflected].conj() - vectors).max(initial=0.0) < 1e-14, lab


@pytest.mark.parametrize("L, M", [(6, 0), (6, 1), (8, 0), (8, 1), (10, 0), (10, 1)])
def test_reflection_is_diagonal_on_the_pk_columns_at_k_zero_and_pi(L, M):
    # P v = p v for every column of parity p; a half spans exactly its columns
    states = magnetization_states(L, L // 2 + M)
    reflected = np.searchsorted(states, reflect_bits(states, L))
    halves = [lab for lab in sector_labels(L, M) if lab.parity is not None]
    assert len(halves) == (8 if M == 0 else 4)
    for lab in halves:
        whole = enumerate_sector_basis(replace(lab, parity=None))
        half = enumerate_sector_basis(lab)
        vectors = expansion_matrix(whole)
        assert np.abs(vectors[reflected] - whole.parities * vectors).max() < 1e-14, lab
        assert np.array_equal(half.columns, np.flatnonzero(whole.parities == lab.parity))
        assert np.array_equal(expansion_matrix(half), vectors[:, half.columns]), lab
    for lab in sector_labels(L, M):
        assert (enumerate_sector_basis(lab).parities is None) == (lab.k_index not in (0, L // 2))


def test_blocks_of_one_sector_are_mutually_orthogonal():
    labels = sector_labels(6, 0)
    mats = [expansion_matrix(enumerate_sector_basis(lab)) for lab in labels]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i].size and mats[j].size:
                cross = mats[i].conj().T @ mats[j]
                assert np.max(np.abs(cross)) < 1e-13


def test_expand_to_product_basis_matches_matrix_column():
    lab = SectorLabel(8, 0, 1, -1)
    basis = enumerate_sector_basis(lab)
    states = magnetization_states(8, 4)
    U = expansion_matrix(basis)
    index = {int(s): i for i, s in enumerate(states)}
    for col in range(basis.dim):
        amplitudes = expand_to_product_basis(basis, col)
        dense = np.zeros(len(states), dtype=complex)
        for state, amp in amplitudes.items():
            dense[index[state]] = amp
        assert np.allclose(dense, U[:, col], atol=1e-14)


def test_representatives_are_orbit_minima():
    basis = enumerate_sector_basis(SectorLabel(8, 1, 2))
    for rep in basis.reps:
        shifted = np.array([rep], dtype=np.int64)
        for _ in range(8):
            shifted = translate_bits(shifted, 8)
            assert shifted[0] >= rep


@pytest.mark.parametrize("L,M", [(8, 0), (10, 1), (12, 0)])
def test_each_state_maps_to_its_orbits_representative(L, M):
    # the shared tables hold each state's canonical position once, for every (k, z) basis
    basis = enumerate_sector_basis(sector_labels(L, M)[0])
    tabs = basis.tables
    assert np.array_equal(tabs.states[tabs.canon_positions], tabs.canon)
    assert not tabs.canon_positions.flags.writeable
    for lab in sector_labels(L, M):
        basis = enumerate_sector_basis(lab)
        assert basis.tables is tabs
        # a state's row is its representative's row, -1 for an orbit the sector does not admit
        rows = np.full(len(tabs.states), -1)
        rows[np.searchsorted(tabs.states, basis.reps)] = np.arange(len(basis.reps))
        assert np.array_equal(basis.rep_index, rows[np.searchsorted(tabs.states, tabs.canon)])


def test_parity_split_dimensions_l6():
    # k = 1 at L = 6, M = 0: three states split 1 even + 2 odd under the flip
    even = enumerate_sector_basis(SectorLabel(6, 0, 1, 1)).dim
    odd = enumerate_sector_basis(SectorLabel(6, 0, 1, -1)).dim
    assert (even, odd) == (1, 2)
