"""Block diagonalization, spin resolution, matrix-element tables."""

from __future__ import annotations

import collections

import numpy as np
import pytest

from su2eth.basis import SectorLabel, enumerate_sector_basis, sector_labels
from su2eth.operators import (
    CouplingSpec,
    build_hamiltonian,
    build_observable,
    build_total_spin_squared,
)
from su2eth.spectral import (
    diagonalization_count,
    diagonalize_block,
    expectations,
    matrix_elements,
    reset_diagonalization_count,
    resolve_spins,
)


def _spectrum(lab, lam=3.0, tol=None):
    basis = enumerate_sector_basis(lab)
    H = build_hamiltonian(basis, CouplingSpec(lam))
    energies, vectors = diagonalize_block(H)
    return basis, resolve_spins(energies, vectors, build_total_spin_squared(basis), degeneracy_tol=tol)


def _all_spectra(L, lam):
    out = []
    for lab in sector_labels(L, 0):
        basis = enumerate_sector_basis(lab)
        if basis.dim == 0:
            continue
        out.append(_spectrum(lab, lam))
    return out


# ─── diagonalization ────────────────────────────────────────────────────────


def test_energies_ascend_and_vectors_are_orthonormal():
    basis, spec = _spectrum(SectorLabel(10, 0, 1, 1))
    assert np.all(np.diff(spec.energies) >= -1e-12)
    gram = spec.vectors.conj().T @ spec.vectors
    assert np.allclose(gram, np.eye(basis.dim), atol=1e-12)


def test_eigen_residuals():
    basis, spec = _spectrum(SectorLabel(10, 0, 2, -1))
    H = build_hamiltonian(basis, CouplingSpec(3.0)).dense()
    resid = H @ spec.vectors - spec.vectors * spec.energies
    assert np.max(np.abs(resid)) < 1e-11


def test_diagonalization_counter():
    reset_diagonalization_count()
    assert diagonalization_count() == 0
    _spectrum(SectorLabel(6, 0, 1, 1))
    _spectrum(SectorLabel(6, 0, 1, -1))
    assert diagonalization_count() == 2
    reset_diagonalization_count()
    assert diagonalization_count() == 0


# ─── spin resolution ────────────────────────────────────────────────────────


def test_spin_multiplicities_l6():
    # the L = 6, M = 0 block holds 20 states: 5 + 9 + 5 + 1 across S = 0..3
    counts = collections.Counter()
    for _, spec in _all_spectra(6, 3.0):
        counts.update(spec.spins.tolist())
    assert dict(counts) == {0: 5, 1: 9, 2: 5, 3: 1}


def test_spin_residuals_small_even_at_integrable_point():
    """lambda = 0 has extra degeneracies; spin labels must stay sharp."""
    for _, spec in _all_spectra(8, 0.0):
        assert np.max(spec.spin_residuals) < 1e-8
        assert np.issubdtype(spec.spins.dtype, np.integer)
        assert np.all(spec.spins >= 0)
        assert np.all(spec.spins <= 4)


def test_spin_dims_tally_matches_labels():
    _, spec = _spectrum(SectorLabel(8, 0, 1, 1))
    dims = spec.spin_dims()
    assert sum(dims.values()) == spec.dim
    for s, n in dims.items():
        assert int(np.sum(spec.spins == s)) == n


def test_energies_match_within_degenerate_clusters():
    # eigenvalues inside a resolved cluster may be reordered by spin, but
    # the multiset of energies is untouched
    basis, spec = _spectrum(SectorLabel(8, 0, 1, 1), lam=0.0, tol=1e-9)
    H = build_hamiltonian(basis, CouplingSpec(0.0)).dense()
    assert np.allclose(np.sort(np.linalg.eigvalsh(H)), np.sort(spec.energies), atol=1e-11)


# ─── matrix elements ────────────────────────────────────────────────────────


def test_diagonal_part_matches_direct_sandwich():
    basis, spec = _spectrum(SectorLabel(8, 0, 1, 1))
    B = build_observable(basis, "B")
    values = expectations(B, spec.vectors)
    assert values.shape == (spec.dim,)
    direct = np.array([
        spec.vectors[:, a].conj() @ (B.dense() @ spec.vectors[:, a])
        for a in range(spec.dim)
    ])
    assert np.allclose(values, direct, atol=1e-12)
    # the real view drops nothing: a Hermitian operator has real diagonals
    assert np.abs(direct.imag).max() < 1e-12


def test_offdiagonal_part_excludes_diagonal():
    basis, spec = _spectrum(SectorLabel(8, 0, 1, 1))
    B = build_observable(basis, "B")
    table = matrix_elements(B, spec, part="offdiagonal")
    assert len(table.records) == spec.dim * (spec.dim - 1)
    assert np.all(table.records["alpha"] != table.records["beta"])


def test_all_part_is_full_outer_product():
    basis, spec = _spectrum(SectorLabel(6, 0, 1, -1))
    A = build_observable(basis, "A")
    table = matrix_elements(A, spec, part="all")
    assert len(table.records) == spec.dim ** 2


def test_spin_filter_restricts_both_sides():
    basis, spec = _spectrum(SectorLabel(8, 0, 1, 1))
    B = build_observable(basis, "B")
    table = matrix_elements(B, spec, spin_filter=(0, 2), part="all")
    assert np.all(table.records["s_a"] == 0)
    assert np.all(table.records["s_b"] == 2)
    n0 = int(np.sum(spec.spins == 0))
    n2 = int(np.sum(spec.spins == 2))
    assert len(table.records) == n0 * n2


def test_part_validation():
    basis, spec = _spectrum(SectorLabel(6, 0, 1, 1))
    A = build_observable(basis, "A")
    with pytest.raises(ValueError, match="unknown part"):
        matrix_elements(A, spec, part="upper")


def test_mismatched_sectors_rejected():
    _, spec = _spectrum(SectorLabel(6, 0, 1, 1))
    other, _ = _spectrum(SectorLabel(6, 0, 2, 1))
    A = build_observable(other, "A")
    with pytest.raises(ValueError, match="does not match the spectrum"):
        matrix_elements(A, spec)


def test_hermiticity_of_element_table():
    basis, spec = _spectrum(SectorLabel(8, 0, 2, -1))
    B = build_observable(basis, "B")
    table = matrix_elements(B, spec, part="all")
    recs = table.records
    lookup = {(a, b): v for a, b, v in zip(recs["alpha"], recs["beta"], recs["value"])}
    for (a, b), v in lookup.items():
        assert lookup[(b, a)] == pytest.approx(np.conjugate(v), abs=1e-12)
