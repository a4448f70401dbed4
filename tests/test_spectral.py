"""Block diagonalization, spin resolution, matrix-element tables."""

from __future__ import annotations

import collections
import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from su2eth import spectral
from su2eth.basis import SectorLabel, enumerate_sector_basis, sector_labels
from su2eth.operators import (
    BlockOperator,
    CouplingSpec,
    build_hamiltonian,
    build_observable,
    build_spin_ladder,
    build_total_spin_squared,
)
from su2eth.spectral import (
    diagonalize_block,
    eigen_residual,
    expectations,
    matrix_elements,
    resolve_spins,
)


def _spectrum(lab, lam=3.0):
    basis = enumerate_sector_basis(lab)
    H = build_hamiltonian(basis, CouplingSpec(lam))
    energies, vectors = diagonalize_block(H)
    return basis, resolve_spins(energies, vectors, build_spin_ladder(basis, 1))


def _ladder_residuals(basis, step, spectrum):
    # |<S^2> - S(S+1)| per labelled state, with <S^2> = |S^+- v|^2 + M(M +- 1)
    # taken through the ladder block, as resolve_spins guards it
    image = build_spin_ladder(basis, step).matrix @ spectrum.vectors
    M, spins = basis.sector.M, spectrum.spins
    return np.abs(np.einsum("ij,ij->j", image, image) + M * (M + step) - spins * (spins + 1.0))


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


def test_sparse_eigen_residual_matches_dense_product():
    basis, spec = _spectrum(SectorLabel(10, 0, 2, -1))
    H = build_hamiltonian(basis, CouplingSpec(3.0))
    dense = np.abs(H.dense() @ spec.vectors - spec.vectors * spec.energies).max()
    assert abs(eigen_residual(H, spec.energies, spec.vectors) - dense) < 1e-14


def test_non_hermitian_block_rejected():
    lab = SectorLabel(8, 0, 1, 1)
    skewed = build_hamiltonian(enumerate_sector_basis(lab), CouplingSpec(3.0)).dense()
    skewed[0, 1] += 1e-3
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize_block(BlockOperator(lab, sp.csr_matrix(skewed), "H"))


def test_inaccurate_eigensolver_rejected(monkeypatch):
    lab = SectorLabel(8, 0, 1, 1)
    H = build_hamiltonian(enumerate_sector_basis(lab), CouplingSpec(3.0))
    eigh = spectral.sla.eigh

    def perturbed(m, **kwargs):
        energies, vectors = eigh(m, **kwargs)
        vectors[:, 0] += 1e-6 * vectors[:, 1]
        return energies, vectors

    monkeypatch.setattr(spectral.sla, "eigh", perturbed)
    with pytest.raises(RuntimeError, match=f"too large for {re.escape(str(lab))}"):
        diagonalize_block(H)


def test_nan_in_a_block_is_rejected_before_the_eigensolve():
    lab = SectorLabel(8, 0, 1, 1)
    block = build_hamiltonian(enumerate_sector_basis(lab), CouplingSpec(3.0)).dense()
    block[0, 1] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize_block(BlockOperator(lab, sp.csr_matrix(block), "H"))


def test_nan_eigenvector_fails_the_residual_check(monkeypatch):
    lab = SectorLabel(8, 0, 1, 1)
    H = build_hamiltonian(enumerate_sector_basis(lab), CouplingSpec(3.0))
    eigh = spectral.sla.eigh

    def poisoned(m, **kwargs):
        energies, vectors = eigh(m, **kwargs)
        vectors[0, 0] = np.nan
        return energies, vectors

    monkeypatch.setattr(spectral.sla, "eigh", poisoned)
    with pytest.raises(RuntimeError, match="residual nan too large"):
        diagonalize_block(H)


# ─── spin resolution ────────────────────────────────────────────────────────


@pytest.mark.parametrize("lam", [3.0, 0.0])
@pytest.mark.parametrize("L", [6, 8, 10, 12, 14])
def test_ladder_spins_equal_spin_squared_spins(L, lam):
    # every k >= 0 block; at M = +-1 the ladder is S^+ and S^- respectively.
    # S^2, built independently of the ladder, gives every labelled vector
    # the ladder's spin, sharply: the cluster rotation leaves no mixture
    labels = [(lab, 1) for lab in sector_labels(L, 0)]
    if L <= 8:
        labels += [(lab, M) for M in (1, -1) for lab in sector_labels(L, M)]
    for lab, step in labels:
        if lab.k_index < 0:
            continue
        basis = enumerate_sector_basis(lab)
        energies, vectors = diagonalize_block(build_hamiltonian(basis, CouplingSpec(lam)))
        spectrum = resolve_spins(energies, vectors, build_spin_ladder(basis, step))
        assert np.array_equal(spectrum.energies, energies)
        assert _ladder_residuals(basis, step, spectrum).max(initial=0.0) < 1e-10, lab
        s2 = expectations(build_total_spin_squared(basis), spectrum.vectors)
        spins = spectrum.spins
        assert np.array_equal(spins, np.rint((np.sqrt(1.0 + 4.0 * s2) - 1.0) / 2.0)), lab
        assert np.abs(s2 - spins * (spins + 1.0)).max(initial=0.0) < 1e-10, lab


def _same_spin_pairs(spectrum):
    # neighbours of one spin whose energies lie within resolve_spins' cluster
    # tolerance: a rotation among them is left to LAPACK
    energies = spectrum.energies
    if not energies.size:  # an empty parity half
        return 0
    tol = 1e-9 * max(1.0, float(energies[-1] - energies[0]))
    return sum(int(np.sum(np.diff(energies[spectrum.spins == s]) <= tol))
               for s in np.unique(spectrum.spins))


@pytest.mark.parametrize("lam", [3.0, 0.0])
@pytest.mark.parametrize("L", [12, 14])
def test_admitted_blocks_hold_no_degenerate_same_spin_pair(L, lam):
    # the default exclude_k drops k = 0 and pi, so no default output depends
    # on a rotation inside a same-spin cluster; at lam = 0 the dropped halves
    # hold such pairs, which shows the count can see one
    admitted = reflective = 0
    for lab in sector_labels(L, 0):
        if lab.k_index >= 0:
            pairs = _same_spin_pairs(_spectrum(lab, lam)[1])
            if lab.reflective:
                reflective += pairs
            else:
                admitted += pairs
    assert admitted == 0
    if lam == 0.0:
        assert reflective > 0


@pytest.mark.parametrize("label", ["S+", "S-"])
def test_spin_resolution_rejects_a_nan_block(label):
    lab = SectorLabel(8, 0, 1, 1)
    basis = enumerate_sector_basis(lab)
    energies, vectors = diagonalize_block(build_hamiltonian(basis, CouplingSpec(3.0)))
    matrix = build_spin_ladder(basis, 1 if label == "S+" else -1).matrix.copy()
    matrix.data[0] = np.nan
    with pytest.raises(RuntimeError, match="spin resolution failed"):
        resolve_spins(energies, vectors, BlockOperator(lab, matrix, label))


@pytest.mark.parametrize("L, k", [(8, 1), (10, 0)])
def test_spin_resolution_rejects_spins_of_the_other_flip_parity(L, k):
    # the ladder block of the z = +1 sector, labelled z = -1: every residual is
    # as small as before, and every spin is off by an odd number for that label
    lab = next(lab for lab in sector_labels(L, 0) if lab.k_index == k and lab.z2_parity == 1)
    basis = enumerate_sector_basis(lab)
    energies, vectors = diagonalize_block(build_hamiltonian(basis, CouplingSpec(3.0)))
    ladder = build_spin_ladder(basis, 1)
    spins = resolve_spins(energies, vectors, ladder).spins
    assert np.all((-1) ** (spins + L // 2) == 1)
    relabelled = dataclasses.replace(ladder, sector=dataclasses.replace(lab, z2_parity=-1))
    with pytest.raises(RuntimeError, match=re.escape(
            f"spin resolution failed in {relabelled.sector}: state 0 has S = {spins[0]}, "
            f"but (-1)^(S + L/2) is not z = -1")):
        resolve_spins(energies, vectors, relabelled)


@pytest.mark.parametrize("build", [build_total_spin_squared,
                                   lambda basis: build_hamiltonian(basis, CouplingSpec(3.0))])
def test_spin_resolution_rejects_a_square_block_by_its_label(build):
    basis = enumerate_sector_basis(SectorLabel(8, 0, 1, 1))
    square = build(basis)
    energies, vectors = diagonalize_block(build_hamiltonian(basis, CouplingSpec(3.0)))
    with pytest.raises(ValueError, match=f"ladder block, got {re.escape(square.label)}"):
        resolve_spins(energies, vectors, square)


def test_spin_multiplicities_l6():
    # the L = 6, M = 0 block holds 20 states: 5 + 9 + 5 + 1 across S = 0..3
    counts = collections.Counter()
    for _, spec in _all_spectra(6, 3.0):
        counts.update(spec.spins.tolist())
    assert dict(counts) == {0: 5, 1: 9, 2: 5, 3: 1}


def test_spin_residuals_small_even_at_integrable_point():
    """lambda = 0 has extra degeneracies; spin labels must stay sharp."""
    for basis, spec in _all_spectra(8, 0.0):
        assert np.max(_ladder_residuals(basis, 1, spec)) < 1e-8
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
    basis, spec = _spectrum(SectorLabel(8, 0, 1, 1), lam=0.0)
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


def _laid_out(obs, spec, spin_filter, part):
    # the records as laid out from scratch: the outer product of bra and ket
    # states in row-major order, then every field gathered per pair
    if spin_filter is None:
        rows = cols = np.arange(spec.dim)
    else:
        rows, cols = (np.flatnonzero(spec.spins == s) for s in spin_filter)
    block = spec.vectors[:, rows].T @ (obs.matrix @ spec.vectors[:, cols])
    alpha, beta, values = np.repeat(rows, len(cols)), np.tile(cols, len(rows)), block.reshape(-1)
    if part == "offdiagonal":
        keep = alpha != beta
        alpha, beta, values = alpha[keep], beta[keep], values[keep]
    ref = np.empty(len(alpha), dtype=spectral.RECORD_DTYPE)
    ref["alpha"], ref["beta"] = alpha, beta
    ref["e_a"], ref["e_b"] = spec.energies[alpha], spec.energies[beta]
    ref["s_a"], ref["s_b"] = spec.spins[alpha], spec.spins[beta]
    ref["value"] = values
    return ref


def _checked_records(obs, spec, spin_filter, part):
    """The table's records, held field by field, bit for bit, to the reference layout."""
    table = matrix_elements(obs, spec, spin_filter=spin_filter, part=part)
    recs = table.records
    assert recs is table.records  # laid out once, then kept
    assert recs.dtype == spectral.RECORD_DTYPE
    with pytest.raises(ValueError, match="read-only"):
        recs["value"][:1] = 0.0
    ref = _laid_out(obs, spec, spin_filter, part)
    for name in spectral.RECORD_DTYPE.names:
        assert recs[name].tobytes() == ref[name].tobytes(), (spec.sector, spin_filter, part, name)
    return recs


def test_offdiagonal_part_excludes_diagonal():
    for basis, spec in _all_spectra(8, 3.0):
        B = build_observable(basis, "B")
        for spin_filter in (None, *((s, s) for s in spec.spin_dims())):
            recs = _checked_records(B, spec, spin_filter, "offdiagonal")
            n = spec.dim if spin_filter is None else spec.spin_dims()[spin_filter[0]]
            assert len(recs) == n * (n - 1)
            assert np.all(recs["alpha"] != recs["beta"])


def test_all_part_is_full_outer_product():
    basis, spec = _spectrum(SectorLabel(6, 0, 1, -1))
    A = build_observable(basis, "A")
    table = matrix_elements(A, spec, part="all")
    assert len(table.records) == spec.dim ** 2
    for basis, spec in _all_spectra(8, 3.0):
        recs = _checked_records(build_observable(basis, "A"), spec, None, "all")
        assert len(recs) == spec.dim ** 2


def test_spin_filter_restricts_both_sides():
    basis, spec = _spectrum(SectorLabel(8, 0, 1, 1))
    B = build_observable(basis, "B")
    table = matrix_elements(B, spec, spin_filter=(0, 2), part="all")
    assert np.all(table.records["s_a"] == 0)
    assert np.all(table.records["s_b"] == 2)
    n0 = int(np.sum(spec.spins == 0))
    n2 = int(np.sum(spec.spins == 2))
    assert len(table.records) == n0 * n2
    for basis, spec in _all_spectra(8, 3.0):
        B = build_observable(basis, "B")
        dims = spec.spin_dims()
        for pair in ((a, b) for a in dims for b in dims):
            for part in ("all", "offdiagonal"):
                recs = _checked_records(B, spec, pair, part)
                assert np.all(recs["s_a"] == pair[0]) and np.all(recs["s_b"] == pair[1])
                assert len(recs) == dims[pair[0]] * (dims[pair[1]] - (part == "offdiagonal"
                                                                      and pair[0] == pair[1]))


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
