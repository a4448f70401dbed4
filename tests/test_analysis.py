"""Statistical estimators on synthetic data plus one real spin-scan example."""

from __future__ import annotations

import math

import numpy as np
import pytest

from su2eth.analysis import (
    Binning,
    DiagonalSeries,
    OffDiagonalEnsemble,
    build_offdiagonal_ensemble,
    diagonal_fluctuations,
    diagonal_vs_spin,
    fit,
    gaussianity_ratio,
    low_frequency_view,
    pool_diagonal,
    running_mean,
    scaling_fit,
    sector_mean_energy,
    spectral_function,
    variance_scaling,
)
from su2eth.oracle import moments

# ─── running averages and diagonal series ───────────────────────────────────


def test_running_mean_matches_naive_loop():
    rng = np.random.RandomState(3)
    values = rng.randn(57)
    for hw in (1, 4, 25):
        got = running_mean(values, hw)
        naive = np.array([
            values[max(i - hw, 0): min(i + hw, len(values))].mean()
            for i in range(len(values))
        ])
        assert np.allclose(got, naive, atol=1e-13)


def test_running_mean_constant_is_exact():
    out = running_mean(np.full(40, 2.5), 6)
    assert np.all(out == 2.5)


def test_running_mean_rejects_nonpositive_width():
    with pytest.raises(ValueError, match="half_width"):
        running_mean(np.ones(10), 0)


def _series(energies, values, S=0, half_width=4, observable="A", L=10, lam=3.0):
    n = len(energies)
    return DiagonalSeries(observable, L, lam, S,
                          np.asarray(energies, dtype=float),
                          np.asarray(values, dtype=float),
                          np.full(n, 1.0 / n), np.zeros(n, dtype=np.int32),
                          (n,), half_width)


def test_series_validation():
    with pytest.raises(ValueError, match="ascending"):
        _series([1.0, 0.5, 2.0], [0, 0, 0])
    with pytest.raises(ValueError, match="one length"):
        DiagonalSeries("A", 10, 3.0, 0, np.arange(3.0), np.zeros(2),
                       np.full(3, 1 / 3), np.zeros(3, dtype=np.int32), (3,))
    with pytest.raises(ValueError, match="sum to 1"):
        DiagonalSeries("A", 10, 3.0, 0, np.arange(3.0), np.zeros(3),
                       np.full(3, 0.5), np.zeros(3, dtype=np.int32), (3,))


def test_fluctuations_vanish_for_smooth_series():
    s = _series(np.arange(30.0), np.full(30, 0.2), half_width=5)
    assert diagonal_fluctuations(s) < 1e-15


def test_fluctuations_require_enough_states():
    s = _series(np.arange(6.0), np.zeros(6), half_width=25)
    with pytest.raises(ValueError, match="need at least 50 states"):
        diagonal_fluctuations(s)


def test_fluctuations_validate_central_fraction():
    s = _series(np.arange(30.0), np.zeros(30), half_width=5)
    with pytest.raises(ValueError, match="central_fraction"):
        diagonal_fluctuations(s, central_fraction=0.0)


def test_pool_diagonal_sorts_and_weights():
    blocks = [
        (np.array([3.0, 1.0]), np.array([30.0, 10.0]), 2),
        (np.array([2.0]), np.array([20.0]), 1),
    ]
    series = pool_diagonal("A", 10, 3.0, 1, blocks, half_width=2)
    assert np.array_equal(series.energies, [1.0, 2.0, 3.0])
    assert np.array_equal(series.values, [10.0, 20.0, 30.0])
    assert series.weights.sum() == pytest.approx(1.0)
    assert series.block_dims == (2, 1)
    assert series.mean_block_dim == 1.5
    assert list(series.block_ids) == [0, 1, 0]


# ─── spin scans ─────────────────────────────────────────────────────────────


def test_spin_scan_windows_and_flags():
    inside = _series([-0.1, 0.0, 0.1], [1.0, 2.0, 3.0], S=0)
    outside = _series([5.0, 6.0, 7.0], [9.0, 9.0, 9.0], S=2)
    scan = diagonal_vs_spin([outside, inside], energy_window=0.025)
    assert list(scan.spins) == [0, 2]
    assert scan.means[0] == pytest.approx(2.0)
    assert scan.counts[0] == 3
    assert scan.flagged[1]
    assert math.isnan(scan.means[1])
    assert scan.counts[1] == 0


def test_spin_scan_rejects_mixed_inputs():
    a = _series([0.0], [1.0], S=0, observable="A")
    b = _series([0.0], [1.0], S=1, observable="B")
    with pytest.raises(ValueError, match="mixed"):
        diagonal_vs_spin([a, b])
    with pytest.raises(ValueError, match="no diagonal series"):
        diagonal_vs_spin([])


def test_spin_scan_block_mean_convention():
    # two blocks of different size: state pooling and per-block averaging
    # weight the same data differently
    n = 4
    e = np.zeros(n)
    series = DiagonalSeries("A", 10, 3.0, 0, e,
                            np.array([1.0, 1.0, 1.0, 5.0]),
                            np.full(n, 1 / n),
                            np.array([0, 0, 0, 1], dtype=np.int32), (3, 1))
    scan = diagonal_vs_spin([series])
    assert scan.means[0] == pytest.approx(2.0)        # 8/4
    assert scan.block_means[0] == pytest.approx(3.0)  # (1 + 5)/2


# ─── off-diagonal ensembles ─────────────────────────────────────────────────


def _ensemble(omega, abs_sq, L=12, dims=((64, 64),), pair=(1, 1), lam=3.0):
    omega = np.asarray(omega, dtype=float)
    return OffDiagonalEnsemble("B", L, lam, pair, np.zeros(len(omega)),
                               omega, np.asarray(abs_sq, dtype=float),
                               dims, 0.025, 0.0)


def test_build_ensemble_window_and_sign():
    L, lam, pair = 10, 3.0, (0, 2)
    center = sector_mean_energy(L, 1.0, lam)
    # one pair at the window center, one far outside
    blocks = [(
        np.array([center + 0.1, center + 50.0]),
        np.array([center - 0.1, center + 49.0]),
        np.array([0.5 + 0.0j, 9.9]),
        3, 4,
    )]
    ens = build_offdiagonal_ensemble("B", L, lam, pair, blocks)
    assert ens.size == 1
    assert ens.omega[0] == pytest.approx(0.2)
    assert ens.abs_sq[0] == pytest.approx(0.25)
    assert ens.e_center == pytest.approx(center)
    assert ens.effective_dimension == pytest.approx(math.sqrt(12))


def test_sector_mean_energy_matches_integer_oracle():
    for L, S, lam in [(10, 0, 3.0), (12, 2, 0.0), (8, 1, 0.7)]:
        assert sector_mean_energy(L, S, lam) == pytest.approx(
            moments(L, S, lam).E0, abs=1e-12)


def test_binning_validation():
    with pytest.raises(ValueError, match="positive"):
        Binning(spacing=0.0)
    with pytest.raises(ValueError, match="positive"):
        Binning(width=-1.0)


def test_empty_ensemble_gives_empty_series():
    ens = _ensemble([], [])
    series = spectral_function(ens)
    assert series.centers.size == 0
    assert series.good.size == 0


def test_bins_below_min_count_are_flagged_nan():
    omega = np.concatenate([np.full(20, 0.5), np.full(3, 5.0)])
    ens = _ensemble(omega, np.ones(23))
    series = gaussianity_ratio(ens, Binning(spacing=0.5, width=0.4, min_count=10))
    by_center = dict(zip(np.round(series.centers, 3), range(len(series.centers))))
    dense = by_center[0.5]
    sparse = by_center[5.0]
    assert not series.flagged[dense]
    assert series.flagged[sparse]
    assert math.isnan(series.values[sparse])
    assert series.counts[sparse] == 3


def test_planted_gaussian_ratio_hits_half_pi():
    rng = np.random.RandomState(7)
    x = rng.normal(0.0, 0.3, size=100000)
    ens = _ensemble(rng.uniform(-3, 3, size=x.size), x * x)
    series = gaussianity_ratio(ens, Binning(10.0, 30.0, 10))
    vals = series.values[series.good]
    assert vals.size >= 1
    assert abs(vals[0] - math.pi / 2) < 0.02


def test_planted_exponential_magnitude_ratio_is_two():
    rng = np.random.RandomState(11)
    mag = rng.exponential(1.7, size=100000)
    ens = _ensemble(rng.uniform(-3, 3, size=mag.size), mag * mag)
    series = gaussianity_ratio(ens, Binning(10.0, 30.0, 10))
    assert abs(series.values[series.good][0] - 2.0) < 0.03


def test_spectral_function_scale():
    ens = _ensemble(np.linspace(-1, 1, 200), np.full(200, 1e-4),
                    L=12, dims=((64, 64), (16, 4)))
    eff = (64 + 8) / 2
    series = spectral_function(ens, Binning(0.5, 1.0, 10))
    assert series.scale == pytest.approx(12 * eff)
    good = series.values[series.good]
    assert np.allclose(good, 12 * eff * 1e-4, rtol=1e-12)


def test_low_frequency_view_rescales_axes():
    ens = _ensemble(np.linspace(-1, 1, 100), np.full(100, 2e-3), L=10)
    series = spectral_function(ens, Binning(0.5, 1.0, 5))
    low = low_frequency_view(series, 10, divide_by_L=True)
    assert np.allclose(low.centers, series.centers * 100)
    ok = series.good
    assert np.allclose(low.values[ok], series.values[ok] / 10)
    assert low.scale == pytest.approx(series.scale / 10)
    plain = low_frequency_view(series, 10)
    assert np.allclose(plain.values[ok], series.values[ok])


# ─── fits ───────────────────────────────────────────────────────────────────


def _binned_series(centers, values, flagged=None):
    centers = np.asarray(centers, dtype=float)
    values = np.asarray(values, dtype=float)
    if flagged is None:
        flagged = np.zeros(len(centers), dtype=bool)
    from su2eth.analysis import BinnedSeries
    return BinnedSeries("synthetic", centers, values, values.copy(),
                        np.sqrt(np.abs(values)), np.full(len(centers), 99),
                        np.asarray(flagged, dtype=bool))


def test_fit_recovers_noiseless_models():
    x = np.linspace(0.3, 4.0, 40)
    cases = [
        ("exponential", 1.7 * np.exp(-2.2 * x), (1.7, 2.2)),
        ("gaussian", 3.0 * np.exp(-0.4 * x * x), (3.0, 0.4)),
        ("power_law", 0.8 * x ** 2.3, (0.8, 2.3)),
    ]
    for model, y, expect in cases:
        res = fit(model, _binned_series(x, y))
        assert res.model == model
        assert res.params[0] == pytest.approx(expect[0], rel=1e-9)
        assert res.params[1] == pytest.approx(expect[1], rel=1e-9)
        assert res.residual < 1e-9
        assert res.n_used == 40
        assert res.n_excluded == 0


def test_fit_counts_flagged_and_nonpositive_inside_range():
    x = np.linspace(1.0, 10.0, 10)
    y = 2.0 * x ** 1.5
    flagged = np.zeros(10, dtype=bool)
    flagged[3] = True
    y = y.copy()
    y[5] = -1.0  # unusable but not flagged
    res = fit("power_law", _binned_series(x, y, flagged), fit_range=(1.0, 10.0))
    assert res.n_used == 8
    assert res.n_excluded == 2
    assert res.params[1] == pytest.approx(1.5, abs=1e-12)


def test_fit_range_is_a_filter_not_an_exclusion():
    x = np.linspace(1.0, 10.0, 10)
    y = 2.0 * x ** 1.5
    y[8:] = 1e6  # poisoned points sit outside the fit range
    res = fit("power_law", _binned_series(x, y), fit_range=(0.5, 8.0))
    assert res.params[1] == pytest.approx(1.5, abs=1e-10)
    assert res.n_used == 8
    assert res.n_excluded == 0
    assert res.fit_range == (0.5, 8.0)


def test_fit_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        fit("lorentzian", _binned_series([1, 2, 3, 4, 5], [1, 1, 1, 1, 1]))


def test_fit_needs_enough_points():
    with pytest.raises(ValueError, match="need at least 5 usable points"):
        fit("exponential", _binned_series([1, 2, 3], [1.0, 0.5, 0.25]))


def test_scaling_fit_accepts_three_points():
    x = np.array([100.0, 1000.0, 10000.0])
    y = 5.0 * x ** -1.0
    res = scaling_fit(x, y)
    assert res.model == "power_law"
    assert res.params[1] == pytest.approx(-1.0, abs=1e-12)
    assert res.params[0] == pytest.approx(5.0, rel=1e-9)
    assert res.n_used == 3


def test_variance_scaling_recovers_planted_exponent():
    ensembles = []
    for L in (10, 12, 14, 16):
        D = 2 ** (L / 2)
        var = 0.9 / (L * D)
        ensembles.append(_ensemble(np.linspace(-1, 1, 50), np.full(50, var),
                                   L=L, dims=((D, D),)))
    res = variance_scaling(ensembles, omega_cut=10.0)
    assert res.params[1] == pytest.approx(-1.0, abs=1e-12)
    assert res.params[0] == pytest.approx(0.9, rel=1e-9)


def test_variance_scaling_needs_three_sizes():
    ens = [_ensemble([0.1], [1.0], L=10), _ensemble([0.1], [1.0], L=12)]
    with pytest.raises(ValueError, match="need at least 3 system sizes"):
        variance_scaling(ens, omega_cut=1.0)


# ─── one real spin scan (module-scale data) ─────────────────────────────────


@pytest.fixture(scope="module")
def l14_diag_blocks():
    """Diagonal tables of both observables at L = 14, lam = 3."""
    from su2eth.basis import enumerate_sector_basis, sector_labels
    from su2eth.operators import (CouplingSpec, build_hamiltonian,
                                  build_observable, build_total_spin_squared)
    from su2eth.spectral import diagonalize_block, expectations, resolve_spins

    out = {"A": {}, "B": {}}
    for lab in sector_labels(14, 0):
        if lab.momentum_excluded:
            continue
        basis = enumerate_sector_basis(lab)
        if basis.dim == 0:
            continue
        spec = resolve_spins(*diagonalize_block(build_hamiltonian(basis, CouplingSpec(3.0))),
                             build_total_spin_squared(basis))
        for which in ("A", "B"):
            values = expectations(build_observable(basis, which), spec.vectors)
            for S in np.unique(spec.spins):
                sel = spec.spins == S
                out[which].setdefault(int(S), []).append(
                    (spec.energies[sel], values[sel], int(sel.sum())))
    return out


@pytest.mark.parametrize("which", ["A", "B"])
def test_real_spin_scan_is_smooth(l14_diag_blocks, which):
    """Adjacent-spin jumps of the windowed means stay comparable in size."""
    series = [pool_diagonal(which, 14, 3.0, S, blocks, half_width=8)
              for S, blocks in sorted(l14_diag_blocks[which].items())]
    scan = diagonal_vs_spin(series, energy_window=0.025)
    ok = ~scan.flagged
    means = scan.means[ok]
    assert means.size >= 5
    jumps = np.abs(np.diff(means))
    assert jumps.max() < 5.0 * np.median(jumps)


def test_real_spin_means_track_oracle(l14_diag_blocks):
    # window centered at E = 0: the infinite-temperature prediction applies
    blocks = l14_diag_blocks["A"][0]
    series = pool_diagonal("A", 14, 3.0, 0, blocks, half_width=8)
    scan = diagonal_vs_spin([series], energy_window=0.025)
    from su2eth.oracle import diagonal_prediction
    pred = diagonal_prediction("A", 14, 0, 3.0, 0.0)
    assert scan.means[0] == pytest.approx(pred, abs=0.01)
