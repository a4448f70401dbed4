"""Statistical estimators on synthetic data plus one real spin-scan example."""

from __future__ import annotations

import math

import numpy as np
import pytest

from su2eth import analysis
from su2eth.analysis import (
    Binning,
    DiagonalSeries,
    OffDiagonalEnsemble,
    build_offdiagonal_ensemble,
    diagonal_fluctuations,
    diagonal_vs_spin,
    fit,
    gaussianity_and_spectral_function,
    gaussianity_ratio,
    low_frequency_view,
    pool_diagonal,
    running_mean,
    scaling_fit,
    spectral_function,
    variance_point,
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
                          np.zeros(n, dtype=np.int32), (n,), half_width)


def test_series_validation():
    with pytest.raises(ValueError, match="ascending"):
        _series([1.0, 0.5, 2.0], [0, 0, 0])
    with pytest.raises(ValueError, match="one length"):
        DiagonalSeries("A", 10, 3.0, 0, np.arange(3.0), np.zeros(2),
                       np.zeros(3, dtype=np.int32), (3,))


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
                            np.array([0, 0, 0, 1], dtype=np.int32), (3, 1))
    scan = diagonal_vs_spin([series])
    assert scan.means[0] == pytest.approx(2.0)        # 8/4
    assert scan.block_means[0] == pytest.approx(3.0)  # (1 + 5)/2


# ─── off-diagonal ensembles ─────────────────────────────────────────────────


def _ensemble(omega, abs_sq, L=12, dims=((64, 64),)):
    omega = np.asarray(omega, dtype=float)
    return OffDiagonalEnsemble(L, omega, np.asarray(abs_sq, dtype=float), dims)


def test_build_ensemble_window_and_sign():
    L, lam, pair, window = 10, 3.0, (0, 2), 0.025
    center = moments(L, 1, lam).E0
    # one pair at the window center and one far outside; then, on each side of the
    # center, one pair inside the window's edge and one outside it, which pins the center
    mids = center + window * L * np.array([0.0, 200.0, 0.9, -0.9, 1.1, -1.1])
    omega = np.array([0.2, 1.0, 0.3, 0.4, 0.5, 0.6])
    blocks = [(mids + omega / 2, mids - omega / 2, np.array([0.5 + 0.0j, 9.9, 1, 2, 3, 4]), 3, 4)]
    ens = build_offdiagonal_ensemble("B", L, lam, pair, blocks, window)
    assert ens.size == 3
    assert ens.omega == pytest.approx([0.2, 0.3, 0.4])
    assert ens.abs_sq == pytest.approx([0.25, 1.0, 4.0])
    assert ens.effective_dimension == pytest.approx(math.sqrt(12))


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
    good = series.values[series.good]
    assert np.allclose(good, 12 * eff * 1e-4, rtol=1e-12)


def test_low_frequency_view_rescales_axes():
    ens = _ensemble(np.linspace(-1, 1, 100), np.full(100, 2e-3), L=10)
    series = spectral_function(ens, Binning(0.5, 1.0, 5))
    low = low_frequency_view(series, 10, divide_by_L=True)
    assert np.allclose(low.centers, series.centers * 100)
    ok = series.good
    assert np.allclose(low.values[ok], series.values[ok] / 10)
    plain = low_frequency_view(series, 10)
    assert np.allclose(plain.values[ok], series.values[ok])


def _fsum_windows(ens, binning):
    """Per window index, (weighted count, mean |O|^2, mean |O|) by math.fsum, same membership rule."""
    out = {}
    half = 0.5 * binning.width
    first = math.floor(ens.omega.min() / binning.spacing)
    last = math.ceil(ens.omega.max() / binning.spacing)
    for j in range(first, last + 1):
        c = j * binning.spacing
        inside = (ens.omega >= c - half) & (ens.omega <= c + half)
        w = ens.weights[inside].astype(float)
        sq = ens.abs_sq[inside]
        count = int(w.sum())
        if count:
            out[j] = (count, math.fsum(w * sq) / count, math.fsum(w * np.sqrt(sq)) / count)
    return out


def test_window_means_keep_precision_across_magnitudes():
    # |O|^2 falls from 1e4 to 1e-16 from one window to the next; a difference of
    # running sums over the whole ensemble would lose every small window
    rng = np.random.RandomState(3)
    omega, abs_sq = [], []
    for j, exponent in enumerate(range(4, -17, -1)):
        omega.append(j + rng.uniform(-0.2, 0.2, size=40))
        abs_sq.append(10.0 ** exponent * rng.uniform(0.5, 1.5, size=40))
    omega, abs_sq = np.concatenate(omega), np.concatenate(abs_sq)
    weights = rng.randint(1, 3, size=omega.size).astype(np.uint8)
    ens = OffDiagonalEnsemble(12, omega, abs_sq, ((64, 64),), weights)
    binning = Binning(1.0, 0.5, 10)
    want = _fsum_windows(ens, binning)
    gamma, spec = gaussianity_ratio(ens, binning), spectral_function(ens, binning)
    checked = 0
    for series, value in ((gamma, lambda sq, ab: sq / ab ** 2),
                          (spec, lambda sq, ab: 12 * 64 * sq)):
        for center, v, count, flagged in zip(series.centers, series.values, series.counts,
                                             series.flagged):
            j = round(center / binning.spacing)
            assert count == want.get(j, (0,))[0], center
            if flagged:
                continue
            ref = value(*want[j][1:])
            assert abs(v - ref) <= 1e-13 * abs(ref), (center, v, ref)
            checked += 1
    assert checked == 2 * 21


def test_weight_two_equals_listing_every_element_twice():
    rng = np.random.RandomState(5)
    omega = rng.uniform(-3, 3, size=5000)
    abs_sq = rng.exponential(1e-3, size=omega.size)
    twice = _ensemble(np.concatenate([omega, omega]), np.concatenate([abs_sq, abs_sq]))
    once = OffDiagonalEnsemble(12, omega, abs_sq, ((64, 64),),
                               np.full(omega.size, 2, dtype=np.uint8))
    assert once.weighted_size == twice.size
    binning = Binning(0.025, 0.175, 10)
    # the two lists sum each window in a different order, each sum within 1e-15 relative;
    # the ratio mean|O|^2 / (mean|O|)^2 takes one sum of |O|^2 and two of |O|
    for estimator, rtol in ((spectral_function, 1e-15), (gaussianity_ratio, 3e-15)):
        a, b = estimator(twice, binning), estimator(once, binning)
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.flagged, b.flagged)
        good = a.good
        assert good.sum() > 100
        assert np.allclose(b.values[good], a.values[good], rtol=rtol, atol=0.0)
    assert variance_point(once, 1.0) == pytest.approx(variance_point(twice, 1.0), rel=1e-15)


def test_ensemble_weights_default_to_ones_and_must_be_positive_integers():
    ens = _ensemble([0.1, 0.2], [1.0, 2.0])
    assert ens.weights.tolist() == [1, 1] and ens.weighted_size == 2
    for bad in (np.array([1.0, 1.0]), np.array([1, 0]), np.array([1])):
        with pytest.raises(ValueError):
            OffDiagonalEnsemble(12, np.array([0.1, 0.2]), np.array([1.0, 2.0]), (), bad)


def test_variance_point_weights_its_below_cut_mean():
    ens = OffDiagonalEnsemble(10, np.array([0.5, -1.0, 3.0]), np.array([1.0, 4.0, 100.0]),
                              ((16, 4),), np.array([2, 1, 1], dtype=np.uint8))
    assert variance_point(ens, 1.0) == (10, 80.0, 2.0)  # (2*1 + 4) / 3
    L, ld, mean = variance_point(ens, 0.1)
    assert (L, ld) == (10, 80.0) and math.isnan(mean)


def test_variance_scaling_leaves_out_sizes_without_records_below_the_cut():
    points = [(L, L * 2.0 ** (L / 2), 0.9 / (L * 2.0 ** (L / 2))) for L in (10, 12, 14)]
    res = variance_scaling(points + [(16, 1e3, math.nan)])
    assert res.n_used == 3 and res.n_excluded == 0
    assert res.params[1] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError, match="need at least 3 usable points to fit, got 2"):
        variance_scaling(points[:2] + [(16, 1e3, math.nan)])


# ─── fits ───────────────────────────────────────────────────────────────────


def _binned_series(centers, values, flagged=None):
    centers = np.asarray(centers, dtype=float)
    values = np.asarray(values, dtype=float)
    if flagged is None:
        flagged = np.zeros(len(centers), dtype=bool)
    from su2eth.analysis import BinnedSeries
    return BinnedSeries(centers, values, np.full(len(centers), 99),
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
    res = variance_scaling([variance_point(ens, 10.0) for ens in ensembles])
    assert res.params[1] == pytest.approx(-1.0, abs=1e-12)
    assert res.params[0] == pytest.approx(0.9, rel=1e-9)


def test_variance_scaling_needs_three_sizes():
    ens = [_ensemble([0.1], [1.0], L=10), _ensemble([0.1], [1.0], L=12)]
    with pytest.raises(ValueError, match="need at least 3 system sizes"):
        variance_scaling([variance_point(e, 1.0) for e in ens])


# ─── one real spin scan (module-scale data) ─────────────────────────────────


@pytest.fixture(scope="module")
def l14_diag_blocks():
    """Diagonal tables of both observables at L = 14, lam = 3."""
    from su2eth.basis import enumerate_sector_basis, sector_labels
    from su2eth.operators import (CouplingSpec, build_hamiltonian,
                                  build_observable, build_spin_ladder)
    from su2eth.spectral import diagonalize_block, expectations, resolve_spins

    out = {"A": {}, "B": {}}
    for lab in sector_labels(14, 0):
        if lab.k_index in (0, 14 // 2):
            continue
        basis = enumerate_sector_basis(lab)
        if basis.dim == 0:
            continue
        spec = resolve_spins(*diagonalize_block(build_hamiltonian(basis, CouplingSpec(3.0))),
                             build_spin_ladder(basis, 1))
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


@pytest.mark.parametrize("weighted", [False, True])
def test_one_window_pass_serves_gamma_and_the_spectral_function(monkeypatch, weighted):
    rng = np.random.default_rng(5)
    omega, abs_sq = rng.normal(0.0, 2.0, 5000), rng.exponential(1e-3, 5000)
    weights = rng.integers(1, 3, 5000).astype(np.uint8) if weighted else None

    def ensemble():
        return OffDiagonalEnsemble(10, omega.copy(), abs_sq.copy(), ((30, 40), (20, 20)),
                                   None if weights is None else weights.copy())

    passes = []
    windowed_moments = analysis._windowed_moments
    monkeypatch.setattr(analysis, "_windowed_moments",
                        lambda ens, binning: passes.append(binning) or windowed_moments(ens, binning))
    binning = Binning(0.025, 0.175, 10)
    together = gaussianity_and_spectral_function(ensemble(), binning)
    assert len(passes) == 1
    apart = gaussianity_ratio(ensemble(), binning), spectral_function(ensemble(), binning)
    assert len(passes) == 3
    for got, want in zip(together, apart):
        for name in ("centers", "values", "counts", "flagged"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
