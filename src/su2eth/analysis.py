"""Statistical estimators over spin-resolved eigendata.

This module is deliberately ignorant of bases and operators: it consumes
plain arrays of energies, diagonal elements and squared off-diagonal
elements (plus block dimensions) and produces the running averages,
fluctuation measures, Gaussianity ratios, spectral functions and fits.
Pooling convention throughout: records from all admitted momentum blocks
are concatenated, so each block enters every average with weight
proportional to its dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiagonalSeries",
    "SpinMeans",
    "OffDiagonalEnsemble",
    "Binning",
    "BinnedSeries",
    "FitResult",
    "pool_diagonal",
    "running_mean",
    "diagonal_fluctuations",
    "diagonal_vs_spin",
    "build_offdiagonal_ensemble",
    "gaussianity_ratio",
    "spectral_function",
    "variance_scaling",
    "low_frequency_view",
    "fit",
    "scaling_fit",
    "sector_mean_energy",
]


def sector_mean_energy(L: int, s_mean: float, lam: float) -> float:
    """Mean energy of the (S, M=0) sector, valid at half-integer S too.

    Cross-spin ensembles center their energy window here with
    S = (S_a + S_b)/2; the closed form is the first Hamiltonian moment.
    """
    eps2 = (s_mean * (s_mean + 1.0) - 0.75 * L) / (L * (L - 1.0))
    return -(1.0 + lam) * L * eps2


# ─── diagonal estimators ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class DiagonalSeries:
    """Energy-ordered diagonal elements of one observable at fixed spin.

    Records are pooled across the admitted momentum blocks, so a plain mean
    over records is the dimension-weighted block average. block_ids maps
    each record to its entry in block_dims.
    """

    observable: str
    L: int
    lam: float
    S: int
    energies: np.ndarray
    values: np.ndarray
    block_ids: np.ndarray
    block_dims: tuple[int, ...]
    half_width: int = 25

    def __post_init__(self):
        n = len(self.energies)
        if not (len(self.values) == len(self.block_ids) == n):
            raise ValueError("record arrays must share one length")
        if n and np.any(np.diff(self.energies) < 0):
            raise ValueError("energies must be ascending")
        for arr in (self.energies, self.values, self.block_ids):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.energies)

    @property
    def mean_block_dim(self) -> float:
        return float(np.mean(self.block_dims)) if self.block_dims else 0.0


def pool_diagonal(
    observable: str,
    L: int,
    lam: float,
    S: int,
    blocks,
    half_width: int = 25,
) -> DiagonalSeries:
    """Merge per-block (energies, diagonal values) into one sorted series.

    blocks: iterable of (energies, values, block_dim) triples, one per
    admitted momentum block, already restricted to spin S.
    """
    energies, values, ids, dims = [], [], [], []
    for bid, (e, v, d) in enumerate(blocks):
        e = np.asarray(e, dtype=np.float64)
        energies.append(e)
        values.append(np.asarray(v, dtype=np.float64))
        ids.append(np.full(len(e), bid, dtype=np.int32))
        dims.append(int(d))
    if energies:
        e = np.concatenate(energies)
        v = np.concatenate(values)
        i = np.concatenate(ids)
    else:
        e = v = np.empty(0)
        i = np.empty(0, dtype=np.int32)
    order = np.argsort(e, kind="stable")
    return DiagonalSeries(observable, L, lam, S, e[order], v[order],
                          i[order], tuple(dims), half_width)


def running_mean(values: np.ndarray, half_width: int) -> np.ndarray:
    """Centered moving average over up to 2*half_width states, edge-clamped."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if half_width < 1:
        raise ValueError("half_width must be positive")
    idx = np.arange(n)
    lo = np.maximum(idx - half_width, 0)
    hi = np.minimum(idx + half_width, n)
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[hi] - csum[lo]) / (hi - lo)


def diagonal_fluctuations(series: DiagonalSeries, central_fraction: float = 0.5) -> float:
    """Mean |O_aa - running mean| over the central fraction of the spectrum."""
    n = series.size
    window = 2 * series.half_width
    if n < window:
        raise ValueError(f"need at least {window} states for the running average, got {n}")
    if not 0.0 < central_fraction <= 1.0:
        raise ValueError("central_fraction must lie in (0, 1]")
    smooth = running_mean(series.values, series.half_width)
    lo = int(round(n * (1.0 - central_fraction) / 2.0))
    hi = n - lo
    return float(np.mean(np.abs(series.values[lo:hi] - smooth[lo:hi])))


@dataclass(frozen=True)
class SpinMeans:
    """Per-spin averages of diagonal elements inside a narrow energy window.

    means pools states across blocks (dimension weighting); block_means
    averages per-block means with equal block weight, kept alongside since
    the two conventions are reported together. Empty windows are flagged.
    """

    spins: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    counts: np.ndarray
    block_means: np.ndarray
    flagged: np.ndarray


def diagonal_vs_spin(series_list, energy_window: float = 0.025) -> SpinMeans:
    """Window |E|/L <= energy_window, then mean and std per spin value."""
    if not series_list:
        raise ValueError("no diagonal series given")
    L = series_list[0].L
    lam = series_list[0].lam
    obs = series_list[0].observable
    spins, means, stds, counts, block_means, flagged = [], [], [], [], [], []
    for series in sorted(series_list, key=lambda s: s.S):
        if (series.L, series.lam, series.observable) != (L, lam, obs):
            raise ValueError("mixed observables or systems in one spin scan")
        keep = np.abs(series.energies) / L <= energy_window
        vals = series.values[keep]
        spins.append(series.S)
        counts.append(len(vals))
        if len(vals):
            means.append(float(vals.mean()))
            stds.append(float(vals.std()))
            ids = series.block_ids[keep]
            per_block = [vals[ids == b].mean() for b in np.unique(ids)]
            block_means.append(float(np.mean(per_block)))
            flagged.append(False)
        else:
            means.append(math.nan)
            stds.append(math.nan)
            block_means.append(math.nan)
            flagged.append(True)
    return SpinMeans(np.array(spins), np.array(means), np.array(stds),
                     np.array(counts), np.array(block_means), np.array(flagged))


# ─── off-diagonal ensembles and binning ──────────────────────────────────────


@dataclass(frozen=True)
class OffDiagonalEnsemble:
    """Squared off-diagonal elements near the sector mean energy.

    Records keep signed omega = E_a - E_b. block_dims holds one
    (D_row, D_col) pair per contributing block; the effective dimension
    entering L*D scalings is the block average of sqrt(D_row * D_col).
    """

    L: int
    omega: np.ndarray
    abs_sq: np.ndarray
    block_dims: tuple[tuple[int, int], ...]
    e_center: float

    def __post_init__(self):
        if len(self.omega) != len(self.abs_sq):
            raise ValueError("record arrays must share one length")
        for arr in (self.omega, self.abs_sq):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.omega)

    @property
    def effective_dimension(self) -> float:
        if not self.block_dims:
            return 0.0
        return float(np.mean([math.sqrt(da * db) for da, db in self.block_dims]))


def build_offdiagonal_ensemble(
    observable: str,
    L: int,
    lam: float,
    spin_pair: tuple[int, int],
    blocks,
    energy_window: float = 0.025,
) -> OffDiagonalEnsemble:
    """Pool per-block off-diagonal records and apply the energy-window filter.

    blocks: iterable of (e_row, e_col, values, d_row, d_col) with one entry
    per record for the array fields. Retained records satisfy
    |(E_a+E_b)/2 - E_center| / L <= energy_window, where E_center is the
    closed-form sector mean energy at S = (S_a + S_b)/2. observable names
    the ensemble for the caller and is not stored. A block passed more than
    once as the same tuple object (a -k block served its +k mirror's) is
    filtered once and its result reused.
    """
    s_a, s_b = spin_pair
    e_center = sector_mean_energy(L, 0.5 * (s_a + s_b), lam)
    omega_parts, sq_parts, dims = [], [], []
    # id -> (block, kept omega, kept |value|^2); holding the block keeps its id unique
    done: dict[int, tuple] = {}
    for block in blocks:
        e_row, e_col, values, d_row, d_col = block
        dims.append((int(d_row), int(d_col)))
        if id(block) not in done:
            e_row = np.asarray(e_row, dtype=np.float64)
            e_col = np.asarray(e_col, dtype=np.float64)
            keep = np.abs(0.5 * (e_row + e_col) - e_center) / L <= energy_window
            done[id(block)] = (block, (e_row - e_col)[keep], np.abs(np.asarray(values)[keep]) ** 2)
        _, omega, abs_sq = done[id(block)]
        omega_parts.append(omega)
        sq_parts.append(abs_sq)
    if omega_parts:
        omega = np.concatenate(omega_parts)
        abs_sq = np.concatenate(sq_parts)
    else:
        omega = abs_sq = np.empty(0)
    return OffDiagonalEnsemble(L, omega, abs_sq, tuple(dims), e_center)


@dataclass(frozen=True)
class Binning:
    """Sliding-window binning: centers every spacing, window of full width."""

    spacing: float = 0.025
    width: float = 0.175
    min_count: int = 10

    def __post_init__(self):
        if self.spacing <= 0 or self.width <= 0:
            raise ValueError("binning parameters must be positive")


@dataclass(frozen=True)
class BinnedSeries:
    """Windowed means on a regular omega grid.

    values holds the estimator this series represents (ratio, scaled
    variance, ...); bins whose count falls below the binning threshold are
    flagged and carry NaN rather than zeros.
    """

    centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray
    flagged: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        for arr in (self.centers, self.values, self.counts, self.flagged):
            arr.setflags(write=False)

    @property
    def good(self) -> np.ndarray:
        return ~self.flagged


def _windowed_moments(omega, abs_sq, binning: Binning):
    order = np.argsort(omega)
    omega = omega[order]
    abs_sq = abs_sq[order]
    abs_v = np.sqrt(abs_sq)
    first = math.floor(omega[0] / binning.spacing)
    last = math.ceil(omega[-1] / binning.spacing)
    centers = np.arange(first, last + 1) * binning.spacing
    half = 0.5 * binning.width
    lo = np.searchsorted(omega, centers - half, side="left")
    hi = np.searchsorted(omega, centers + half, side="right")
    counts = hi - lo
    c_sq = np.concatenate(([0.0], np.cumsum(abs_sq)))
    c_abs = np.concatenate(([0.0], np.cumsum(abs_v)))
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_sq = (c_sq[hi] - c_sq[lo]) / counts
        mean_abs = (c_abs[hi] - c_abs[lo]) / counts
    return centers, counts, mean_sq, mean_abs


def _binned(ensemble: OffDiagonalEnsemble, binning: Binning, values_from, scale=1.0):
    if ensemble.size == 0:
        empty = np.empty(0)
        return BinnedSeries(empty, empty.copy(), np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=bool), scale)
    centers, counts, mean_sq, mean_abs = _windowed_moments(
        ensemble.omega, ensemble.abs_sq, binning)
    flagged = counts < binning.min_count
    values = values_from(mean_sq, mean_abs)
    values = np.where(flagged, np.nan, values)
    return BinnedSeries(centers, values, counts.astype(np.int64), flagged, scale)


def gaussianity_ratio(ensemble: OffDiagonalEnsemble, binning: Binning = Binning()) -> BinnedSeries:
    """Per-window ratio mean|O|^2 / (mean|O|)^2; pi/2 for Gaussian elements."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return _binned(ensemble, binning, lambda sq, ab: sq / ab ** 2)


def spectral_function(ensemble: OffDiagonalEnsemble, binning: Binning = Binning()) -> BinnedSeries:
    """Smooth envelope L*D*mean|O|^2 on the omega grid, signed omega kept.

    Cross-spin series are not symmetrized; the two omega signs carry
    independent information there.
    """
    scale = float(ensemble.L) * float(ensemble.effective_dimension)
    return _binned(ensemble, binning, lambda sq, ab: scale * sq, scale)


def variance_scaling(ensembles, omega_cut: float) -> "FitResult":
    """Power-law fit of the below-cut variance against L*D over system sizes.

    The average runs over raw records with |omega| <= omega_cut (no
    intermediate binning).
    """
    sizes = sorted({e.L for e in ensembles})
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 system sizes, got {len(sizes)}")
    xs, ys = [], []
    for ens in ensembles:
        keep = np.abs(ens.omega) <= omega_cut
        if not keep.any():
            continue
        xs.append(ens.L * ens.effective_dimension)
        ys.append(float(ens.abs_sq[keep].mean()))
    return _fit_loglog("power_law", np.array(xs), np.array(ys), min_points=3)


def low_frequency_view(series: BinnedSeries, L: int, divide_by_L: bool = False) -> BinnedSeries:
    """Rescale the frequency axis to omega * L^2 (diffusive Thouless scaling).

    divide_by_L additionally rescales the values by 1/L, appropriate for the
    bond-energy observable whose spectral function grows linearly with L.
    """
    factor = 1.0 / L if divide_by_L else 1.0
    return BinnedSeries(series.centers * (L * L), series.values * factor,
                        series.counts.copy(), series.flagged.copy(), series.scale * factor)


# ─── fits ────────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit on log-transformed data."""

    model: str
    params: tuple[float, ...]
    errors: tuple[float, ...]
    fit_range: tuple[float, float]
    residual: float
    n_used: int
    n_excluded: int

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "params": list(self.params),
            "errors": list(self.errors),
            "range": list(self.fit_range),
            "residual": self.residual,
            "n_used": self.n_used,
            "n_excluded": self.n_excluded,
        }


_MODELS = ("exponential", "gaussian", "power_law")


def _fit_loglog(model: str, x: np.ndarray, y: np.ndarray,
                n_excluded: int = 0, fit_range: tuple[float, float] | None = None,
                min_points: int = 5) -> FitResult:
    good = np.isfinite(x) & np.isfinite(y) & (y > 0)
    if model == "power_law":
        good &= x > 0
    n_excluded += int(len(x) - good.sum())
    x, y = x[good], y[good]
    if len(x) < min_points:
        raise ValueError(f"need at least {min_points} usable points to fit, got {len(x)}")
    if model == "exponential":
        t = x
    elif model == "gaussian":
        t = x * x
    elif model == "power_law":
        t = np.log(x)
    else:
        raise ValueError(f"unknown model {model!r}, expected one of {_MODELS}")
    logy = np.log(y)
    if len(x) >= 4:
        coeffs, cov = np.polyfit(t, logy, 1, cov=True)
        errs = np.sqrt(np.maximum(np.diag(cov), 0.0))
    else:
        # too few points for a scaled covariance; parameters still defined
        coeffs = np.polyfit(t, logy, 1)
        errs = np.array([math.nan, math.nan])
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    resid = float(np.linalg.norm(logy - (slope * t + intercept)))
    if model == "exponential":
        params = (math.exp(intercept), -slope)
    elif model == "gaussian":
        params = (math.exp(intercept), -slope)
    else:
        params = (math.exp(intercept), slope)
    errors = (params[0] * float(errs[1]), float(errs[0]))
    if fit_range is None:
        fit_range = (float(x.min()), float(x.max())) if len(x) else (math.nan, math.nan)
    return FitResult(model, params, errors, fit_range,
                     resid, int(len(x)), int(n_excluded))


def fit(model: str, series: BinnedSeries, fit_range: tuple[float, float] | None = None) -> FitResult:
    """Fit exp(-a*w), exp(-b*w^2) or C*w^a to the usable bins of a series.

    Returns (amplitude, rate-or-exponent) with standard errors from the
    unweighted log-space least squares; flagged and nonpositive bins inside
    the range are excluded and counted, bins outside the range are ignored.
    """
    x = series.centers
    y = series.values
    flags = series.flagged
    if fit_range is not None:
        lo, hi = fit_range
        in_range = (x >= lo) & (x <= hi)
        x, y, flags = x[in_range], y[in_range], flags[in_range]
    n_excluded = int(flags.sum())
    return _fit_loglog(model, x[~flags], y[~flags], n_excluded=n_excluded,
                       fit_range=fit_range)


def scaling_fit(x, y) -> FitResult:
    """Power-law fit of loose (x, y) points, e.g. fluctuations against L*D.

    Accepts as few as 3 points since size sweeps are short.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return _fit_loglog("power_law", x, np.abs(y), min_points=3)
