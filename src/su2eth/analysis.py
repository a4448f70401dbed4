"""Statistical estimators over spin-resolved eigendata.

This module is deliberately ignorant of bases and operators: it consumes
plain arrays of energies, diagonal elements and squared off-diagonal
elements (plus block dimensions) and produces the running averages,
fluctuation measures, Gaussianity ratios, spectral functions and fits.
Pooling convention throughout: each admitted momentum block enters every
average with weight proportional to its dimension. Diagonal records of all
admitted blocks are concatenated. An off-diagonal ensemble holds each
distinct element once, with an integer weight: the number of admitted
blocks that share it. A +-k pair of blocks, equal bit for bit, enters with
weight 2, and a block whose mirror is not admitted, or a parity half at
k = 0 or pi, with weight 1. Window counts are weighted counts and window
means weighted means, so an ensemble equals the one listing every element
once per admitted block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle

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
    "variance_point",
    "variance_scaling",
    "low_frequency_view",
    "fit",
    "scaling_fit",
]

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

    Records keep signed omega = E_a - E_b. weights holds each record's
    integer multiplicity, the number of admitted blocks it stands for; it
    defaults to ones. block_dims holds one (D_row, D_col) pair per admitted
    block; the effective dimension entering L*D scalings is the block
    average of sqrt(D_row * D_col).
    """

    L: int
    omega: np.ndarray
    abs_sq: np.ndarray
    block_dims: tuple[tuple[int, int], ...]
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.weights is None:
            object.__setattr__(self, "weights", np.ones(len(self.omega), dtype=np.uint8))
        if not len(self.omega) == len(self.abs_sq) == len(self.weights):
            raise ValueError("record arrays must share one length")
        if self.weights.dtype.kind not in "iu" or (self.weights.size and self.weights.min() < 1):
            raise ValueError("weights must be positive integers")
        for arr in (self.omega, self.abs_sq, self.weights):
            arr.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.omega)

    @property
    def weighted_size(self) -> int:
        """The number of records, each counted with its weight."""
        return int(self.weights.sum(dtype=np.int64))

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
    closed-form sector mean energy oracle.moments(L, S, lam).E0 at
    S = (S_a + S_b)/2, the one oracle-check audits. observable names the
    ensemble for the caller and is not stored.
    """
    s_a, s_b = spin_pair
    e_center = oracle.moments(L, (s_a + s_b) / 2, lam).E0
    omega_parts, sq_parts, dims = [], [], []
    for e_row, e_col, values, d_row, d_col in blocks:
        dims.append((int(d_row), int(d_col)))
        e_row = np.asarray(e_row, dtype=np.float64)
        e_col = np.asarray(e_col, dtype=np.float64)
        keep = np.abs(0.5 * (e_row + e_col) - e_center) / L <= energy_window
        omega_parts.append((e_row - e_col)[keep])
        sq_parts.append(np.abs(np.asarray(values)[keep]) ** 2)
    if omega_parts:
        omega = np.concatenate(omega_parts)
        abs_sq = np.concatenate(sq_parts)
    else:
        omega = abs_sq = np.empty(0)
    return OffDiagonalEnsemble(L, omega, abs_sq, tuple(dims))


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

    def __post_init__(self):
        for arr in (self.centers, self.values, self.counts, self.flagged):
            arr.setflags(write=False)

    @property
    def good(self) -> np.ndarray:
        return ~self.flagged


def _windowed_moments(ensemble: OffDiagonalEnsemble, binning: Binning):
    """Centers, weighted counts and weighted means of |O|^2 and |O| of every window.

    A window holds the records with |omega - center| <= width/2. Each
    window's sums run over its own records only, so a window of small
    values next to windows of large ones keeps its relative precision.
    """
    order = np.argsort(ensemble.omega)
    omega = ensemble.omega[order]
    first = math.floor(omega[0] / binning.spacing)
    last = math.ceil(omega[-1] / binning.spacing)
    centers = np.arange(first, last + 1) * binning.spacing
    half = 0.5 * binning.width
    # each window's first record and the one past its last, interleaved for reduceat
    bounds = np.empty(2 * len(centers), dtype=np.intp)
    bounds[0::2] = np.searchsorted(omega, centers - half, side="left")
    bounds[1::2] = np.searchsorted(omega, centers + half, side="right")
    del omega
    # one zero past the last record, so that a window ending there has a valid end index;
    # take with mode="clip" writes in place, where the default mode would buffer a copy
    n = len(order)
    w = np.zeros(n + 1, dtype=ensemble.weights.dtype)
    np.take(ensemble.weights, order, out=w[:n], mode="clip")
    sq = np.zeros(n + 1)
    np.take(ensemble.abs_sq, order, out=sq[:n], mode="clip")
    del order
    ab = np.sqrt(sq)
    sq *= w
    ab *= w
    empty = bounds[0::2] == bounds[1::2]

    def window_sums(values, dtype=None):
        # reduceat gives values[lo] for an empty window (lo == hi), which holds no records
        sums = np.add.reduceat(values, bounds, dtype=dtype)[0::2]
        sums[empty] = 0
        return sums

    counts = window_sums(w, np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_sq = window_sums(sq) / counts
        mean_abs = window_sums(ab) / counts
    return centers, counts, mean_sq, mean_abs


def _binned(ensemble: OffDiagonalEnsemble, binning: Binning, values_from):
    if ensemble.size == 0:
        empty = np.empty(0)
        return BinnedSeries(empty, empty.copy(), np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=bool))
    centers, counts, mean_sq, mean_abs = _windowed_moments(ensemble, binning)
    flagged = counts < binning.min_count
    values = values_from(mean_sq, mean_abs)
    values = np.where(flagged, np.nan, values)
    return BinnedSeries(centers, values, counts, flagged)


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
    return _binned(ensemble, binning, lambda sq, ab: scale * sq)


def variance_point(ensemble: OffDiagonalEnsemble, omega_cut: float) -> tuple[int, float, float]:
    """(L, L*D, weighted mean |O|^2 over |omega| <= omega_cut) of one size's ensemble.

    The mean runs over raw records (no intermediate binning); it is NaN
    when no record lies below the cut.
    """
    keep = np.abs(ensemble.omega) <= omega_cut
    w = ensemble.weights[keep]
    total = int(w.sum(dtype=np.int64))
    mean = float(np.sum(ensemble.abs_sq[keep] * w) / total) if total else math.nan
    return ensemble.L, ensemble.L * ensemble.effective_dimension, mean


def variance_scaling(points) -> "FitResult":
    """Power-law fit of the below-cut variance against L*D over system sizes.

    points: one (L, L*D, mean) triple per size, as variance_point gives
    them; a size with no record below the cut (NaN mean) is left out.
    """
    points = list(points)
    sizes = {L for L, _, _ in points}
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 system sizes, got {len(sizes)}")
    usable = np.array([(x, y) for _, x, y in points if not math.isnan(y)]).reshape(-1, 2)
    return _fit_loglog("power_law", usable[:, 0], usable[:, 1], min_points=3)


def low_frequency_view(series: BinnedSeries, L: int, divide_by_L: bool = False) -> BinnedSeries:
    """Rescale the frequency axis to omega * L^2 (diffusive Thouless scaling).

    divide_by_L additionally rescales the values by 1/L, appropriate for the
    bond-energy observable whose spectral function grows linearly with L.
    """
    factor = 1.0 / L if divide_by_L else 1.0
    return BinnedSeries(series.centers * (L * L), series.values * factor,
                        series.counts.copy(), series.flagged.copy())


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
    params = (math.exp(intercept), slope if model == "power_law" else -slope)
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
