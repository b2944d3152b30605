"""Tail-index and tail-constant estimation from sample batches.

The target relation is a power-law survival function: the probability of
exceeding t behaves like H t^(-alpha) for large t.  The Hill estimator
recovers alpha from the top order statistics; the plateau estimator
recovers H by holding alpha fixed and taking the median of
t^alpha * P(value > t) over a high-quantile window.  Both are
finite-sample diagnostics, so every estimate ships with its standard
error and the report carries drift and depth-stability flags rather
than asymptotic guarantees.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

DEFAULT_QUANTILE_BAND = (0.99, 0.9995)
DEFAULT_BOOTSTRAP = 200
DEFAULT_KS_THRESHOLD = 0.02
_MIN_PLATEAU_POINTS = 50
_SWEEP_POINTS = 12
_SWEEP_DRIFT_THRESHOLD = 0.5
_PLATEAU_SEED = 0x7A11B007
_BOOTSTRAP_BLOCK = 16


class TailError(ValueError):
    """Invalid tail-estimation request."""


@dataclass(frozen=True)
class HillEstimate:
    """Hill tail-index estimate from the top k order statistics."""

    alpha: float
    std_error: float
    k: int

    def __post_init__(self):
        if not self.alpha > 0:
            raise TailError("tail index estimate must be positive")


@dataclass(frozen=True)
class PlateauEstimate:
    """Median-of-window estimate of the tail constant H.

    ``ci_low``/``ci_high`` bracket the central 95% of the bootstrap
    distribution; ``t_low``/``t_high`` delimit the threshold window.
    """

    h: float
    std_error: float
    ci_low: float
    ci_high: float
    t_low: float
    t_high: float
    points_used: int


@dataclass(frozen=True)
class StabilityCheck:
    """Two-sample KS distance between batches at consecutive depths."""

    ks_distance: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class TailReport:
    """Everything the tail analysis produced for one batch."""

    alpha_hat: HillEstimate
    plateau: PlateauEstimate
    survival: list
    sweep: list
    drift_flag: bool
    stability: Optional[StabilityCheck] = None

    def to_dict(self):
        out = {
            "alpha_hat": self.alpha_hat.alpha,
            "alpha_std_error": self.alpha_hat.std_error,
            "k_used": self.alpha_hat.k,
            "plateau_H": self.plateau.h,
            "plateau_std_error": self.plateau.std_error,
            "plateau_ci": [self.plateau.ci_low, self.plateau.ci_high],
            "plateau_range": [self.plateau.t_low, self.plateau.t_high],
            "plateau_points": self.plateau.points_used,
            "survival_points": [list(p) for p in self.survival],
            "hill_sweep": [list(p) for p in self.sweep],
            "drift_flag": self.drift_flag,
        }
        if self.stability is not None:
            out["stability"] = {
                "ks_distance": self.stability.ks_distance,
                "threshold": self.stability.threshold,
                "passed": self.stability.passed,
            }
        return out


def _values_of(batch):
    values = np.asarray(getattr(batch, "values", batch), dtype=float)
    if values.size == 0:
        raise TailError("batch must be nonempty")
    return values


def survival_points(batch, grid):
    """Empirical survival fractions P(value > t) with binomial SEs.

    Parameters
    ----------
    batch : SampleBatch or array_like
    grid : array_like
        Threshold values, sorted ascending.

    Returns
    -------
    list of (t, fraction, std_error)
    """
    values = _values_of(batch)
    grid = np.asarray(grid, dtype=float)
    if grid.size and np.any(np.diff(grid) < 0):
        raise TailError("threshold grid must be sorted ascending")
    ordered = np.sort(values)
    n = values.size
    exceed = n - np.searchsorted(ordered, grid, side="right")
    out = []
    for t, count in zip(grid, exceed):
        p = count / n
        out.append((float(t), float(p), math.sqrt(p * (1.0 - p) / n)))
    return out


def default_tail_count(n):
    """Default order-statistics count for the Hill estimator."""
    if n < 2:
        raise TailError("need at least two values")
    return max(2, min(n - 1, int(n ** 0.6)))


def hill_estimator(batch, k):
    """Hill estimate over the k largest values.

    alpha_hat is k divided by the summed log-ratios of the top k order
    statistics to the (k+1)-th; its standard error is alpha_hat / sqrt(k).

    Raises
    ------
    TailError
        When k is out of range or the tail window touches nonpositive
        values (log-ratios undefined there).
    """
    return _hill_descending(np.sort(_values_of(batch))[::-1], k)


def _hill_descending(ordered, k):
    """hill_estimator over values already sorted in descending order."""
    n = ordered.size
    if not 2 <= k < n:
        raise TailError(f"tail count k={k} must satisfy 2 <= k < {n}")
    top = ordered[: k + 1]
    if top[k] <= 0.0:
        raise TailError("tail window contains nonpositive values")
    denom = float(np.sum(np.log(top[:k] / top[k])))
    if denom <= 0.0:
        raise TailError("tail window has no variation")
    alpha = k / denom
    return HillEstimate(alpha, alpha / math.sqrt(k), k)


def hill_sweep(batch, points=_SWEEP_POINTS):
    """Hill estimates across a geometric grid of tail counts.

    Returns (rows, drift_flag): rows of (k, alpha_hat, std_error), and a
    flag raised when the sweep drifts by more than half the reference
    estimate.  Genuine power laws stay within a band of a few standard
    errors; distributions with lighter tails drift systematically (the
    local index grows with the threshold), which this detects.
    """
    values = _values_of(batch)
    n = values.size
    k_ref = default_tail_count(n)
    k_lo = max(50, int(round(n ** 0.35)))
    k_hi = max(k_lo + 1, min(n - 1, int(round(n ** 0.75))))
    if k_lo >= n:
        raise TailError("too few values for a tail-count sweep")
    ks = np.unique(np.geomspace(k_lo, k_hi, points).astype(np.int64))
    ordered = np.sort(values)[::-1]
    rows = []
    estimates = []
    for k in ks:
        est = _hill_descending(ordered, int(k))
        rows.append((int(k), est.alpha, est.std_error))
        estimates.append(est.alpha)
    estimates = np.asarray(estimates)
    reference = _hill_descending(ordered, k_ref).alpha
    drift = float(estimates.max() - estimates.min()) / reference
    return rows, drift > _SWEEP_DRIFT_THRESHOLD


def plateau_constant(batch, alpha, quantile_band=DEFAULT_QUANTILE_BAND,
                     bootstrap=DEFAULT_BOOTSTRAP, rng=None):
    """Tail-constant estimate: median of t^alpha * P(value > t) over a window.

    The window holds the order statistics between the two quantiles of
    ``quantile_band``; each gives one plateau point.  Confidence limits
    come from bootstrap resampling of replications, implemented as a
    multinomial redraw of the window's bin counts so each resample costs
    only the window size.  Resamples are drawn a fixed block of rows at
    a time and reduced to their medians at once, so memory holds one
    block of window-sized rows whatever ``bootstrap`` is; a stacked
    multinomial draw equals its blocks drawn in turn, so the result does
    not depend on the block size.

    Parameters
    ----------
    batch : SampleBatch or array_like
    alpha : float
        Tail index to hold fixed (estimated or exact).
    quantile_band : pair of floats
        Strictly increasing, within (0.9, 0.9999).
    bootstrap : int
        Resample count for the CI (0 disables, SE and CI collapse to h).
    rng : numpy Generator, optional
        Bootstrap stream; a fixed internal seed is used when omitted so
        reports are reproducible by default.

    Raises
    ------
    TailError
        When fewer than 50 window points are available.
    """
    values = _values_of(batch)
    if not alpha > 0:
        raise TailError("alpha must be positive")
    q_lo, q_hi = quantile_band
    if not (0.9 < q_lo < q_hi < 0.9999):
        raise TailError("quantile band must be increasing within (0.9, 0.9999)")
    ordered = np.sort(values)
    n = values.size
    i_lo = int(math.floor(q_lo * n))
    i_hi = int(math.ceil(q_hi * n))
    window = ordered[i_lo:i_hi]
    window = window[window > 0]
    if window.size < _MIN_PLATEAU_POINTS:
        raise TailError(
            f"only {window.size} window points; need {_MIN_PLATEAU_POINTS}"
        )
    grid = np.unique(window)
    exceed = n - np.searchsorted(ordered, grid, side="right")
    powers = grid ** alpha
    h = float(np.median(powers * exceed / n))
    if bootstrap < 1:
        return PlateauEstimate(h, 0.0, h, h, float(grid[0]), float(grid[-1]),
                               int(grid.size))
    if rng is None:
        rng = np.random.default_rng(_PLATEAU_SEED)
    # bin the sample by the grid: counts below, between grid points, above
    edges = np.searchsorted(ordered, grid, side="right")
    bin_share = np.diff(np.concatenate(([0], edges, [n]))) / n
    boot = np.empty(bootstrap)
    for first in range(0, bootstrap, _BOOTSTRAP_BLOCK):
        rows = boot[first:first + _BOOTSTRAP_BLOCK]
        draws = rng.multinomial(n, bin_share, size=rows.size)
        # exceedance of grid[i] = everything in bins strictly above it
        upper = draws[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]
        np.median(powers * upper / n, axis=1, out=rows)
    lo, hi = np.quantile(boot, [0.025, 0.975])
    se = float(boot.std(ddof=1))
    return PlateauEstimate(h, se, float(lo), float(hi),
                           float(grid[0]), float(grid[-1]), int(grid.size))


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup_t |F_a(t) - F_b(t)|.

    Both samples must be nonempty.  The empirical CDFs are read at every
    pooled point, as ``scipy.stats.ks_2samp`` reads them, so the two
    statistics agree bit for bit.
    """
    a = np.sort(a)
    b = np.sort(b)
    grid = np.concatenate([a, b])
    gap = (np.searchsorted(a, grid, side="right") / a.size
           - np.searchsorted(b, grid, side="right") / b.size)
    return float(np.abs(gap).max())


def stability_diagnostic(batch_low, batch_high, threshold=DEFAULT_KS_THRESHOLD):
    """Two-sample KS distance between depth-n and deeper batches.

    A small distance indicates the truncation depth has converged in
    distribution.  Both batches must come from the same model and kind,
    with the first at the strictly smaller depth.
    """
    kind_low = getattr(batch_low, "kind", None)
    kind_high = getattr(batch_high, "kind", None)
    if kind_low is not None and kind_low != kind_high:
        raise TailError("stability check needs batches of the same kind")
    fp_low = getattr(batch_low, "model_fingerprint", None)
    fp_high = getattr(batch_high, "model_fingerprint", None)
    if fp_low is not None and fp_low != fp_high:
        raise TailError("stability check needs batches of the same model")
    d_low = getattr(batch_low, "depth", None)
    d_high = getattr(batch_high, "depth", None)
    if d_low is not None and d_high is not None and not d_low < d_high:
        raise TailError("first batch must be the shallower one")
    ks = ks_distance(_values_of(batch_low), _values_of(batch_high))
    return StabilityCheck(ks, threshold, ks <= threshold)


def default_survival_grid(values, points=40):
    """Geometric threshold grid from the median to the 0.9995 quantile."""
    positive = values[values > 0]
    if positive.size < 2:
        raise TailError("need positive values for a survival grid")
    lo = float(np.quantile(positive, 0.5))
    hi = float(np.quantile(positive, 0.9995))
    if not lo < hi:
        raise TailError("degenerate survival grid")
    return np.geomspace(lo, hi, points)


def tail_report(batch, alpha=None, k=None, quantile_band=DEFAULT_QUANTILE_BAND,
                bootstrap=DEFAULT_BOOTSTRAP, stability_batch=None,
                ks_threshold=DEFAULT_KS_THRESHOLD, rng=None):
    """Assemble the full tail analysis for one batch.

    ``alpha`` fixes the plateau exponent; by default the Hill estimate
    is used.  ``stability_batch`` adds the depth-convergence KS check.
    """
    values = _values_of(batch)
    hill = hill_estimator(values, k if k is not None else
                          default_tail_count(values.size))
    sweep, drift_flag = hill_sweep(values)
    plateau = plateau_constant(values, alpha if alpha is not None else hill.alpha,
                               quantile_band, bootstrap, rng=rng)
    survival = survival_points(values, default_survival_grid(values))
    stability = None
    if stability_batch is not None:
        stability = stability_diagnostic(batch, stability_batch, ks_threshold)
    return TailReport(hill, plateau, survival, sweep, drift_flag, stability)
