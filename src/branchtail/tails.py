"""Tail-index and tail-constant estimation from sample batches.

The target relation is a power-law survival function: the probability of
exceeding t behaves like H t^(-alpha) for large t.  The Hill estimator
recovers alpha from the top order statistics; the plateau estimator
recovers H by holding alpha fixed and taking the median of
t^alpha * P(value > t) over a high-quantile window.  Both are
finite-sample diagnostics, so every estimate ships with its standard
error and the report carries a drift flag rather than asymptotic
guarantees.

The plateau's error comes from a bootstrap of the replications that
redraws only the values above the window's lowest point: their number
is binomial and, given it, they are uniform picks among those values,
which is the law a full redraw of the sample gives them.

Every estimator sorts the batch it is given, except an ``_Ascending``,
the carrier of values already sorted: that is read as it is, and its
order is never tested.  ``tail_report`` sorts once and hands the carrier
to each public estimator.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

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
class TailReport:
    """Everything the tail analysis produced for one batch."""

    alpha_hat: HillEstimate
    plateau: PlateauEstimate
    survival: list
    sweep: list
    drift_flag: bool

    def to_dict(self):
        return {
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


class _Ascending(NamedTuple):
    """Batch values sorted ascending, handed from one estimator to the next."""

    values: np.ndarray


def _ascending(batch):
    """The batch's values sorted ascending; an ``_Ascending`` passes as is."""
    if isinstance(batch, _Ascending):
        return batch
    values = np.asarray(getattr(batch, "values", batch), dtype=float)
    if values.size == 0:
        raise TailError("batch must be nonempty")
    return _Ascending(np.sort(values))


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
    ordered = _ascending(batch).values
    grid = np.asarray(grid, dtype=float)
    if grid.size and np.any(np.diff(grid) < 0):
        raise TailError("threshold grid must be sorted ascending")
    n = ordered.size
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
    ordered = _ascending(batch).values
    n = ordered.size
    if not 2 <= k < n:
        raise TailError(f"tail count k={k} must satisfy 2 <= k < {n}")
    top = ordered[::-1][: k + 1]
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
    ordered = _ascending(batch).values
    n = ordered.size
    k_ref = default_tail_count(n)
    k_lo = max(50, int(round(n ** 0.35)))
    k_hi = max(k_lo + 1, min(n - 1, int(round(n ** 0.75))))
    if k_lo >= n:
        raise TailError("too few values for a tail-count sweep")
    ks = np.unique(np.geomspace(k_lo, k_hi, points).astype(np.int64))
    # every estimate reads only the top max(k) + 1 order statistics
    top = _Ascending(ordered[-(max(k_hi, k_ref) + 1):])
    rows = []
    estimates = []
    for k in ks:
        est = hill_estimator(top, int(k))
        rows.append((int(k), est.alpha, est.std_error))
        estimates.append(est.alpha)
    estimates = np.asarray(estimates)
    reference = hill_estimator(top, k_ref).alpha
    drift = float(estimates.max() - estimates.min()) / reference
    return rows, drift > _SWEEP_DRIFT_THRESHOLD


def plateau_constant(batch, alpha, quantile_band=DEFAULT_QUANTILE_BAND,
                     bootstrap=DEFAULT_BOOTSTRAP, rng=None):
    """Tail-constant estimate: median of t^alpha * P(value > t) over a window.

    The window holds the order statistics between the two quantiles of
    ``quantile_band``; each gives one plateau point.  Confidence limits
    come from bootstrap resampling of replications.  Only redraws above
    the window's lowest point change an exceedance, so a resample draws
    just those: their number M is Binomial(n, n_top / n), with n_top the
    values above that point, and given M they are M uniform picks among
    those n_top values -- the law of the full redraw's bins above it.
    Each resample's picks come from one call of their own on the stream,
    and resamples are reduced to their medians a fixed block of rows at
    a time, so memory holds one block of window-sized rows whatever
    ``bootstrap`` is and the result does not depend on the block size.

    Parameters
    ----------
    batch : SampleBatch or array_like
    alpha : float
        Tail index to hold fixed (estimated or exact).
    quantile_band : pair of floats
        Strictly increasing, within (0.9, 0.9999).
    bootstrap : int
        Resample count for the CI, 0 or at least 2 (0 disables, SE and
        CI collapse to h).
    rng : numpy Generator, optional
        Bootstrap stream; a fixed internal seed is used when omitted so
        reports are reproducible by default.

    Raises
    ------
    TailError
        When fewer than 50 window points are available, or the bootstrap
        count is 1 or negative.
    """
    ordered = _ascending(batch).values
    if not alpha > 0:
        raise TailError("alpha must be positive")
    q_lo, q_hi = quantile_band
    if not (0.9 < q_lo < q_hi < 0.9999):
        raise TailError("quantile band must be increasing within (0.9, 0.9999)")
    if not (bootstrap == 0 or bootstrap >= 2):
        # one resample has no spread to report
        raise TailError("bootstrap count must be 0 or >= 2")
    n = ordered.size
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
    if bootstrap == 0:
        return PlateauEstimate(h, 0.0, h, h, float(grid[0]), float(grid[-1]),
                               int(grid.size))
    if rng is None:
        rng = np.random.default_rng(_PLATEAU_SEED)
    boot = np.concatenate([
        np.median(powers * upper / n, axis=1)
        for upper in _resampled_exceedances(ordered, grid, bootstrap, rng)])
    lo, hi = np.quantile(boot, [0.025, 0.975])
    se = float(boot.std(ddof=1))
    return PlateauEstimate(h, se, float(lo), float(hi),
                           float(grid[0]), float(grid[-1]), int(grid.size))


def _resampled_exceedances(ordered, grid, resamples, rng):
    """Exceedance counts of ``grid`` in bootstrap resamples of ``ordered``.

    Yields blocks of at most ``_BOOTSTRAP_BLOCK`` rows, one row per
    resample and one column per grid point (``grid`` ascending and
    unique).  Only the redraws above grid[0] are drawn, as the
    ``plateau_constant`` docstring describes.
    """
    n = ordered.size
    top = ordered[np.searchsorted(ordered, grid[0], side="right"):]
    # bin j holds the values in (grid[j], grid[j + 1]] (the last bin: above
    # grid[-1]), so the exceedance of grid[i] sums the bins from i up
    bin_of = np.searchsorted(grid, top, side="left") - 1
    picked = rng.binomial(n, top.size / n, size=resamples)
    for first in range(0, resamples, _BOOTSTRAP_BLOCK):
        block = picked[first:first + _BOOTSTRAP_BLOCK]
        # a resample with no redraw above grid[0] picks nothing; with no
        # value there at all, integers() would refuse an empty range
        bins = np.concatenate(
            [bin_of[rng.integers(top.size, size=m)] + row * grid.size
             if m else bin_of[:0] for row, m in enumerate(block)])
        counts = np.bincount(bins, minlength=block.size * grid.size)
        yield counts.reshape(block.size, -1)[:, ::-1].cumsum(axis=1)[:, ::-1]


def ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup_t |F_a(t) - F_b(t)|.

    Both samples must be nonempty.  The empirical CDFs are read at every
    pooled point, as ``scipy.stats.ks_2samp`` reads them, so the two
    statistics agree bit for bit.
    """
    a = np.sort(a)
    b = np.sort(b)
    pooled = np.concatenate([a, b])
    # a stable argsort merges the two sorted runs in linear time (timsort);
    # at the last point of each run of ties, the points of a and of b so
    # far are those at or below it
    order = np.argsort(pooled, kind="stable")
    merged = pooled[order]
    last = np.flatnonzero(np.append(merged[1:] != merged[:-1], True))
    in_a = np.cumsum(order < a.size)[last]
    in_b = last + 1 - in_a
    gap = in_a / a.size - in_b / b.size
    return float(np.abs(gap).max())


def default_survival_grid(values, points=40):
    """Geometric threshold grid from the median to the 0.9995 quantile.

    ``values`` is a SampleBatch or array_like, as for ``survival_points``.
    """
    ordered = _ascending(values).values
    positive = ordered[np.searchsorted(ordered, 0.0, side="right"):]
    if positive.size < 2:
        raise TailError("need positive values for a survival grid")
    lo, hi = (float(q) for q in np.quantile(positive, [0.5, 0.9995]))
    if not lo < hi:
        raise TailError("degenerate survival grid")
    return np.geomspace(lo, hi, points)


def tail_report(batch, alpha=None, k=None, quantile_band=DEFAULT_QUANTILE_BAND,
                bootstrap=DEFAULT_BOOTSTRAP, rng=None):
    """Assemble the full tail analysis for one batch.

    ``alpha`` fixes the plateau exponent; by default the Hill estimate
    is used.  The report composes the public estimators: the values are
    sorted once, and that order reaches each estimator as an
    ``_Ascending``, which none of them sorts again.
    """
    ordered = _ascending(batch)
    hill = hill_estimator(ordered, k if k is not None else
                          default_tail_count(ordered.values.size))
    sweep, drift_flag = hill_sweep(ordered)
    plateau = plateau_constant(ordered, alpha if alpha is not None else
                               hill.alpha, quantile_band, bootstrap, rng)
    survival = survival_points(ordered, default_survival_grid(ordered))
    return TailReport(hill, plateau, survival, sweep, drift_flag)
