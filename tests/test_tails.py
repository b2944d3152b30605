import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from branchtail.engine import run_batch
from branchtail.tails import (
    DEFAULT_QUANTILE_BAND,
    TailError,
    default_survival_grid,
    default_tail_count,
    hill_estimator,
    hill_sweep,
    ks_distance,
    plateau_constant,
    stability_diagnostic,
    survival_points,
    tail_report,
)


def pareto(alpha, n, seed):
    # inverse-transform exact Pareto(alpha) with unit scale
    u = np.random.default_rng(seed).uniform(size=n)
    return u ** (-1.0 / alpha)


# Hill estimator


def test_hill_hand_computed_three_point_tail():
    # top order statistics e^3, e^2, e: log-ratios to the third are 2 and 1
    values = np.concatenate([np.ones(100), [math.e, math.e ** 2, math.e ** 3]])
    est = hill_estimator(values, 2)
    assert est.alpha == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert est.std_error == pytest.approx(est.alpha / math.sqrt(2), rel=1e-12)
    assert est.k == 2


def test_hill_recovers_pareto_index():
    for alpha in (0.5, 1.0, 2.0):
        est = hill_estimator(pareto(alpha, 100_000, 10), k=1000)
        assert abs(est.alpha - alpha) < 4 * est.std_error


def test_hill_scale_invariance():
    x = pareto(1.5, 20_000, 3)
    a = hill_estimator(x, 400).alpha
    b = hill_estimator(512.0 * x, 400).alpha
    assert a == pytest.approx(b, rel=1e-12)


def test_hill_validation():
    x = pareto(1.0, 500, 0)
    with pytest.raises(TailError, match="k="):
        hill_estimator(x, 1)
    with pytest.raises(TailError, match="k="):
        hill_estimator(x, 500)
    with pytest.raises(TailError, match="nonpositive"):
        hill_estimator(np.zeros(100), 10)
    with pytest.raises(TailError, match="no variation"):
        hill_estimator(np.ones(100), 10)
    with pytest.raises(TailError, match="nonempty"):
        hill_estimator(np.array([]), 2)


def test_default_tail_count_window():
    assert default_tail_count(4096) == 147  # 2^(12 * 0.6) ~ 147.0
    assert default_tail_count(100) == 15
    assert default_tail_count(3) == 2
    with pytest.raises(TailError):
        default_tail_count(1)


# sweep drift diagnostic


def test_sweep_accepts_power_law_rejects_exponential():
    heavy = pareto(1.0, 100_000, 21)
    rows, flagged = hill_sweep(heavy)
    assert not flagged
    assert len(rows) >= 8
    light = np.random.default_rng(22).exponential(size=100_000) + 1.0
    _, flagged_light = hill_sweep(light)
    assert flagged_light


def test_sweep_rows_are_valid_hill_points():
    x = pareto(2.0, 50_000, 5)
    rows, _ = hill_sweep(x)
    for k, alpha, se in rows:
        direct = hill_estimator(x, k)
        assert alpha == direct.alpha and se == direct.std_error


# survival curves


def test_survival_points_hand_fractions():
    values = np.arange(1.0, 11.0)  # 1..10
    pts = survival_points(values, [0.5, 5.0, 10.0])
    assert pts[0][1] == 1.0
    assert pts[1][1] == 0.5
    assert pts[2][1] == 0.0
    p = 0.5
    assert pts[1][2] == pytest.approx(math.sqrt(p * (1 - p) / 10))


def test_survival_grid_must_ascend():
    with pytest.raises(TailError, match="ascending"):
        survival_points(np.ones(10), [2.0, 1.0])


def test_default_survival_grid_spans_median_to_far_tail():
    x = pareto(1.0, 10_000, 8)
    grid = default_survival_grid(x)
    assert grid.size == 40
    assert grid[0] == pytest.approx(np.quantile(x, 0.5))
    assert np.all(np.diff(grid) > 0)


# plateau constant


def test_plateau_recovers_pareto_constant():
    x = pareto(1.0, 200_000, 31)
    est = plateau_constant(x, 1.0)
    # exact survival is 1/t, so the plateau is the constant 1
    assert abs(est.h - 1.0) < 0.05
    assert est.ci_low <= 1.0 <= est.ci_high
    assert est.points_used >= 50
    assert 0.0 < est.t_low < est.t_high


def test_plateau_scale_covariance():
    x = pareto(1.5, 100_000, 32)
    base = plateau_constant(x, 1.5, bootstrap=0)
    scaled = plateau_constant(3.0 * x, 1.5, bootstrap=0)
    assert scaled.h == pytest.approx(3.0 ** 1.5 * base.h, rel=1e-9)


def test_plateau_reproducible_without_rng():
    x = pareto(1.0, 50_000, 33)
    a = plateau_constant(x, 1.0)
    b = plateau_constant(x, 1.0)
    assert (a.h, a.std_error, a.ci_low, a.ci_high) == (
        b.h, b.std_error, b.ci_low, b.ci_high)


def one_shot_plateau(x, alpha, bootstrap, seed):
    # every resample drawn in one multinomial, as a stacked bootstrap would
    ordered = np.sort(x)
    n = x.size
    q_lo, q_hi = DEFAULT_QUANTILE_BAND
    window = ordered[int(math.floor(q_lo * n)):int(math.ceil(q_hi * n))]
    grid = np.unique(window[window > 0])
    powers = grid ** alpha
    edges = np.searchsorted(ordered, grid, side="right")
    h = float(np.median(powers * (n - edges) / n))
    bins = np.diff(np.concatenate(([0], edges, [n])))
    draws = np.random.default_rng(seed).multinomial(n, bins / n, size=bootstrap)
    upper = draws[:, ::-1].cumsum(axis=1)[:, ::-1][:, 1:]
    boot = np.median(powers * upper / n, axis=1)
    lo, hi = np.quantile(boot, [0.025, 0.975])
    return h, float(boot.std(ddof=1)), float(lo), float(hi)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bootstrap", [200, 1])
def test_plateau_blocks_match_one_stacked_draw(bootstrap):
    x = pareto(1.2, 60_000, 34)
    est = plateau_constant(x, 1.2, bootstrap=bootstrap,
                           rng=np.random.default_rng(35))
    got = (est.h, est.std_error, est.ci_low, est.ci_high)
    # exact equality; one resample has no spread, so both SEs are NaN there
    assert np.array_equal(got, one_shot_plateau(x, 1.2, bootstrap, 35),
                          equal_nan=True)


def traced_peak(function, *args, **kwargs):
    tracemalloc.start()
    try:
        function(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plateau_memory_does_not_grow_with_bootstrap():
    x = pareto(1.0, 100_000, 36)
    small = traced_peak(plateau_constant, x, 1.0, bootstrap=16)
    large = traced_peak(plateau_constant, x, 1.0, bootstrap=400)
    assert abs(large - small) < 2 ** 20


def test_plateau_window_validation():
    with pytest.raises(TailError, match="window points"):
        plateau_constant(pareto(1.0, 200, 1), 1.0)
    with pytest.raises(TailError, match="quantile band"):
        plateau_constant(pareto(1.0, 10_000, 1), 1.0, quantile_band=(0.5, 0.99))
    with pytest.raises(TailError, match="alpha"):
        plateau_constant(pareto(1.0, 10_000, 1), -1.0)


@given(st.floats(0.6, 2.5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_plateau_ci_brackets_point_estimate(alpha, seed):
    x = pareto(alpha, 30_000, seed)
    est = plateau_constant(x, alpha)
    assert est.ci_low <= est.h <= est.ci_high


# depth-stability diagnostic


def test_stability_same_depth_law_passes(model_b09):
    low = run_batch(model_b09, "linear", 25, 20_000, seed=1)
    high = run_batch(model_b09, "linear", 30, 20_000, seed=2)
    check = stability_diagnostic(low, high)
    assert check.passed
    assert check.ks_distance <= 0.02


def test_stability_flags_unconverged_depth(model_b09):
    shallow = run_batch(model_b09, "linear", 2, 20_000, seed=3)
    deep = run_batch(model_b09, "linear", 30, 20_000, seed=4)
    check = stability_diagnostic(shallow, deep)
    assert not check.passed


def ks_samples():
    ties = st.lists(st.integers(0, 4).map(float), min_size=1, max_size=60)
    floats = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60)
    draws = st.tuples(st.integers(1, 500), st.integers(0, 2 ** 32 - 1)).map(
        lambda t: np.random.default_rng(t[1]).lognormal(size=t[0]))
    return ties | floats | draws


@given(ks_samples(), ks_samples())
@settings(max_examples=300, deadline=None)
# scipy's asymptotic p-value divides by zero for a sample of size 1
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_ks_distance_is_the_scipy_statistic(a, b):
    expected = sstats.ks_2samp(a, b, method="asymp").statistic
    assert ks_distance(a, b) == expected


def test_stability_validates_batch_compatibility(model_b09, model_b03):
    a = run_batch(model_b09, "linear", 10, 1_000, seed=5)
    b = run_batch(model_b09, "max", 10, 1_000, seed=5)
    with pytest.raises(TailError, match="same kind"):
        stability_diagnostic(a, b)
    other = run_batch(model_b03, "linear", 10, 1_000, seed=5)
    with pytest.raises(TailError, match="same model"):
        stability_diagnostic(a, other)
    deeper = run_batch(model_b09, "linear", 12, 1_000, seed=6)
    with pytest.raises(TailError, match="shallower"):
        stability_diagnostic(deeper, a)


# assembled report


def test_tail_report_bundles_consistent_pieces():
    x = pareto(1.0, 100_000, 44)
    report = tail_report(x)
    assert abs(report.alpha_hat.alpha - 1.0) < 4 * report.alpha_hat.std_error
    assert not report.drift_flag
    assert report.stability is None
    payload = json.dumps(report.to_dict())
    decoded = json.loads(payload)
    assert decoded["k_used"] == report.alpha_hat.k
    assert len(decoded["survival_points"]) == 40


def test_tail_report_fixed_alpha_and_stability(model_b09):
    low = run_batch(model_b09, "linear", 25, 20_000, seed=9)
    high = run_batch(model_b09, "linear", 30, 20_000, seed=10)
    report = tail_report(low, alpha=1.0, stability_batch=high)
    assert report.plateau.h > 0
    assert report.stability is not None and report.stability.passed
