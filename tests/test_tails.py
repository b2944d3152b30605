import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from branchtail import tails
from branchtail.engine import run_batch
from branchtail.tails import (
    KS_THRESHOLD,
    TailError,
    default_survival_grid,
    default_tail_count,
    hill_estimator,
    hill_sweep,
    ks_distance,
    plateau_constant,
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


def test_default_survival_grid_reads_a_batch(model_b09):
    batch = run_batch(model_b09, "linear", 10, 2_000, seed=12)
    assert np.array_equal(default_survival_grid(batch),
                          default_survival_grid(batch.values))


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


@pytest.mark.parametrize("bootstrap", [200, 2])
def test_plateau_estimates_do_not_depend_on_the_block(monkeypatch, bootstrap):
    x = pareto(1.2, 60_000, 34)
    estimates = []
    for block in (1, 16, 200):
        monkeypatch.setattr(tails, "_BOOTSTRAP_BLOCK", block)
        est = plateau_constant(x, 1.2, bootstrap=bootstrap,
                               rng=np.random.default_rng(35))
        estimates.append((est.h, est.std_error, est.ci_low, est.ci_high))
    # exact equality, also for the fewest resamples the plateau takes
    assert np.array_equal(estimates[0], estimates[1])
    assert np.array_equal(estimates[0], estimates[2])


def test_resampled_exceedances_have_the_multinomial_moments():
    # ties in the sample and a grid point at the top: bins hold many values
    ordered = np.sort(np.round(pareto(1.0, 20_000, 37), 2))
    n = ordered.size
    grid = np.unique(ordered[int(0.9 * n):int(0.999 * n)])
    resamples = 4_000
    counts = np.concatenate(list(tails._resampled_exceedances(
        ordered, grid, resamples, np.random.default_rng(38))))
    assert counts.shape == (resamples, grid.size)
    for i in (0, grid.size // 3, 2 * grid.size // 3, grid.size - 1):
        # a full redraw of n values counts Binomial(n, p) above grid[i]
        p = (n - np.searchsorted(ordered, grid[i], side="right")) / n
        var = n * p * (1 - p)
        fourth = var * (1 + 3 * (n - 2) * p * (1 - p))
        assert abs(counts[:, i].mean() - n * p) <= 5 * math.sqrt(
            var / resamples)
        assert abs(counts[:, i].var(ddof=1) - var) <= 5 * math.sqrt(
            (fourth - var ** 2) / resamples)


def test_plateau_with_no_value_above_the_window():
    # the window is one tied value, the sample maximum: nothing to redraw
    x = np.concatenate([np.linspace(1.0, 2.0, 9_900), np.full(100, 5.0)])
    est = plateau_constant(x, 1.0)
    assert (est.h, est.std_error, est.ci_low, est.ci_high) == (0, 0, 0, 0)


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


@pytest.mark.parametrize("bootstrap", [1, -1])
def test_plateau_refuses_a_bootstrap_of_one_or_below_zero(bootstrap):
    # one resample has no spread to report, and a negative count no meaning
    x = pareto(1.0, 10_000, 1)
    with pytest.raises(TailError, match="bootstrap"):
        plateau_constant(x, 1.0, bootstrap=bootstrap)
    with pytest.raises(TailError, match="bootstrap"):
        tail_report(x, bootstrap=bootstrap)


@given(st.floats(0.6, 2.5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=10, deadline=None)
def test_plateau_ci_brackets_point_estimate(alpha, seed):
    x = pareto(alpha, 30_000, seed)
    est = plateau_constant(x, alpha)
    assert est.ci_low <= est.h <= est.ci_high


# depth stability: the KS distance between batches at two depths


def test_stability_same_depth_law_passes(model_b09):
    low = run_batch(model_b09, "linear", 25, 20_000, seed=1)
    high = run_batch(model_b09, "linear", 30, 20_000, seed=2)
    assert ks_distance(low.values, high.values) <= KS_THRESHOLD


def test_stability_flags_unconverged_depth(model_b09):
    shallow = run_batch(model_b09, "linear", 2, 20_000, seed=3)
    deep = run_batch(model_b09, "linear", 30, 20_000, seed=4)
    assert ks_distance(shallow.values, deep.values) > KS_THRESHOLD


def ks_samples():
    ties = st.lists(st.integers(0, 4).map(float), min_size=1, max_size=60)
    # -0.0 and 0.0 are one point of either CDF
    zeros = st.lists(st.sampled_from([-0.0, 0.0, 1.0, 2.0]), min_size=1,
                     max_size=60)
    floats = st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60)
    draws = st.tuples(st.integers(1, 500), st.integers(0, 2 ** 32 - 1)).map(
        lambda t: np.random.default_rng(t[1]).lognormal(size=t[0]))
    return ties | zeros | floats | draws


@given(ks_samples(), ks_samples())
@settings(max_examples=300, deadline=None)
# scipy's asymptotic p-value divides by zero for a sample of size 1
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
def test_ks_distance_is_the_scipy_statistic(a, b):
    expected = sstats.ks_2samp(a, b, method="asymp").statistic
    assert ks_distance(a, b) == expected
    assert ks_distance(np.asarray(a), np.asarray(b)) == expected


@pytest.mark.parametrize("a, b, expected", [
    ([1.0], [2.0], 1.0),
    ([2.0], [1.0], 1.0),
    ([1.0], [1.0], 0.0),
    ([-0.0], [0.0], 0.0),
    ([0.0, 1.0], [-0.0], 0.5),
    ([1.0, 2.0, 2.0], [2.0], 1.0 / 3.0),
    ([2.0, 1.0, 2.0], [2.0, 0.0], 0.5),
])
def test_ks_distance_takes_lists_and_single_points(a, b, expected):
    assert ks_distance(a, b) == expected
    assert ks_distance(np.array(a), np.array(b)) == expected
    assert ks_distance(b, a) == expected


# assembled report


def test_tail_report_bundles_consistent_pieces():
    x = pareto(1.0, 100_000, 44)
    report = tail_report(x)
    assert abs(report.alpha_hat.alpha - 1.0) < 4 * report.alpha_hat.std_error
    assert not report.drift_flag
    payload = json.dumps(report.to_dict())
    decoded = json.loads(payload)
    assert decoded["k_used"] == report.alpha_hat.k
    assert len(decoded["survival_points"]) == 40


@pytest.mark.parametrize("alpha, k", [(None, None), (1.1, 300)])
def test_tail_report_equals_its_parts(alpha, k):
    # zeros and negatives below the tail: the survival grid reads positives
    x = np.concatenate([pareto(1.0, 50_000, 45), np.zeros(500),
                        -pareto(2.0, 500, 46)])
    np.random.default_rng(47).shuffle(x)
    report = tail_report(x, alpha=alpha, k=k, rng=np.random.default_rng(48))
    hill = hill_estimator(x, k if k is not None else default_tail_count(x.size))
    plateau = plateau_constant(x, alpha if alpha is not None else hill.alpha,
                               rng=np.random.default_rng(48))
    assert report.alpha_hat == hill
    assert (report.sweep, report.drift_flag) == hill_sweep(x)
    assert report.plateau == plateau
    assert report.survival == survival_points(x, default_survival_grid(x))
    positive = x[x > 0]
    assert np.array_equal(default_survival_grid(x), np.geomspace(
        np.quantile(positive, 0.5), np.quantile(positive, 0.9995), 40))


ESTIMATORS = ("hill_estimator", "hill_sweep", "plateau_constant",
              "survival_points", "default_survival_grid")


def test_tail_report_composes_the_public_estimators(monkeypatch):
    x = pareto(1.0, 20_000, 49)
    calls = []
    for name in ESTIMATORS:
        def spy(batch, *args, _name=name, _estimator=getattr(tails, name),
                **kwargs):
            calls.append((_name, type(batch)))
            return _estimator(batch, *args, **kwargs)
        monkeypatch.setattr(tails, name, spy)
    report = tail_report(x, rng=np.random.default_rng(50))
    assert {name for name, _ in calls} == set(ESTIMATORS)
    # each estimator reads the one sorted carrier; the sweep asks one Hill
    # estimate per tail count and one at the reference count
    assert {kind for _, kind in calls} == {tails._Ascending}
    hills = [name for name, _ in calls].count("hill_estimator")
    assert hills == 1 + len(report.sweep) + 1
    for values in (np.sort(x), np.sort(x)[::-1], list(x)):
        again = tail_report(values, rng=np.random.default_rng(50))
        assert json.dumps(again.to_dict()) == json.dumps(report.to_dict())
