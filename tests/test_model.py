import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchtail.cramer import ContractionRootError, solve_alpha
from branchtail.engine import EngineError, run_batch
from branchtail.model import (
    ModelError,
    make_model,
    mean_se,
    moment_function,
    moment_function_deriv,
    sum_moment,
    verdict,
)
from branchtail.moments import fixed_point_mean_exact

from conftest import MU_A, MU_B, SUM2_A, model_a_spec, model_b_spec


def det(value):
    return {"family": "deterministic", "value": value}


def node_vector(model, rng):
    """One node vector (q, n, weights) from the model's own draws."""
    q = float(model.draw_q(rng, 1)[0])
    counts, weights = model.draw_offspring(rng, 1)
    return q, int(counts[0]), weights


def moment_function_mc(model, theta, reps, rng):
    """E[sum_i C_i^theta] by Monte Carlo: the mean and its iid SE."""
    counts, weights = model.draw_offspring(rng, reps)
    sums = np.zeros(reps)  # an inline fold, independent of the package's
    np.add.at(sums, np.repeat(np.arange(reps), counts), weights ** theta)
    return mean_se(sums)


def test_make_model_accepts_calibrated_families(model_b):
    assert model_b.nonarithmetic
    assert model_b.n_law.mean() == 0.5


def test_make_model_leaf_only_tree():
    m = make_model({"n": det(0), "c": det(1.0), "q": det(1.0)})
    assert m.n_law.prob_zero() == 1.0


def test_zero_toll_is_refused_by_run_batch_not_make_model():
    # the model is valid; only the kinds that fold Q need P(Q > 0) > 0
    m = make_model({"n": det(1), "c": det(0.5), "q": det(0.0)})
    for kind in ("linear", "max", "max-plus"):
        with pytest.raises(EngineError, match=f"kind '{kind}' requires "
                           "P\\(Q > 0\\) > 0"):
            run_batch(m, kind, 3, 5, seed=0)
    batch = run_batch(m, "homogeneous-martingale", 3, 5, seed=0)
    assert np.all(batch.values == 0.5 ** 3)  # unit marks at generation 3


def test_make_model_rejects_unknown_family_and_bad_params():
    with pytest.raises(ModelError, match="unknown count family"):
        make_model({"n": {"family": "zeta", "s": 2}, "c": det(1), "q": det(1)})
    with pytest.raises(ModelError, match="variance must be positive"):
        make_model(
            {"n": det(1), "c": {"family": "lognormal", "mu": 0, "sigma2": 0}, "q": det(1)}
        )
    with pytest.raises(ModelError, match="sum to 1"):
        make_model(
            {"n": {"family": "two-point", "values": {0: 0.4, 1: 0.4}}, "c": det(1), "q": det(1)}
        )
    with pytest.raises(ModelError, match="unknown model keys"):
        make_model({"n": det(1), "c": det(1), "q": det(1), "tilt": 2})
    with pytest.raises(ModelError, match="weight family 'lognormal'"):
        make_model(
            {"n": det(1), "c": {"family": "lognormal", "mu": "oops", "sigma2": 1}, "q": det(1)}
        )


def test_poisson_mean_stops_at_numpys_sampling_limit():
    limit = float(np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max))
    spec = {"n": {"family": "poisson", "mean": limit}, "c": det(1), "q": det(1)}
    model = make_model(spec)
    assert model.n_law.sample(np.random.default_rng(0), 1)[0] > 0
    spec["n"]["mean"] = np.nextafter(limit, math.inf)
    with pytest.raises(ModelError, match="poisson mean must be at most"):
        make_model(spec)


def test_sample_vector_deterministic_model():
    m = make_model({"n": det(2), "c": det(0.5), "q": det(1.0)})
    q, n, c = node_vector(m, np.random.default_rng(0))
    assert (q, n) == (1.0, 2)
    assert np.array_equal(c, [0.5, 0.5])


def test_sample_vector_reproducible(model_b):
    first = node_vector(model_b, np.random.default_rng(42))
    second = node_vector(model_b, np.random.default_rng(42))
    assert first[0] == second[0] and first[1] == second[1]
    assert np.array_equal(first[2], second[2])


def test_sample_vector_count_frequency(model_b):
    rng = np.random.default_rng(7)
    counts = model_b.n_law.sample(rng, 1_000_000)
    p_hat = (counts == 1).mean()
    se = math.sqrt(0.25 / 1_000_000)
    assert abs(p_hat - 0.5) < 3 * se


@pytest.mark.parametrize("values", [{0: 0.0, 3: 1.0}, {2: 1.0, 5: 0.0},
                                    {0: 0.5, 1: 0.5}])
@pytest.mark.parametrize("size", [0, 1, 10_000])
def test_two_point_sample_matches_where(values, size):
    law = make_model({"n": {"family": "two-point", "values": values},
                      "c": det(1.0), "q": det(1.0)}).n_law
    counts = law.sample(np.random.default_rng(size), size)
    u = np.random.default_rng(size).random(size)
    expected = np.where(u < law.pa, law.a, law.b).astype(np.int64)
    assert counts.dtype == np.int64
    assert counts.tobytes() == expected.tobytes()


def test_deterministic_samples_are_fresh_full_arrays():
    m = make_model({"n": det(2), "c": det(0.5), "q": det(1.5)})
    rng = np.random.default_rng(0)
    for law, value, dtype in ((m.n_law, 2, np.int64),
                              (m.q_law, 1.5, np.float64)):
        for size in (0, 1, 7):
            first = law.sample(rng, size)
            assert first.tobytes() == np.full(size, value, dtype).tobytes()
            first[:] = 0
            assert (law.sample(rng, size) == value).all()


def _stream_after_counts(model, seed, size):
    rng = np.random.default_rng(seed)
    counts = model.n_law.sample(rng, size)
    return counts, rng.bit_generator.state


def test_childless_draw_leaves_the_stream_after_the_counts(model_b):
    leaves = make_model({"n": {"family": "two-point", "values": {0: 1.0, 1: 0.0}},
                         "c": {"family": "lognormal", "mu": 0.0, "sigma2": 1.0},
                         "q": det(1.0)})
    # model_b at seed 2 draws a childless node
    for model, seed, size in ((leaves, 5, 4), (model_b, 2, 1)):
        rng = np.random.default_rng(seed)
        counts, weights = model.draw_offspring(rng, size)
        expected, state = _stream_after_counts(model, seed, size)
        assert counts.sum() == 0 and np.array_equal(counts, expected)
        assert weights.size == 0 and weights.dtype == np.float64
        assert rng.bit_generator.state == state


def test_offspring_over_the_limit_draws_no_weights(model_a):
    # model_a has one or two children per node: five nodes bear 5 to 10
    counts, weights = model_a.draw_offspring(np.random.default_rng(3), 5)
    total = int(counts.sum())
    rng = np.random.default_rng(3)
    over, none = model_a.draw_offspring(rng, 5, total - 1)
    assert none is None and np.array_equal(over, counts)
    assert rng.bit_generator.state == _stream_after_counts(model_a, 3, 5)[1]
    same = model_a.draw_offspring(np.random.default_rng(3), 5, total)
    assert same[1].tobytes() == weights.tobytes()


@pytest.mark.parametrize("count, size", [
    ({"family": "poisson", "mean": 1.0e15}, 20_000),
    (det(2 ** 62), 4),  # an int64 sum wraps to exactly 0
], ids=["poisson", "bounded"])
def test_a_child_total_past_2_63_does_not_wrap_around(count, size):
    m = make_model({"n": count, "c": det(1e-19), "q": det(1.0)})
    counts, weights = m.draw_offspring(np.random.default_rng(3), size, 10 ** 7)
    assert weights is None and counts.sum(dtype=float) > 2.0 ** 63
    with pytest.raises(ModelError, match="too many to draw"):
        m.draw_offspring(np.random.default_rng(3), size)


# one draw without a size: size=None reads the words of size=1

_ONE_DRAW_COUNTS = [det(1), {"family": "two-point", "values": {1: 0.6, 3: 0.4}},
                    {"family": "geometric", "p": 0.35},
                    {"family": "poisson", "mean": 1.7}]
# a geometric law whose scalar draws pass the table of small counts that
# model.GeometricCount and model.PoissonCount return without building one
_LONG_DRAW_COUNTS = [{"family": "geometric", "p": 0.08}]
_ONE_DRAW_WEIGHTS = [det(0.8), {"family": "lognormal", "mu": -0.2, "sigma2": 0.6},
                     {"family": "uniform", "b": 1.3},
                     {"family": "beta-scaled", "a": 2.0, "b": 3.0, "scale": 1.5}]


def _philox_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
            state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"],
            state["uinteger"])


@pytest.mark.parametrize("weight", _ONE_DRAW_WEIGHTS,
                         ids=[w["family"] for w in _ONE_DRAW_WEIGHTS])
@pytest.mark.parametrize("count", _ONE_DRAW_COUNTS + _LONG_DRAW_COUNTS,
                         ids=[c["family"] for c in _ONE_DRAW_COUNTS]
                         + ["geometric-past-the-table"])
def test_a_draw_without_size_reads_the_words_of_size_one(count, weight):
    m = make_model({"n": count, "c": weight, "q": weight, "c_scale": 0.7})
    born = set()
    for seed in range(40):
        pair = [np.random.Generator(np.random.Philox(key=[seed, 7]))
                for _ in range(2)]
        for law in (m.n_law, m.c_law, m.q_law):
            one, array = law.sample(pair[0], None), law.sample(pair[1], 1)
            assert np.ndim(one) == 0 and array.shape == (1,)
            assert np.asarray(one, array.dtype).tobytes() == array.tobytes()
        for limit in (None, 1):
            (n, w), (counts, weights) = (m.draw_offspring(pair[0], None, limit),
                                         m.draw_offspring(pair[1], 1, limit))
            assert isinstance(n, np.integer) and n.size == 1
            assert [int(n)] == counts.tolist()
            if weights is None:
                assert w is None
            elif weights.size == 1:
                assert isinstance(w, float)
                assert np.float64(w).tobytes() == weights.tobytes()
            else:
                assert w.tobytes() == weights.tobytes()
            born.add(min(int(n), 2))
        assert _philox_state(pair[0]) == _philox_state(pair[1])
    # a random count gives none, one and several children over the seeds
    assert born == ({1} if count["family"] == "deterministic" else
                    {1, 2} if count["family"] == "two-point" else {0, 1, 2})


def test_a_poisson_count_past_the_table_is_the_draw_of_size_one():
    # no seed of a mean this large draws the 0 and 1 the test above needs
    law = make_model({"n": {"family": "poisson", "mean": 500.0},
                      "c": det(0.5), "q": det(1.0)}).n_law
    for seed in range(20):
        pair = [np.random.Generator(np.random.Philox(key=[seed, 3]))
                for _ in range(2)]
        one, array = law.sample(pair[0], None), law.sample(pair[1], 1)
        assert type(one) is np.int64 and one.size == 1
        assert one == array[0] and one >= 32


# weights scaled past the double range: c_scale^theta underflows while
# E[C^theta] overflows, yet c_scale * C is the unscaled law
_HUGE_WEIGHTS = [
    (det(1e300), det(1.0)),
    ({"family": "lognormal", "mu": 300 * math.log(10), "sigma2": 0.5},
     {"family": "lognormal", "mu": 0.0, "sigma2": 0.5}),
    ({"family": "uniform", "b": 1e300}, {"family": "uniform", "b": 1.0}),
    ({"family": "beta-scaled", "a": 2.0, "b": 3.0, "scale": 1e300},
     {"family": "beta-scaled", "a": 2.0, "b": 3.0, "scale": 1.0}),
]


@pytest.mark.parametrize("huge, plain", _HUGE_WEIGHTS,
                         ids=[h["family"] for h, _ in _HUGE_WEIGHTS])
def test_moments_of_a_weight_scale_that_underflows(huge, plain):
    scaled = make_model({"n": det(3), "c": huge, "q": det(1.0),
                         "c_scale": 1e-300})
    unscaled = make_model({"n": det(3), "c": plain, "q": det(1.0)})
    for theta in (0.5, 1.0, 1.5, 2.0, 7.5):
        for moment in (moment_function, moment_function_deriv):
            assert moment(scaled, theta).value == pytest.approx(
                moment(unscaled, theta).value, rel=1e-9, abs=1e-12)


def test_uniform_weights_scaled_down_from_1e300_solve_to_a_contraction_root():
    # c_scale * C is uniform(0, 1): m(theta) = 3 / (theta + 1) falls
    # through 1 at theta = 2
    m = make_model({"n": det(3), "c": {"family": "uniform", "b": 1e300},
                    "q": det(1.0), "c_scale": 1e-300})
    values = [moment_function(m, t).value for t in (0.5, 1.0, 1.5, 2.0)]
    assert values == pytest.approx([2.0, 1.5, 1.2, 1.0], rel=1e-12)
    with pytest.raises(ContractionRootError) as err:
        solve_alpha(m)
    assert err.value.alpha == pytest.approx(2.0, rel=1e-12)


def test_moment_function_calibrations(model_a, model_b):
    assert moment_function(model_b, 1.0).value == pytest.approx(1.0, abs=1e-14)
    assert moment_function(model_a, 1.0).value == pytest.approx(1.0, abs=1e-14)
    assert moment_function(model_a, 2.0).value == pytest.approx(1.0, abs=1e-14)
    # theta = 0 returns the mean offspring count
    assert moment_function(model_b, 0.0).value == pytest.approx(0.5)
    assert moment_function(model_a, 0.0).value == pytest.approx(1.3)


def test_moment_function_closed_form_flags(model_b):
    v = moment_function(model_b, 1.0)
    assert v.method == "closed-form"
    assert v.std_error == 0.0


def test_moment_function_deriv_calibrations(model_a, model_b):
    assert moment_function_deriv(model_a, 2.0).value == pytest.approx(MU_A, rel=1e-12)
    assert moment_function_deriv(model_b, 1.0).value == pytest.approx(MU_B, rel=1e-12)
    m = make_model({"n": det(2), "c": det(1.0), "q": det(1.0)})
    assert moment_function_deriv(m, 1.5).value == 0.0


def test_moment_function_uniform_closed_forms(uniform_model):
    # direct integral: E[C^t] = b^t/(t+1); derivative has the log factor
    b = 0.8
    for t in (0.5, 1.0, 2.3):
        assert moment_function(uniform_model, t).value == pytest.approx(
            3 * b ** t / (t + 1)
        )
        assert moment_function_deriv(uniform_model, t).value == pytest.approx(
            3 * b ** t * (math.log(b) - 1 / (t + 1)) / (t + 1)
        )


def test_moment_function_beta_scaled_against_mc():
    m = make_model(
        {"n": det(2), "c": {"family": "beta-scaled", "a": 2.0, "b": 3.0, "scale": 1.5}, "q": det(1)}
    )
    rng = np.random.default_rng(3)
    for t in (0.7, 2.0):
        closed = moment_function(m, t).value
        mc, se = moment_function_mc(m, t, 200_000, rng)
        assert abs(mc - closed) < 3 * se
    # derivative via central difference of the closed form
    h = 1e-6
    num = (moment_function(m, 1.0 + h).value - moment_function(m, 1.0 - h).value) / (2 * h)
    assert moment_function_deriv(m, 1.0).value == pytest.approx(num, rel=1e-6)


def test_moment_function_mc_matches_closed_form(model_a, model_b):
    rng = np.random.default_rng(11)
    for m, t in ((model_a, 2.0), (model_b, 1.0), (model_b, 0.5)):
        closed = moment_function(m, t).value
        mc, se = moment_function_mc(m, t, 400_000, rng)
        assert se > 0
        assert abs(mc - closed) < 3 * se


def test_mean_se_is_the_iid_rule():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    mean, se = mean_se(x)
    assert mean == 3.75
    assert se == x.std(ddof=1) / 2.0
    # one sample: the mean itself, and no spread to report
    assert mean_se(np.array([2.5])) == (2.5, 0.0)


def test_mean_se_covers_its_own_rounding():
    # model_b's closed-form H: numpy's pairwise mean of 10^4 copies lands
    # 2.2e-16 off, 100 times the iid error std(ddof=1) / sqrt(n)
    c = 0.8381195683928103
    mean, se = mean_se(np.full(10_000, c))
    assert se > 0
    assert abs(mean - c) <= 3 * se


@given(st.integers(2, 200), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_mean_se_nonnegative_and_finite(n, seed):
    x = np.random.default_rng(seed).exponential(size=n)
    _, se = mean_se(x)
    assert se >= 0.0 and math.isfinite(se)


_FINITE = st.floats(-1e300, 1e300)


@given(_FINITE, _FINITE, st.floats(0.0, 1e300))
@settings(max_examples=200, deadline=None)
def test_verdict_gives_the_bits_of_each_rule_it_replaces(a, b, se):
    # moment cell, factorization and iteration, as each was first written
    assert verdict(a, b, se) == (a <= b + 3.0 * se)
    assert verdict(abs(a - b), 0.0, se) == (abs(a - b) <= 3.0 * se)
    assert verdict(a, b) == (a <= b)


def test_verdict_boundaries():
    assert verdict(1.0, 1.0)
    assert not verdict(math.nextafter(1.0, 2.0), 1.0)
    assert verdict(1.3, 1.0, 0.1) and not verdict(1.31, 1.0, 0.1)
    assert verdict(1e300, math.inf) and not verdict(math.nan, 1.0, 1.0)


def test_sum_moment_closed_form_small_counts(model_b):
    # N <= 1: E[(sum C)^2] = P(N=1) E[C^2] = 0.5 exp(2 ln2 + 1) = 2e
    v = sum_moment(model_b, 2.0)
    assert v.method == "closed-form"
    assert v.value == pytest.approx(2 * math.e, rel=1e-12)


def test_sum_moment_deterministic():
    m = make_model({"n": det(2), "c": det(0.5), "q": det(1.0)})
    for beta in (0.5, 1.0, 2.0, 3.7):
        assert sum_moment(m, beta).value == pytest.approx(1.0)


def test_sum_moment_mc_expansion(model_a):
    # E[(C_1 + ... + C_N)^2] = E[N] E[C^2] + 2 E[C(N, 2)] E[C]^2, exact
    v = sum_moment(model_a, 2.0)
    assert v.method == "closed-form" and v.std_error == 0.0
    assert v.value == pytest.approx(SUM2_A, rel=1e-13)


# ---------------------------------------------------------------------------
# properties

lognormal_models = st.builds(
    lambda mu, s2, en: make_model(
        {
            "n": {"family": "two-point", "values": {0: 1 - en, 1: en}},
            "c": {"family": "lognormal", "mu": mu, "sigma2": s2},
            "q": det(1.0),
        }
    ),
    st.floats(-1.5, 1.0),
    st.floats(0.1, 2.0),
    st.floats(0.05, 0.95),
)


@settings(max_examples=40, deadline=None)
@given(
    lognormal_models,
    st.floats(0.1, 3.0),
    st.floats(0.1, 3.0),
    st.floats(0.0, 1.0),
)
def test_moment_function_convex(m, t1, span, frac):
    t3 = t1 + span
    t2 = t1 + frac * span
    f1 = moment_function(m, t1).value
    f2 = moment_function(m, t2).value
    f3 = moment_function(m, t3).value
    lam = 0.0 if span == 0 else (t2 - t1) / (t3 - t1)
    assert f2 <= (1 - lam) * f1 + lam * f3 + 1e-9 * (f1 + f3)


@settings(max_examples=40, deadline=None)
@given(lognormal_models, st.floats(0.1, 2.5), st.floats(0.2, 3.0))
def test_moment_function_scale_relation(m, theta, scale):
    scaled = make_model({**m.describe(), "c_scale": scale})
    assert moment_function(scaled, theta).value == pytest.approx(
        scale ** theta * moment_function(m, theta).value, rel=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(lognormal_models)
def test_moment_function_at_zero_is_mean_count(m):
    assert moment_function(m, 0.0).value == pytest.approx(m.n_law.mean(), rel=1e-12)


def test_describe_round_trip(model_a, model_b09):
    for m in (model_a, model_b09):
        again = make_model(m.describe())
        assert again.fingerprint() == m.fingerprint()
        assert moment_function(again, 1.7).value == moment_function(m, 1.7).value


# geometric counts: P(N = k) = (1 - p)^k p


def geometric_model(p, c=None):
    return make_model({"n": {"family": "geometric", "p": p},
                       "c": c or det(0.5), "q": det(1.0)})


def test_geometric_law_matches_its_draws():
    law = geometric_model(0.4).n_law
    counts = law.sample(np.random.default_rng(2023), 1_000_000)
    # each closed form is the mean of one statistic of a draw; every
    # estimate must lie within 4 of its standard errors
    for exact, stat in [
        (law.mean(), counts),
        (law.binomial_moment(2), counts * (counts - 1) / 2.0),
        (law.prob_zero(), counts == 0),
        (law.prob_at_least_two(), counts >= 2),
    ]:
        estimate, se = mean_se(np.asarray(stat, dtype=float))
        assert abs(estimate - exact) <= 4.0 * se
    assert (law.mean(), law.binomial_moment(2)) == pytest.approx((1.5, 2.25))
    assert (law.prob_zero(), law.prob_at_least_two()) == pytest.approx(
        (0.4, 0.36))


def test_geometric_with_certain_success_draws_only_zeros():
    counts = geometric_model(1.0).n_law.sample(np.random.default_rng(5),
                                               10_000)
    assert counts.min() == counts.max() == 0


def test_geometric_describe_round_trip():
    m = geometric_model(0.35, {"family": "lognormal", "mu": -0.2,
                               "sigma2": 0.3})
    again = make_model(m.describe())
    assert again.n_law.family == "geometric" and again.n_law.p == 0.35
    assert again.fingerprint() == m.fingerprint()


def test_geometric_exact_batch_mean_is_the_fixed_point_mean():
    # E[N] = 2/3 and E[C] = 0.6: rho = 0.4 and E[R] = 1 / 0.6; rho_2 =
    # (2/3) (1.44 / 3) < 1, so R has a finite variance
    m = geometric_model(0.6, {"family": "uniform", "b": 1.2})
    batch = run_batch(m, "linear", None, 20_000, seed=31)
    assert batch.truncated_replications == 0
    estimate, se = mean_se(batch.values)
    assert abs(estimate - fixed_point_mean_exact(m)) <= 4.0 * se
    assert fixed_point_mean_exact(m) == pytest.approx(1.0 / 0.6)
