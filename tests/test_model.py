import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchtail.engine import EngineError, run_batch
from branchtail.model import (
    ModelError,
    make_model,
    mean_se,
    moment_function,
    moment_function_deriv,
    reduce_to_parents,
    sum_moment,
    verdict,
)

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
    return mean_se(reduce_to_parents(np.add, counts, weights ** theta))


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
    rng = np.random.default_rng(5)
    v = sum_moment(model_a, 2.0, reps=1_000_000, rng=rng)
    assert v.method == "monte-carlo"
    assert abs(v.value - SUM2_A) < 3 * v.std_error


def test_sum_moment_requires_rng_for_mc(model_a):
    with pytest.raises(ModelError, match="rng"):
        sum_moment(model_a, 2.0, rng=None)


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
