import math

import numpy as np
import pytest

from branchtail.engine import run_batch, truncation_bound
from branchtail.model import (MomentValue, make_model, mean_se,
                              moment_function, reduce_to_parents,
                              resample_children, sum_moment)
from branchtail.moments import (
    BoundError,
    _sum_interpolation_bound,
    constructive_constant,
    contractive,
    fixed_point_mean_exact,
    generation_moment_bound,
)

from conftest import (K2_B03, K15_B03, RHO_2_B03, RHO_15_B03, RHO_HALF_B09,
                      model_b_spec)


def det(value):
    return {"family": "deterministic", "value": value}


def test_fixed_point_mean_exact(model_b09, model_b, model_a):
    assert fixed_point_mean_exact(model_b09) == pytest.approx(10.0, rel=1e-12)
    assert fixed_point_mean_exact(model_b) == math.inf
    assert fixed_point_mean_exact(model_a) == math.inf


def test_contractive_guard_is_strict():
    assert contractive(0.9)
    assert not contractive(1.0)
    # a ratio one ulp under 1 is numerically indistinguishable from 1
    assert not contractive(1.0 - 2 ** -53)


# interpolated moment constants against frozen high-precision values


def test_constructive_constant_integer_oracle(model_b03):
    k2 = constructive_constant(model_b03, 2.0)
    assert not math.isinf(k2.value)
    assert k2.value == pytest.approx(K2_B03, rel=1e-12)


def test_constructive_constant_fractional_oracle(model_b03):
    k15 = constructive_constant(model_b03, 1.5)
    assert not math.isinf(k15.value)
    assert k15.value == pytest.approx(K15_B03, rel=1e-12)


def test_constructive_constant_chain_hand_value():
    # single child, weight 1/2, unit toll: the induction gives exactly
    # K_2 = E[Q^2] + (0.25 * K_1^2) / eta * 1 / (1 - eta) = 2 at eta = 1/2
    m = make_model({"n": det(1), "c": det(0.5), "q": det(1.0)})
    k2 = constructive_constant(m, 2.0)
    assert not math.isinf(k2.value)
    assert k2.value == pytest.approx(2.0, rel=1e-12)
    assert k2.method == "closed-form"
    # and it dominates the exact generation moments E[W_n^2] = 4^-n
    for n in range(6):
        assert 4.0 ** -n <= generation_moment_bound(m, 2.0, n).value + 1e-15


def test_constructive_constant_diverges_without_contraction(model_a, model_b):
    assert math.isinf(constructive_constant(model_a, 2.0).value)
    # the calibrated subcritical model has mean ratio exactly 1
    assert math.isinf(constructive_constant(model_b, 2.0).value)


@pytest.mark.parametrize("n, c", [(0, 0.5), (2, 0.0)])
def test_constructive_constant_without_weights_is_the_toll_moment(n, c):
    # sum C = 0 almost surely, so eta = 0: K_x = E[Q^x] at every order,
    # and the bound is K_beta at n = 0 and 0 beyond
    m = make_model({"n": det(n), "c": det(c),
                    "q": {"family": "uniform", "b": 2.0}})
    for beta in (1.5, 2.0, 3.0):
        k = constructive_constant(m, beta)
        assert k.value == m.q_moment(beta)
        assert generation_moment_bound(m, beta, 0).value == k.value
        assert generation_moment_bound(m, beta, 3).value == 0.0


# The first form of the constant: integer orders by their own induction,
# then one fractional step; and the truncation bound written out per branch.
# The single induction must reproduce it bit for bit.


def _first_k_integer(model, p, rng=None):
    k = model.q_mean()
    method = "closed-form"
    suspect = False
    rho = moment_function(model, 1.0).value
    for step in range(2, p + 1):
        rho_p = moment_function(model, float(step)).value
        eta = max(rho_p, rho)
        if not contractive(eta):
            return MomentValue(math.inf, method)
        csum = sum_moment(model, float(step), rng=rng)
        if csum.method == "monte-carlo":
            method = "monte-carlo"
            suspect = suspect or csum.suspect
        big_k = csum.value * k ** (step / (step - 1.0))
        series = 1.0 / (1.0 - eta ** (1.0 / (step - 1.0)))
        k = model.q_moment(float(step)) + big_k / eta * series
    return MomentValue(k, method, suspect=suspect)


def _first_constructive_constant(model, beta, rng=None):
    p = math.ceil(beta)
    if p == beta:
        return _first_k_integer(model, int(beta), rng=rng)
    base = _first_k_integer(model, p - 1, rng=rng)
    if math.isinf(base.value):
        return base
    rho = moment_function(model, 1.0).value
    rho_beta = moment_function(model, beta).value
    eta = max(rho, rho_beta)
    if not contractive(eta):
        return MomentValue(math.inf, base.method)
    gamma = beta / (p - 1.0)
    csum = sum_moment(model, beta, rng=rng)
    method = base.method
    suspect = base.suspect
    if csum.method == "monte-carlo":
        method = "monte-carlo"
        suspect = suspect or csum.suspect
    big_k = csum.value * base.value ** (beta / (p - 1.0))
    series = 1.0 / (1.0 - eta ** (gamma - 1.0))
    value = model.q_moment(beta) + big_k / eta * series
    return MomentValue(value, method, suspect=suspect)


def _first_truncation_bound(model, beta, depth, rng=None):
    rho_beta = moment_function(model, float(beta)).value
    if beta <= 1.0:
        if not contractive(rho_beta):
            return math.inf
        return (model.q_moment(float(beta)) * rho_beta ** (depth + 1)
                / (1.0 - rho_beta))
    rho = moment_function(model, 1.0).value
    eta = max(rho, rho_beta)
    if not contractive(eta):
        return math.inf
    k_beta = _first_constructive_constant(model, beta, rng=rng)
    if math.isinf(k_beta.value):
        return math.inf
    return (k_beta.value * eta ** (depth + 1)
            / (1.0 - eta ** (1.0 / beta)) ** beta)


_PIN_MODELS = {
    # closed-form sum moments (N <= 1)
    "b03": model_b_spec(0.3),
    # E[(sum C)^x] by Monte Carlo, contractive at every order up to 4
    "poisson-uniform": {"n": {"family": "poisson", "mean": 2.0},
                        "c": {"family": "uniform", "b": 0.4},
                        "q": {"family": "uniform", "b": 1.0}},
    # rho = 1.5: no order contracts
    "noncontractive": {"n": {"family": "poisson", "mean": 3.0},
                       "c": {"family": "uniform", "b": 1.0},
                       "q": det(1.0)},
}


@pytest.mark.parametrize("beta", [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.7, 4.0])
@pytest.mark.parametrize("name", sorted(_PIN_MODELS))
def test_single_induction_matches_the_first_form_bit_for_bit(name, beta):
    m = make_model(_PIN_MODELS[name])

    def fields(k):
        return k.value.hex(), k.method, k.suspect

    k = constructive_constant(m, beta, rng=np.random.default_rng(17))
    ref = _first_constructive_constant(m, beta, rng=np.random.default_rng(17))
    assert fields(k) == fields(ref)
    mc = name == "poisson-uniform" and beta > 1.0
    assert k.method == ("monte-carlo" if mc else "closed-form")
    if name != "b03":
        assert math.isinf(k.value) == (name == "noncontractive"
                                       and beta > 1.0)
    for depth in (0, 3, 20):
        got = truncation_bound(m, beta, depth, rng=np.random.default_rng(17))
        want = _first_truncation_bound(m, beta, depth,
                                       rng=np.random.default_rng(17))
        assert got.hex() == want.hex()
        if beta > 1.0:
            bound = generation_moment_bound(m, beta, depth,
                                            rng=np.random.default_rng(17))
            eta = max(moment_function(m, 1.0).value,
                      moment_function(m, beta).value)
            want = ref.value * eta ** depth
            assert (bound.value.hex(), bound.suspect) == (want.hex(),
                                                          ref.suspect)


def test_constructive_constant_rejects_small_exponent(model_b03):
    with pytest.raises(BoundError):
        constructive_constant(model_b03, 0.5)


# generation moment bounds


def test_generation_bound_subadditive_route(model_b09):
    # beta <= 1 needs no contraction constant, only the per-level ratio
    bound = generation_moment_bound(model_b09, 0.5, 10)
    assert bound.method == "generation-subadditive"
    assert bound.value == pytest.approx(RHO_HALF_B09 ** 10, rel=1e-12)


def test_generation_bound_constructive_route(model_b03):
    bound = generation_moment_bound(model_b03, 1.5, 8)
    assert bound.method == "generation-constructive"
    assert bound.value == pytest.approx(K15_B03 * RHO_15_B03 ** 8, rel=1e-12)
    two = generation_moment_bound(model_b03, 2.0, 8)
    assert two.value == pytest.approx(K2_B03 * RHO_2_B03 ** 8, rel=1e-12)


def test_generation_bound_diverged_outside_contraction(model_a):
    assert math.isinf(generation_moment_bound(model_a, 1.5, 8).value)


def test_generation_bound_refuses_nan():
    # an infinite E[Q^beta] times rho_beta^n = 0 has no value
    m = make_model({"n": det(0), "c": det(0.5),
                    "q": {"family": "lognormal", "mu": 0.0,
                          "sigma2": 2000.0}})
    assert math.isinf(generation_moment_bound(m, 1.0, 0).value)
    with pytest.raises(BoundError, match="nonnegative"):
        generation_moment_bound(m, 1.0, 1)


def test_generation_moment_within_bound(model_b03):
    # measure E[W_n^beta] directly from the martingale-kind difference:
    # simulate the homogeneous weights at depth n and power them
    reps = 30_000
    n, beta = 6, 1.5
    depth_n = run_batch(model_b03, "linear", n, reps, seed=30)
    depth_m = run_batch(model_b03, "linear", n - 1, reps, seed=30)
    w_n = depth_n.values - depth_m.values  # pathwise generation sum
    est = (w_n ** beta).mean()
    se = (w_n ** beta).std(ddof=1) / math.sqrt(reps)
    bound = generation_moment_bound(model_b03, beta, n)
    assert est <= bound.value + 3 * se


# the interpolated sum inequality itself, on checkable cases


def sum_inequality_sides(model, beta, y, reps, rng):
    """E[(sum C_i Y_i)^beta - sum (C_i Y_i)^beta] with its SE, and the bound.

    The left side resamples Y from ``y`` with replacement.
    """
    counts, terms = resample_children(model, y, reps, rng)
    lhs = (reduce_to_parents(np.add, counts, terms) ** beta
           - reduce_to_parents(np.add, counts, terms ** beta))
    estimate, se = mean_se(lhs)
    return estimate, se, _sum_interpolation_bound(model, beta, y, rng)


def test_sum_inequality_two_point_hand_case():
    # N = 2, C = 1/2, Y in {0, 2} equally likely: lhs = E[(Y1/2 + Y2/2)^2]
    # - 2 E[(Y/2)^2] = 1/2, rhs = E[Y] * E[sum C^2 interpolant] = 1
    m = make_model({"n": det(2), "c": det(0.5), "q": det(1.0)})
    y = np.array([0.0, 2.0] * 500)
    estimate, se, bound = sum_inequality_sides(m, 2.0, y, 4_000,
                                               np.random.default_rng(5))
    assert bound == 1.0
    assert estimate <= bound + 3 * se
    assert estimate == pytest.approx(0.5, abs=0.1)


def test_sum_inequality_on_lognormal_weights(model_b03):
    rng = np.random.default_rng(11)
    y = rng.exponential(size=2_000) + 0.1
    estimate, se, bound = sum_inequality_sides(model_b03, 1.5, y, 5_000, rng)
    assert estimate <= bound + 3 * se


def test_sum_inequality_requires_exponent_above_one(model_b03):
    with pytest.raises(BoundError):
        _sum_interpolation_bound(model_b03, 1.0, np.ones(10))
