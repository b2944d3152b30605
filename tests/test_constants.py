import math

import numpy as np
import pytest

from branchtail.constants import (
    ConstantError,
    tail_constant_bounds,
    tail_constant_closed_form,
    tail_constant_mc,
    tail_constant_report,
)
from branchtail.cramer import check_conditions, solve_alpha
from branchtail.engine import run_batch
from branchtail.model import make_model, moment_function_deriv

from conftest import H_A, H_B, model_a_spec, model_b_spec


def det(value):
    return {"family": "deterministic", "value": value}


@pytest.fixture(scope="module")
def sol_b(model_b):
    return solve_alpha(model_b)


@pytest.fixture(scope="module")
def sol_a(model_a):
    return solve_alpha(model_a)


@pytest.fixture(scope="module")
def batch_b(model_b):
    return run_batch(model_b, "linear", None, 100_000, seed=101)


# closed forms against frozen oracles


def test_closed_form_additive_at_one(model_b):
    h = tail_constant_closed_form(model_b, 1.0, "linear")
    assert h == pytest.approx(H_B, rel=1e-12)


def test_closed_form_martingale_at_two(model_a):
    h = tail_constant_closed_form(model_a, 2.0, "homogeneous-martingale")
    assert h == pytest.approx(H_A, rel=1e-12)


def test_closed_form_martingale_scales_with_the_squared_mean_mark(model_a):
    # the batch tends to E[mark] times the martingale limit, so H takes
    # E[mark]^2; unit marks keep E[pair sum] / mu to the bit
    unit = tail_constant_closed_form(model_a, 2.0, "homogeneous-martingale")
    pair = model_a.n_law.pair_mean() * model_a.c_moment(1.0) ** 2
    mu = moment_function_deriv(model_a, 2.0).value
    assert unit == pair / mu
    doubled = make_model(dict(model_a_spec(), q=det(2.0)))
    assert tail_constant_closed_form(
        doubled, 2.0, "homogeneous-martingale") == 4.0 * unit


def test_closed_form_additive_at_two_chain_hand_value():
    # single child, weight 1/2, unit toll, all moments by hand:
    # E[R] = 2, mu at 2 is C^2 log C = -(1/4) log 2 < 0 has no root here,
    # so use weight 2^(-1/2): rho = 2^(-1/2), E[R] = 1/(1 - 2^(-1/2)),
    # pair term 0, E[Q sum C] = 2^(-1/2), mu = (1/2) log sqrt(2)
    c = 2.0 ** -0.5
    m = make_model({"n": det(1), "c": det(c), "q": det(1.0)})
    mean_r = 1.0 / (1.0 - c)
    mu = c ** 2 * math.log(c)  # negative: contraction side of the root
    expected = (1.0 + 2.0 * mean_r * c) / (2.0 * mu)
    # the formula itself has no sign guard; compare the assembled pieces
    h = tail_constant_closed_form(m, 2.0, "linear")
    assert h == pytest.approx(expected, rel=1e-12)


def test_closed_form_martingale_positive_iff_branching(model_a):
    # a single-child or leaf-only tree cannot produce a pair term
    single = make_model({"n": det(1), "c": det(0.9), "q": det(0.0)})
    assert tail_constant_closed_form(
        single, 2.0, "homogeneous-martingale") == 0.0
    assert tail_constant_closed_form(
        model_a, 2.0, "homogeneous-martingale") > 0.0


def test_closed_form_unsupported_requests(model_b, sol_b):
    with pytest.raises(ConstantError, match="alpha"):
        tail_constant_closed_form(model_b, 1.5, "linear")
    with pytest.raises(ConstantError, match="alpha = 2"):
        tail_constant_closed_form(model_b, 1.0, "homogeneous-martingale")
    with pytest.raises(ConstantError, match="no closed form"):
        tail_constant_closed_form(model_b, 1.0, "max")
    with pytest.raises(ConstantError, match="finite mean"):
        tail_constant_closed_form(model_b, 2.0, "linear")


# Monte Carlo route


def test_mc_route_unit_toll_is_exact(model_b, sol_b, batch_b):
    # with Q = 1 the additive integrand collapses to Q / mu pathwise
    est = tail_constant_mc(model_b, sol_b, "linear", batch_b, reps=20_000)
    assert est.value == pytest.approx(H_B, rel=1e-10)
    assert est.std_error < 1e-12
    assert not est.suspect


def test_mc_route_martingale_matches_closed_form(model_a, sol_a):
    batch = run_batch(model_a, "homogeneous-martingale", 12, 40_000, seed=7)
    est = tail_constant_mc(model_a, sol_a, "homogeneous-martingale", batch,
                           reps=40_000, min_batch=10_000)
    assert abs(est.value - H_A) < 3 * est.std_error


def test_mc_route_max_kind_positive_and_below_additive(model_b, sol_b,
                                                       batch_b):
    max_batch = run_batch(model_b, "max", None, 100_000, seed=102)
    est = tail_constant_mc(model_b, sol_b, "max", max_batch, reps=20_000)
    additive = tail_constant_mc(model_b, sol_b, "linear", batch_b,
                                reps=20_000)
    assert 0.0 < est.value < additive.value


def test_mc_route_validation(model_b, sol_b, batch_b):
    small = np.ones(100)
    with pytest.raises(ConstantError, match="need >="):
        tail_constant_mc(model_b, sol_b, "linear", small)
    with pytest.raises(ConstantError, match="reps"):
        tail_constant_mc(model_b, sol_b, "linear", batch_b, reps=100)
    other = run_batch(make_model(model_a_spec()), "linear", 5, 200, seed=0)
    with pytest.raises(ConstantError, match="different model"):
        tail_constant_mc(model_b, sol_b, "linear", other, min_batch=100)


def two_child_spec():
    # N in {0, 2} with E[N] = 0.8, and mu_C set so that alpha = 1
    return {"n": {"family": "two-point", "values": {0: 0.6, 2: 0.4}},
            "c": {"family": "lognormal", "mu": -math.log(0.8) - 0.5,
                  "sigma2": 1.0},
            "q": det(1.0)}


def test_mc_route_max_plus_equals_linear_when_n_at_most_one(model_b, sol_b,
                                                            batch_b):
    # the same draws, and one child folds the same way by max as by add
    maxplus = tail_constant_mc(model_b, sol_b, "max-plus", batch_b,
                               reps=20_000)
    linear = tail_constant_mc(model_b, sol_b, "linear", batch_b, reps=20_000)
    assert maxplus.value == linear.value
    assert maxplus.std_error == linear.std_error


def test_mc_route_max_plus_below_toll_bound_at_alpha_one():
    # for alpha <= 1, (M + Q)^alpha <= sum_i x_i^alpha + Q^alpha sample by
    # sample, so the estimate cannot exceed E[Q^alpha] / (alpha mu)
    m = make_model(two_child_spec())
    sol = solve_alpha(m)
    assert sol.alpha == pytest.approx(1.0, abs=1e-12)
    batch = run_batch(m, "max-plus", None, 3_000, seed=2027)
    est = tail_constant_mc(m, sol, "max-plus", batch, min_batch=3_000)
    upper = tail_constant_bounds(m, sol, "max-plus")[1]
    assert upper == pytest.approx(1.3829, abs=1e-4)  # E[Q] / mu
    assert 0.0 < est.value <= upper * (1 + 1e-12)


@pytest.mark.parametrize("spec", [two_child_spec(), model_b_spec(0.9)],
                         ids=["two-child", "model_b09"])
def test_max_plus_conditions_are_the_linear_kinds(spec):
    m = make_model(spec)
    sol = solve_alpha(m)
    entries = {kind: [(e.name, e.status)
                      for e in check_conditions(m, sol, kind).entries]
               for kind in ("linear", "max-plus")}
    assert entries["max-plus"] == entries["linear"]


def test_mc_route_reproducible_default_stream(model_b, sol_b, batch_b):
    a = tail_constant_mc(model_b, sol_b, "linear", batch_b, reps=15_000)
    b = tail_constant_mc(model_b, sol_b, "linear", batch_b, reps=15_000)
    assert a.value == b.value and a.std_error == b.std_error


# moment bounds


def test_bounds_collapse_at_alpha_one(model_b, sol_b):
    lower, upper = tail_constant_bounds(model_b, sol_b, "linear")
    assert lower == upper
    assert lower == pytest.approx(H_B, rel=1e-10)


def test_bounds_one_sided_away_from_one(model_a, sol_a, model_b09):
    lower, upper = tail_constant_bounds(model_a, sol_a, "linear")
    assert upper is None
    assert lower == pytest.approx(1.0 / (2.0 * sol_a.mu), rel=1e-12)
    sol_b09 = solve_alpha(model_b09)
    assert sol_b09.alpha > 1.0
    low_09, up_09 = tail_constant_bounds(model_b09, sol_b09, "max")
    assert low_09 is None  # the max integrand never exceeds Q^alpha
    assert up_09 == pytest.approx(1.0 / (sol_b09.alpha * sol_b09.mu),
                                  rel=1e-12)
    # max-plus: (Q + M)^alpha <= Q^alpha + M^alpha fails above alpha = 1
    assert tail_constant_bounds(model_b09, sol_b09, "max-plus") == (None, None)


def test_bounds_max_kinds_upper_below_one():
    m = make_model(dict(model_b_spec(), c_scale=1.1))
    sol = solve_alpha(m)
    assert sol.alpha < 1.0
    expected = 1.0 / (sol.alpha * sol.mu)
    for kind in ("max", "max-plus"):
        lower, upper = tail_constant_bounds(m, sol, kind)
        assert lower is None
        assert upper == pytest.approx(expected, rel=1e-12)


def test_bounds_martingale_needs_batch(model_a, sol_a):
    lower, upper = tail_constant_bounds(model_a, sol_a,
                                        "homogeneous-martingale")
    assert lower is None and upper is None  # integer root, no batch


def test_bounds_martingale_fractional_upper_dominates_mc(model_a):
    scaled = make_model(dict(model_a_spec(), c_scale=0.95))
    sol = solve_alpha(scaled)
    assert abs(sol.alpha - round(sol.alpha)) > 1e-3
    batch = run_batch(scaled, "homogeneous-martingale", 12, 30_000, seed=5)
    lower, upper = tail_constant_bounds(
        scaled, sol, "homogeneous-martingale", r_batch=batch,
        rng=np.random.default_rng(1))
    assert lower is None and upper is not None
    est = tail_constant_mc(scaled, sol, "homogeneous-martingale", batch,
                           reps=30_000, min_batch=10_000)
    assert est.value - 3 * est.std_error <= upper


# assembled report


def test_report_routes_agree_for_additive_model(model_b, sol_b, batch_b):
    report = tail_constant_report(model_b, sol_b, "linear", r_batch=batch_b,
                                  reps=20_000)
    assert report.closed_form == pytest.approx(H_B, rel=1e-12)
    assert report.mc_value == pytest.approx(H_B, rel=1e-10)
    assert report.lower_bound == pytest.approx(H_B, rel=1e-10)
    assert report.upper_bound == pytest.approx(H_B, rel=1e-10)
    d = report.to_dict()
    assert d["kind"] == "linear" and d["mc_general"] == report.mc_value


def test_report_absent_routes_are_none(model_b09):
    sol = solve_alpha(model_b09)
    report = tail_constant_report(model_b09, sol, "max")
    assert report.closed_form is None
    assert report.mc_value is None and report.mc_std_error is None
    assert report.lower_bound is None and report.upper_bound is not None
