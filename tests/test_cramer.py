import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from branchtail.cramer import (
    ContractionRootError,
    CramerSolution,
    NoSignChangeError,
    _least_point,
    _least_residual,
    check_conditions,
    solve_alpha,
)
from branchtail.engine import KINDS
from branchtail.model import (VectorModel, make_model, moment_function,
                              moment_function_deriv)

from conftest import (ALPHA_UNIFORM, MU_A, MU_B, heavy_spec, model_a_spec,
                      model_b_spec, poisson2_spec)


def det(value):
    return {"family": "deterministic", "value": value}


def test_solve_model_a(model_a):
    sol = solve_alpha(model_a)
    assert abs(sol.alpha - 2.0) <= 1e-8
    assert sol.residual <= 1e-12
    assert sol.mu == pytest.approx(MU_A, rel=1e-9)
    assert sol.root_kind == "second-root-of-critical-pair"


def test_solve_model_a_default_bracket_lands_on_the_second_root(model_a):
    # the moment function exceeds 1 at both ends of (0.1, 8), the bracket
    # the solver took by default before 0.11.0; it falls through 1 at 1 and
    # rises through 1 at 2, and only the rising root is alpha
    sol = solve_alpha(model_a)
    assert abs(sol.alpha - 2.0) <= 1e-8
    assert sol.root_kind == "second-root-of-critical-pair"


def test_solve_model_b(model_b):
    sol = solve_alpha(model_b)
    assert abs(sol.alpha - 1.0) <= 1e-8
    assert sol.mu == pytest.approx(MU_B, rel=1e-12)
    assert sol.root_kind == "unique-root"


def test_solve_uniform_model_reports_contraction_root(uniform_model):
    # all weights sit below 1, so the moment function decreases through its
    # root; the solver must locate it precisely and then refuse it
    with pytest.raises(ContractionRootError) as err:
        solve_alpha(uniform_model)
    assert abs(err.value.alpha - ALPHA_UNIFORM) <= 1e-8
    assert err.value.mu < 0


def test_solve_no_sign_change():
    m = make_model({"n": det(1), "c": det(0.5), "q": det(1.0)})
    # moment function is 0.5^theta < 1 for every theta > 0
    with pytest.raises(NoSignChangeError):
        solve_alpha(m)


def test_scale_equivariance(model_b):
    # replacing C by sC moves the root so that s^a * E[N]E[C^a] = 1
    for s in (0.7, 1.3):
        scaled = make_model(model_b_spec(s))
        sol = solve_alpha(scaled)
        assert s ** sol.alpha * moment_function(model_b, sol.alpha).value == pytest.approx(
            1.0, abs=1e-10
        )


def _assert_best_double(model, alpha):
    def residual(theta):
        return abs(moment_function(model, theta).value - 1.0)

    here = residual(alpha)
    assert here <= residual(np.nextafter(alpha, 0.0))
    assert here <= residual(np.nextafter(alpha, np.inf))


@pytest.mark.parametrize("name", ["model_a", "model_b", "model_b09",
                                  "model_b03"])
def test_alpha_is_the_best_double(request, name):
    model = request.getfixturevalue(name)
    sol = solve_alpha(model)
    _assert_best_double(model, sol.alpha)
    assert sol.residual == abs(moment_function(model, sol.alpha).value - 1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.2, 2.0))
def test_alpha_is_the_best_double_across_weight_scales(c_scale):
    model = make_model(model_b_spec(c_scale))
    _assert_best_double(model, solve_alpha(model).alpha)


def test_alpha_steps_past_the_last_sign_change():
    # the moment function is not monotone at one ulp here: the last sign
    # change brackets [alpha, alpha + 1 ulp], the exact zero lies just below
    model = make_model(model_b_spec(0.5148924767513678))
    _assert_best_double(model, solve_alpha(model).alpha)


@pytest.mark.parametrize("name, alpha_hex", [
    ("model_a", "0x1.0000000000004p+1"),
    ("model_b", "0x1.0000000000000p+0"),
    ("model_b09", "0x1.17c7bc444ebc5p+0"),
])
def test_fixture_alpha_bits(request, name, alpha_hex):
    assert solve_alpha(request.getfixturevalue(name)).alpha.hex() == alpha_hex


@pytest.mark.parametrize("name, alpha_repr, mu_hex", [
    ("model_a", "2.0000000000000018", "0x1.0ca937be1b9ecp-3"),
    ("model_b", "1.0", "0x1.317217f7d1cf8p+0"),
    ("model_b09", "1.0928914706007486", "0x1.2e40ec1b164a7p+0"),
])
def test_fixture_solution_bits(request, name, alpha_repr, mu_hex):
    # the solver evaluates the float formulas behind moment_function and
    # moment_function_deriv; the public functions give the same bits
    model = request.getfixturevalue(name)
    sol = solve_alpha(model)
    assert repr(sol.alpha) == alpha_repr
    assert sol.mu.hex() == mu_hex
    assert sol.mu == moment_function_deriv(model, sol.alpha).value
    assert sol.residual == 0.0


@pytest.mark.parametrize("alpha", [0.05, 12.0])
def test_solves_roots_outside_the_old_default_bracket(alpha):
    # N in {0, 1} and lognormal(mu, 1) weights: log m(theta) =
    # -ln 2 + mu theta + theta^2 / 2, whose one positive root is alpha
    mu = math.log(2.0) / alpha - alpha / 2.0
    model = make_model({
        "n": {"family": "two-point", "values": {0: 0.5, 1: 0.5}},
        "c": {"family": "lognormal", "mu": mu, "sigma2": 1.0},
        "q": det(1.0)})
    assert solve_alpha(model).alpha == pytest.approx(alpha, abs=1e-8)


def test_last_step_does_not_depend_on_where_the_bisection_stopped(model_a):
    # model_a rises through 1 slowly (mu = 0.13), so its residual stays
    # within a few eps of 0 over many doubles around alpha; a last step
    # started from any of them returns alpha
    def f(theta):
        return moment_function(model_a, theta).value - 1.0

    alpha = solve_alpha(model_a).alpha
    starts = [alpha + k * 2.0 ** -51 for k in range(-100, 101, 10)]
    assert {_least_residual(f, start)[1] for start in starts} == {alpha}


def test_mu_matches_deriv_code_path(model_a):
    sol = solve_alpha(model_a)
    assert sol.mu == moment_function_deriv(model_a, sol.alpha).value


def two_root_spec(n, mu, sigma2):
    return {"n": det(n), "c": {"family": "lognormal", "mu": mu,
                               "sigma2": sigma2}, "q": det(1.0)}


def two_root_family(n, low_root, gap):
    # lognormal weights put log m on a parabola; (mu, sigma2) are drawn
    # through its two roots low_root and low_root + gap
    sigma2 = 2.0 * math.log(n) / (low_root * (low_root + gap))
    return make_model(two_root_spec(n, -sigma2 * (low_root + gap / 2.0),
                                    sigma2))


# each of the brackets (lo, hi) the solver took before 0.11.0 holds alpha,
# but the moment function exceeds 1 at both ends; alpha is the root that a
# bracket straddling it found then, to rounding (the last step moves it by
# at most an ulp)
@pytest.mark.parametrize("spec, ends, straddled", [
    (dict(model_a_spec(), c_scale=0.95), (0.1, 8.0), 2.6307763882677757),
    (dict(model_a_spec(), c_scale=0.95), (0.5, 4.0), 2.6307763882677757),
    (poisson2_spec(), (0.1, 8.0), 0.9408113200262631),
    (two_root_spec(2, -1.0, 0.5), (0.1, 8.0), 3.1078859497981814),
    (two_root_spec(2, -1.0, 0.5), (0.5, 4.0), 3.1078859497981814),
], ids=["model_a-0.95", "model_a-0.95-half", "poisson2", "two-root",
        "two-root-half"])
def test_a_bracket_above_one_at_both_ends_solves_past_the_minimum(
        spec, ends, straddled):
    model = make_model(spec)
    assert all(moment_function(model, end).value > 1.0 for end in ends)
    sol = solve_alpha(model)
    assert ends[0] < sol.alpha < ends[1]
    assert sol.alpha == pytest.approx(straddled, rel=1e-13)
    assert sol.root_kind == "unique-root"


def test_model_a_default_bracket_starts_at_the_minimum(model_a):
    # log m is a parabola with roots 1 and 2, so it is least at 1.5, and
    # the bisection for alpha starts there
    assert _least_point(
        lambda theta: moment_function_deriv(model_a, theta).value) == 1.5
    assert 1.5 < solve_alpha(model_a).alpha


def test_solver_idempotence(model_b09):
    # the last step, started from its own answer, returns it again
    def f(theta):
        return moment_function(model_b09, theta).value - 1.0

    sol = solve_alpha(model_b09)
    assert _least_residual(f, sol.alpha) == (sol.residual, sol.alpha)


@pytest.mark.parametrize("spec", [
    two_root_spec(2, 0.0, 1.0),                      # rising from the floor
    two_root_spec(2, -0.5, 1.0),                     # least value 1.76
], ids=["monotone", "minimum-above-one"])
def test_no_crossing_above_one_is_no_sign_change(spec):
    with pytest.raises(NoSignChangeError):
        solve_alpha(make_model(spec))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.floats(0.02, 3.0), st.floats(0.05, 4.9))
def test_default_solve_finds_the_root_a_straddling_bracket_finds(
        n, low_root, gap):
    # a bracket straddling the rising root finds low_root + gap; the
    # solver finds it alone, wherever the least point lies
    model = two_root_family(n, low_root, gap)
    alpha = solve_alpha(model).alpha
    assert alpha == pytest.approx(low_root + gap, rel=1e-10)
    _assert_best_double(model, alpha)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.floats(0.02, 3.0), st.floats(0.05, 4.9))
@example(2, 0.02, 3.695437006351441)  # a tie two doubles below, past a hole
def test_alpha_is_the_least_residual_in_its_window(n, low_root, gap):
    # where the computed moment function is flat to rounding its sign
    # changes spread over many doubles; alpha must not depend on which one
    # a bisection stops at, so it is the least residual 256 ulps each way,
    # and the lowest such double
    model = two_root_family(n, low_root, gap)
    alpha = solve_alpha(model).alpha

    def residual(theta):
        return abs(moment_function(model, theta).value - 1.0)

    here, above, below = residual(alpha), alpha, alpha
    for _ in range(256):
        above = math.nextafter(above, math.inf)
        below = math.nextafter(below, 0.0)
        assert here <= residual(above)
        assert here < residual(below)


def test_conditions_model_b_linear(model_b):
    sol = solve_alpha(model_b)
    rep = check_conditions(model_b, sol, "linear")
    assert rep.overall_pass
    weight = rep.entry("weight-moment-finite")
    assert weight.status == "pass"
    # E[N] E[C^alpha] = 1 at the root, and E[N] = 1/2
    assert weight.value == pytest.approx(2.0)


def test_conditions_arithmetic_weight_fails():
    m = make_model({"n": det(2), "c": det(0.5), "q": det(1.0)})
    sol = CramerSolution(1.0, -0.693, 0.0, "unique-root")
    rep = check_conditions(m, sol, "linear")
    assert rep.entry("nonarithmetic").status == "fail"
    assert not rep.overall_pass


def test_conditions_model_a_homogeneous(model_a):
    sol = solve_alpha(model_a)
    rep = check_conditions(model_a, sol, "homogeneous-martingale")
    assert rep.overall_pass
    assert rep.entry("branching-spread").value == pytest.approx(0.3)
    assert rep.entry("critical-mean").status == "pass"
    # the mean-contraction entry must not appear for the critical kind
    with pytest.raises(KeyError):
        rep.entry("mean-contraction")


def test_conditions_mean_contraction_checked_for_linear(model_b09):
    sol = solve_alpha(model_b09)
    assert sol.alpha > 1.0
    rep = check_conditions(model_b09, sol, "linear")
    entry = rep.entry("mean-contraction")
    assert entry.status == "pass"
    assert entry.value == pytest.approx(0.9)


def test_conditions_critical_mean_fails_linear_kind(model_a):
    # the mean ratio is exactly 1 here but evaluates one ulp under it;
    # the additive fixed point does not exist and the check must say so
    sol = solve_alpha(model_a)
    rep = check_conditions(model_a, sol, "linear")
    assert not rep.overall_pass
    entry = rep.entry("mean-contraction")
    assert entry.status == "fail"
    assert entry.value == pytest.approx(1.0, abs=1e-12)


def test_conditions_deterministic_given_inputs(model_a):
    sol = solve_alpha(model_a)
    a = check_conditions(model_a, sol, "homogeneous-martingale")
    b = check_conditions(model_a, sol, "homogeneous-martingale")
    assert [(e.name, e.status, e.value) for e in a.entries] == [
        (e.name, e.status, e.value) for e in b.entries
    ]


def test_heavy_weights_pass_every_kind_with_a_toll():
    # the martingale kind also needs a critical mean, which this model lacks
    m = make_model(heavy_spec())
    sol = solve_alpha(m)
    assert sol.alpha == pytest.approx(1.2, rel=1e-12)
    for kind in ("linear", "max", "max-plus"):
        assert check_conditions(m, sol, kind).overall_pass


@pytest.mark.parametrize("spec", [
    model_a_spec(), model_b_spec(), model_b_spec(0.9), heavy_spec(),
], ids=["model_a", "model_b", "model_b09", "heavy"])
def test_conditions_draw_nothing(spec, monkeypatch):
    m = make_model(spec)
    sol = solve_alpha(m)

    def no_draw(*args, **kwargs):
        raise AssertionError("a condition drew a sample")

    monkeypatch.setattr(VectorModel, "draw_offspring", no_draw)
    monkeypatch.setattr(VectorModel, "draw_q", no_draw)
    for kind in KINDS:
        rep = check_conditions(m, sol, kind)
        assert rep.entry("weight-moment-finite").value == m.c_moment(sol.alpha)


def test_weight_moment_fails_where_the_weight_moment_overflows(model_b):
    # E[C^theta] = exp(theta mu + theta^2 / 2) passes the largest double
    # near theta = 37.5
    sol = CramerSolution(40.0, 1.0, 0.0, "unique-root")
    assert math.isinf(model_b.c_moment(40.0))
    for kind in KINDS:
        entry = check_conditions(model_b, sol, kind).entry(
            "weight-moment-finite")
        assert entry.status == "fail"
        assert entry.value == math.inf
