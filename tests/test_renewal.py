import json
import math

import numpy as np
import pytest

from branchtail.model import make_model
from branchtail.renewal import (
    TEST_FUNCTIONS,
    TiltError,
    factorization_checks,
    make_tilted,
)

from conftest import MU_A, MU_B, model_a_spec


def test_tilt_normalizes_at_the_root(model_a, model_b):
    for model, alpha, mu in ((model_a, 2.0, MU_A), (model_b, 1.0, MU_B)):
        tilted = make_tilted(model, alpha)
        assert tilted.total_mass == pytest.approx(1.0, abs=1e-10)
        assert tilted.mean == pytest.approx(mu, rel=1e-12)
        assert tilted.alpha == alpha


def test_tilt_rejects_off_root_exponent(model_b):
    with pytest.raises(TiltError, match="probability measure only at the root"):
        make_tilted(model_b, 1.5)
    with pytest.raises(TiltError, match="positive"):
        make_tilted(model_b, -1.0)


def test_tilt_lognormal_shift_is_exact(model_b):
    # lognormal weights tilt to a normal increment with shifted location
    tilted = make_tilted(model_b, 1.0)
    assert tilted.family == "lognormal"
    assert tilted.loc == pytest.approx(math.log(2.0) - 0.5 + 1.0, rel=1e-12)
    assert tilted.scale == pytest.approx(1.0, rel=1e-12)


def test_tilt_scaled_weights_shift_location(model_b09):
    from branchtail.cramer import solve_alpha

    sol = solve_alpha(model_b09)
    tilted = make_tilted(model_b09, sol.alpha)
    assert tilted.total_mass == pytest.approx(1.0, abs=1e-10)
    # location picks up log(0.9) relative to the unscaled family
    assert tilted.loc == pytest.approx(
        math.log(2.0) - 0.5 + math.log(0.9) + sol.alpha * 1.0, rel=1e-12)


def test_tilt_unsupported_family_is_explicit():
    # scale 1.25 puts the mean weight sum at exactly 1, so the mass check
    # passes and the missing tilt formula for this family is what trips
    m = make_model({
        "n": {"family": "deterministic", "value": 2},
        "c": {"family": "beta-scaled", "a": 2.0, "b": 3.0, "scale": 1.25},
        "q": {"family": "deterministic", "value": 1.0},
    })
    with pytest.raises(TiltError, match="family"):
        make_tilted(m, 1.0)


def test_increment_sample_mean_matches_mu(model_a):
    tilted = make_tilted(model_a, 2.0)
    draws = tilted.sample(np.random.default_rng(17), 200_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - MU_A) < 3 * se


def test_uniform_family_tilt_mass_and_sampler():
    m = make_model({
        "n": {"family": "deterministic", "value": 3},
        "c": {"family": "uniform", "b": 0.8},
        "q": {"family": "deterministic", "value": 1.0},
    })
    from branchtail.cramer import ContractionRootError, solve_alpha

    with pytest.raises(ContractionRootError) as err:
        solve_alpha(m)
    alpha = err.value.alpha
    tilted = make_tilted(m, alpha)
    assert tilted.total_mass == pytest.approx(1.0, abs=1e-10)
    draws = tilted.sample(np.random.default_rng(4), 100_000)
    # increments are log-weights, so never above log(b)
    assert draws.max() <= math.log(0.8)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - tilted.mean) < 3 * se


# the factorization check itself


def test_duality_constant_function_closed_form(model_b):
    (report,) = factorization_checks(model_b, 1.0, [1], ["constant-1"],
                                     5_000, np.random.default_rng(2))
    assert report.rhs == pytest.approx(1.0, abs=1e-10)
    assert report.rhs_se == 0.0
    assert report.rhs_method == "closed-form"
    assert report.agree


def test_duality_identity_semigroup(model_b):
    rng = np.random.default_rng(3)
    (one,) = factorization_checks(model_b, 1.0, [1], ["identity-u"], 40_000,
                                  rng)
    (two,) = factorization_checks(model_b, 1.0, [2], ["identity-u"], 40_000,
                                  rng)
    assert one.agree and two.agree
    # mean of the n-fold convolution is n mu
    assert abs(one.lhs - MU_B) < 4 * one.lhs_se
    assert abs(two.lhs - 2 * MU_B) < 4 * math.hypot(two.lhs_se, 0.0)


def test_duality_indicator_and_exp(model_a):
    rng = np.random.default_rng(5)
    (ind,) = factorization_checks(model_a, 2.0, [2], ["indicator"], 30_000,
                                  rng)
    assert ind.agree
    assert ind.g_name == "indicator(u<=0)"


def test_duality_validation(model_b):
    rng = np.random.default_rng(0)
    with pytest.raises(TiltError, match="n must be in"):
        list(factorization_checks(model_b, 1.0, [0], ["constant-1"], 100, rng))
    with pytest.raises(TiltError, match="n must be in"):
        list(factorization_checks(model_b, 1.0, [5], ["constant-1"], 100, rng))
    with pytest.raises(TiltError, match="reps"):
        list(factorization_checks(model_b, 1.0, [1], ["constant-1"], 1, rng))
    with pytest.raises(TiltError, match="test function"):
        list(factorization_checks(model_b, 1.0, [1], ["sine"], 100, rng))
    # removed in 0.15.0: no command ran it
    with pytest.raises(TiltError, match="test function"):
        list(factorization_checks(model_b, 1.0, [1], ["exp-bounded"], 100,
                                  rng))


def test_report_serializes(model_b):
    (report,) = factorization_checks(model_b, 1.0, [1], ["identity-u"],
                                     2_000, np.random.default_rng(9))
    decoded = json.loads(json.dumps(report.to_dict()))
    assert decoded["n"] == 1
    assert decoded["g"] == "identity-u"
    assert isinstance(decoded["agree"], bool)
    assert isinstance(decoded["heavy_flag"], bool)
    assert TEST_FUNCTIONS == ("constant-1", "identity-u", "indicator")
