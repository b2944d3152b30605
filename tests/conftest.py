"""Shared calibrated model fixtures.

Three reference parameterizations recur across the suite:

* model_a    -- supercritical counts with lognormal weights calibrated so the
                moment function equals 1 at both 1 and 2 (critical pair).
* model_b    -- subcritical {0,1} counts with lognormal weights calibrated so
                the moment function equals 1 at exactly 1.
* model_b(s) -- model_b with a weight scale s (0.9 for the contractive
                variant, 0.3 for the strongly contractive one).
"""

import math

import numpy as np
import pytest
import yaml

from branchtail import cli
from branchtail.model import make_model

LN13 = math.log(1.3)
LN2 = math.log(2.0)


def model_a_spec():
    return {
        "n": {"family": "two-point", "values": {1: 0.7, 2: 0.3}},
        "c": {"family": "lognormal", "mu": -1.5 * LN13, "sigma2": LN13},
        "q": {"family": "deterministic", "value": 1.0},
    }


def model_b_spec(c_scale=1.0):
    spec = {
        "n": {"family": "two-point", "values": {0: 0.5, 1: 0.5}},
        "c": {"family": "lognormal", "mu": LN2 - 0.5, "sigma2": 1.0},
        "q": {"family": "deterministic", "value": 1.0},
    }
    if c_scale != 1.0:
        spec["c_scale"] = c_scale
    return spec


def poisson2_spec():
    # supercritical Poisson(2) counts; the moment function is above 1 at
    # 0.1 and at 8, and alpha = 0.9408 lies past its least point
    return {
        "n": {"family": "poisson", "mean": 2.0},
        "c": {"family": "lognormal", "mu": -4.5, "sigma2": 8.0},
        "q": {"family": "deterministic", "value": 1.0},
    }


def heavy_spec():
    # E[N] = 1.5 and log C ~ Normal(mu, 16), with mu set so that alpha =
    # 1.2: so heavy that a few draws dominate any sample of sum C
    return {
        "n": {"family": "two-point", "values": {1: 0.5, 2: 0.5}},
        "c": {"family": "lognormal", "sigma2": 16.0,
              "mu": -(math.log(1.5) + 11.52) / 1.2},
        "q": {"family": "deterministic", "value": 1.0},
    }


def uniform_model_spec():
    return {
        "n": {"family": "deterministic", "value": 3},
        "c": {"family": "uniform", "b": 0.8},
        "q": {"family": "deterministic", "value": 1.0},
    }


@pytest.fixture(scope="session")
def model_a():
    return make_model(model_a_spec())


@pytest.fixture(scope="session")
def model_b():
    return make_model(model_b_spec())


@pytest.fixture(scope="session")
def model_b09():
    return make_model(model_b_spec(0.9))


@pytest.fixture(scope="session")
def model_b03():
    return make_model(model_b_spec(0.3))


@pytest.fixture(scope="session")
def uniform_model():
    return make_model(uniform_model_spec())


class PythonLoader(yaml.SafeLoader):
    """PyYAML's pure-Python parser under the resolvers of ``cli._Loader``,
    which parses with libyaml where PyYAML has it."""


PythonLoader.yaml_implicit_resolvers = cli._Loader.yaml_implicit_resolvers


def same_data(x, y):
    """Equal YAML data of equal types, key order included; NaN equals NaN."""
    if type(x) is not type(y):
        return False
    if isinstance(x, dict):
        return len(x) == len(y) and all(
            same_data(kx, ky) and same_data(vx, vy)
            for (kx, vx), (ky, vy) in zip(x.items(), y.items()))
    if isinstance(x, list):
        return len(x) == len(y) and all(map(same_data, x, y))
    if isinstance(x, float) and math.isnan(x):
        return math.isnan(y)
    return x == y


def assert_loaders_agree(text):
    """``cli._Loader`` and the pure-Python parser read ``text`` alike."""
    ours = yaml.load(text, Loader=cli._Loader)
    python = yaml.load(text, Loader=PythonLoader)
    assert same_data(ours, python), (text, ours, python)


def model_b_iterate(rng, kind, start, n, reps, c_scale=1.0):
    """n-step iterates of the model_b(c_scale) recursion from ``start``.

    With N in {0, 1} every tree is a chain, so the iterate is explicit:
    the sum (linear) or max (max) of Pi_k Q = Pi_k (the toll is 1) over
    the chain's generations k < n, folded with ``start`` times Pi_n when
    the chain reaches generation n.  Drawn with numpy alone over all chains at
    once, as in bench/reference.py, so it shares no code with the engine.
    """
    fold = np.add if kind == "linear" else np.maximum
    value = np.zeros(reps)
    path = np.ones(reps)  # Pi of each chain's current node; 0 once it died
    for _ in range(n):
        value = fold(value, path)
        path = (path * (rng.random(reps) < 0.5) * c_scale
                * rng.lognormal(LN2 - 0.5, 1.0, reps))
    return fold(value, start * path)


# Frozen oracle values (high-precision bisection / Decimal algebra, computed
# independently before the implementation).
MU_A = 0.13118213223374553          # 0.5 * ln 1.3
H_A = 1.353193379896474             # (0.3 / 1.69) / MU_A
SUM2_A = 1.3550295857988166         # 0.6 / 1.69 + 1
MU_B = 1.1931471805599454           # ln 2 + 0.5
H_B = 0.8381195683928104            # 1 / MU_B
ALPHA_UNIFORM = 1.2631362613103825  # root of 3 * 0.8^t / (t+1) = 1
RHO_HALF_B09 = 0.5919969192336495
TRUNC_B09_HALF_20 = 4.055504963383204e-05
RHO_15_B03 = 0.33810945106146389
RHO_2_B03 = 0.48929072912262817
K2_B03 = 2.9580611847559615
K15_B03 = 3.3893252439417503
