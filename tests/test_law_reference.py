"""The law of ``run_batch`` for N >= 2, against a scalar reference sampler.

The reference grows one tree node by node, by the recursion of its kind
written out on its own, with scalar draws from Python's ``random``
module.  It reads the laws from the model spec and shares no code with
``engine`` or with the samplers of ``model``, so these tests hold the
engine's law under any stream contract, where the v1 replay tests hold
one stream.

Each case compares ``run_batch`` with the reference by a two-sample
Kolmogorov-Smirnov test at level ``LEVEL``, at the seeds fixed below.
"""

import math
import random

import pytest
from scipy.stats import ks_2samp

from branchtail.engine import run_batch
from branchtail.model import make_model
from conftest import uniform_model_spec

LEVEL = 1e-3
KINDS = ("linear", "max", "max-plus", "homogeneous-martingale")

# (spec, depth, budget, engine replications, reference trees)
CASES = {
    # N = 3 at every node, 121 nodes per tree; the scale puts c_scale in play
    "uniform-scaled": (dict(uniform_model_spec(), c_scale=0.9), 4, 10 ** 7,
                       8000, 2000),
    # the model of the v1 replay tests; the budget abandons some trees
    "poisson-1.5": ({"n": {"family": "poisson", "mean": 1.5},
                     "c": {"family": "uniform", "b": 1.2},
                     "q": {"family": "lognormal", "mu": 0.0, "sigma2": 0.5}},
                    6, 40, 8000, 4000),
}


def _count_law(spec, rnd):
    family = spec["family"]
    if family == "deterministic":
        return lambda: int(spec["value"])
    if family == "poisson":
        floor = math.exp(-spec["mean"])

        def poisson():  # uniforms multiplied until the product drops below
            count, product = 0, rnd.random()
            while product > floor:
                count, product = count + 1, product * rnd.random()
            return count
        return poisson
    raise ValueError(f"no reference for count family {family!r}")


def _value_law(spec, rnd):
    family = spec["family"]
    if family == "deterministic":
        return lambda: float(spec["value"])
    if family == "uniform":
        return lambda: rnd.uniform(0.0, spec["b"])
    if family == "lognormal":
        sigma = math.sqrt(spec["sigma2"])
        return lambda: rnd.lognormvariate(spec["mu"], sigma)
    raise ValueError(f"no reference for value family {family!r}")


class _OverBudget(Exception):
    pass


def reference_tree(spec, kind, depth, budget, rnd):
    """R of one tree grown to ``depth``, or None past ``budget`` nodes.

    Linear: R = sum_i C_i R_i + Q.  Max: R = max(max_i C_i R_i, Q).
    Max-plus: R = max_i C_i R_i + Q, the max of no children being 0.
    Homogeneous martingale: R = sum_i C_i R_i above ``depth`` and a mark
    drawn from the toll law at ``depth``.  A node at ``depth`` has no
    children.  A tree of more than ``budget`` nodes is abandoned.
    """
    draw_n = _count_law(spec["n"], rnd)
    draw_c = _value_law(spec["c"], rnd)
    draw_q = _value_law(spec["q"], rnd)
    scale = spec.get("c_scale", 1.0)
    nodes = 0

    def grow(level):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _OverBudget
        q = draw_q()
        if level == depth:
            return q
        children = [scale * draw_c() * grow(level + 1)
                    for _ in range(draw_n())]
        if kind == "linear":
            return sum(children) + q
        if kind == "max":
            return max(children + [q])
        if kind == "max-plus":
            return max(children, default=0.0) + q
        return sum(children)

    try:
        return grow(0)
    except _OverBudget:
        return None


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_run_batch_has_the_reference_law(case, kind):
    spec, depth, budget, reps, trees = CASES[case]
    batch = run_batch(make_model(spec), kind, depth, reps, budget=budget,
                      seed=20261019)
    rnd = random.Random(f"{case}/{kind}")
    reference = [reference_tree(spec, kind, depth, budget, rnd)
                 for _ in range(trees)]
    reference = [value for value in reference if value is not None]
    assert len(reference) > trees // 2
    assert ks_2samp(batch.values, reference).pvalue > LEVEL
