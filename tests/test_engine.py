import json
import math
import os
import tempfile
import tracemalloc
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchtail import engine
from branchtail.engine import (
    EngineError,
    SampleBatch,
    _iterate_forest,
    generation_frontier,
    read_batch_csv,
    run_batch,
    summary,
    truncation_bound,
    write_batch_csv,
)
from branchtail.model import VectorModel, make_model

from conftest import (RHO_HALF_B09, TRUNC_B09_HALF_20, model_a_spec,
                      model_b_spec)


def det(value):
    return {"family": "deterministic", "value": value}


def chain_model(c=0.5, q=1.0):
    # single-child chain: every recursion collapses to a scalar recurrence
    return make_model({"n": det(1), "c": det(c), "q": det(q)})


# exact scalar recurrences on the deterministic chain


def test_linear_chain_is_truncated_geometric_series():
    batch = run_batch(chain_model(), "linear", 10, 64, seed=1)
    expected = sum(0.5 ** k for k in range(11))
    assert np.all(batch.values == expected)
    assert batch.total_nodes == 64 * 11


def test_max_chain_toll_dominates():
    batch = run_batch(chain_model(), "max", 10, 64, seed=1)
    assert np.all(batch.values == 1.0)


@pytest.mark.parametrize("n, depth, expected", [
    # value_n = max(c * value_{n-1}, 0) + q gives the same geometric series
    (1, 10, sum(0.5 ** k for k in range(11))),
    # max_i C_i R_i + Q = 0.5 * 1 + 1; the (max, +) form max_i (C_i + R_i) + Q
    # would give 0.5 + 1 + 1 = 2.5
    (2, 1, 1.5),
], ids=["chain", "two-children"])
def test_maxplus_chain_folds_exactly(n, depth, expected):
    m = make_model({"n": det(n), "c": det(0.5), "q": det(1.0)})
    batch = run_batch(m, "max-plus", depth, 32, seed=3)
    assert np.all(batch.values == expected)


def test_leaf_only_model_returns_the_toll():
    m = make_model({"n": det(0), "c": det(1.0), "q": det(2.5)})
    batch = run_batch(m, "linear", None, 40, seed=9)
    assert np.all(batch.values == 2.5)
    assert batch.total_nodes == 40


def test_homogeneous_chain_unit_martingale():
    m = make_model({"n": det(1), "c": det(1.0), "q": det(0.0)})
    batch = run_batch(m, "homogeneous-martingale", 7, 16, seed=4)
    assert np.all(batch.values == 1.0)


# stream contract: coupling across depths and kinds


def test_deeper_run_extends_the_same_sample_path(model_b09):
    shallow = run_batch(model_b09, "linear", 5, 500, seed=77)
    deep = run_batch(model_b09, "linear", 6, 500, seed=77)
    assert np.all(deep.values >= shallow.values)
    # generation sizes agree on the shared prefix of levels
    assert np.array_equal(deep.level_mean[:6], shallow.level_mean)


def test_max_kind_is_coupled_below_linear(model_b09):
    linear = run_batch(model_b09, "linear", 8, 500, seed=21)
    biggest = run_batch(model_b09, "max", 8, 500, seed=21)
    assert np.all(biggest.values <= linear.values)
    assert biggest.total_nodes == linear.total_nodes


@pytest.mark.parametrize("budget", [engine.DEFAULT_BUDGET, 40])
def test_kinds_are_ordered_tree_by_tree(budget):
    # max <= max-plus <= linear on one tree: the path sums dominate their
    # last terms, and the linear value adds every term of every path
    spec = model_a_spec()
    spec["q"] = {"family": "lognormal", "mu": 0.0, "sigma2": 1.0}
    m = make_model(spec)
    biggest, maxplus, linear = (run_batch(m, kind, 8, 2_000, budget=budget,
                                          seed=64)
                                for kind in ("max", "max-plus", "linear"))
    for batch in (maxplus, linear):
        assert np.array_equal(batch.truncated, biggest.truncated)
        assert np.array_equal(batch.node_counts, biggest.node_counts)
    assert np.all(biggest.values <= maxplus.values)
    assert np.all(maxplus.values <= linear.values * (1 + 1e-12))
    if budget == 40:
        assert biggest.truncated.any()


def test_exact_mode_couples_below_any_truncation(model_b09):
    exact = run_batch(model_b09, "linear", None, 400, seed=5)
    truncated = run_batch(model_b09, "linear", 12, 400, seed=5)
    assert np.all(truncated.values <= exact.values + 1e-300)


# exact mode and termination


def test_exact_mode_requires_possible_extinction(uniform_model):
    with pytest.raises(EngineError, match="terminate"):
        run_batch(uniform_model, "linear", None, 10, seed=0)


def test_exact_tree_size_mean(model_b):
    # subtree size of a {0,1} chain with P(stop)=1/2 is Geometric(1/2)
    reps = 20_000
    batch = run_batch(model_b, "linear", None, reps, seed=13)
    mean_nodes = batch.total_nodes / reps
    se = math.sqrt(2.0 / reps)
    assert abs(mean_nodes - 2.0) < 3 * se


# budget handling


def test_budget_hit_abandons_replication(model_a):
    batch = run_batch(model_a, "linear", 12, 200, budget=50, seed=2)
    assert 0 < batch.truncated_replications < 200
    assert batch.completed + batch.truncated_replications == 200
    assert batch.values.size == batch.completed


def test_budget_all_truncated_is_an_error(model_a):
    # every replication of a supercritical chain outgrows a two-node budget
    with pytest.raises(EngineError, match="budget"):
        run_batch(model_a, "linear", 25, 50, budget=1, seed=2)


def test_budget_hit_draws_no_weights_of_the_generation_over_it():
    # a million children per node: their weights alone would take 8 MB
    m = make_model({"n": {"family": "poisson", "mean": 1e6},
                    "c": {"family": "uniform", "b": 1e-6}, "q": det(1.0)})
    tracemalloc.start()
    try:
        with pytest.raises(EngineError, match="budget"):
            run_batch(m, "linear", 3, 4, budget=1000, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    value, nodes, z = engine._replicate(m, "linear", 3, 1000,
                                        np.random.default_rng(2))
    born = m.n_law.sample(np.random.default_rng(2), 1)[0]
    assert (value, nodes, z) == (None, 1 + born, [1])


def test_an_abandoned_replication_counts_its_nodes_without_wrap_around():
    # two nodes of 5e18 children each hold 1e19 in all, past int64
    m = make_model({"n": {"family": "two-point", "values": {2: 0.5, 5e18: 0.5}},
                    "c": {"family": "uniform", "b": 1e-19}, "q": det(1.0)})
    batch = run_batch(m, "linear", 2, 50, budget=100, seed=1)
    abandoned = batch.node_counts[batch.truncated]
    assert 0 < abandoned.size == batch.truncated_replications < 50
    assert (abandoned > 100).all()
    assert abandoned.max() == 2 ** 63 - 1  # a count past int64, capped
    assert batch.total_nodes == sum(batch.node_counts.tolist()) > 2 ** 63


def test_generation_frontier_grows_a_forest_with_owners():
    binary = make_model({"n": det(2), "c": det(0.5), "q": det(1.0)})
    rng = np.random.default_rng(0)
    generations = list(generation_frontier(binary, 2, 3, 7, rng))
    assert [pi.size for pi, _, _ in generations] == [3, 6, 12]
    pi, owner, alive = generations[-1]
    assert np.array_equal(pi, np.full(12, 0.25))
    assert owner.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert alive.all()
    # each tree has 1 + 2 + 4 = 7 nodes, so budget 6 drops all three
    *_, (pi, owner, alive) = generation_frontier(binary, 2, 3, 6, rng)
    assert pi.size == 0 and owner.size == 0 and not alive.any()


def test_generation_frontier_drops_only_the_trees_over_budget():
    # one or three children: a tree has 2 or 4 nodes through generation 1
    m = make_model({"n": {"family": "two-point", "values": {1: 0.5, 3: 0.5}},
                    "c": det(0.5), "q": det(1.0)})
    trees, budget = 400, 3
    free = list(generation_frontier(m, 2, trees, 10 ** 6,
                                    np.random.default_rng(5)))
    tight = list(generation_frontier(m, 2, trees, budget,
                                     np.random.default_rng(5)))
    # generation 1 is drawn before any drop, so both forests share it
    children = np.bincount(free[1][1], minlength=trees)
    alive1 = tight[1][2]
    assert np.array_equal(alive1, 1 + children <= budget)
    assert 0 < alive1.sum() < trees
    kept = alive1[free[1][1]]
    assert np.array_equal(tight[1][0], free[1][0][kept])
    assert np.array_equal(tight[1][1], free[1][1][kept])
    # generation 2: a dropped tree stays dropped, a kept one is within budget
    pi, owner, alive2 = tight[2]
    assert not (alive2 & ~alive1).any()
    assert 0 < alive2.sum() < alive1.sum()
    assert np.array_equal(np.unique(owner), np.flatnonzero(alive2))
    grandchildren = np.bincount(owner, minlength=trees)
    assert (2 + grandchildren[alive2] <= budget).all()
    assert np.array_equal(pi, np.full(owner.size, 0.25))


# validation


def test_seed_and_depth_validation(model_b09):
    with pytest.raises(EngineError, match="seed"):
        run_batch(model_b09, "linear", 5, 10, seed=-1)
    with pytest.raises(EngineError, match="seed"):
        run_batch(model_b09, "linear", 5, 10, seed=2 ** 64)
    with pytest.raises(EngineError, match="depth"):
        run_batch(model_b09, "linear", -3, 10, seed=0)
    with pytest.raises(EngineError, match="unknown recursion kind"):
        run_batch(model_b09, "minimum", 5, 10, seed=0)


def test_toll_free_model_rejected_outside_martingale_kind():
    m = make_model({"n": det(2), "c": det(0.4), "q": det(0.0)})
    with pytest.raises(EngineError, match="P\\(Q > 0\\)"):
        run_batch(m, "linear", 4, 10, seed=0)
    batch = run_batch(m, "homogeneous-martingale", 4, 10, seed=0)
    assert np.allclose(batch.values, (2 * 0.4) ** 4 / 0.8 ** 4 * 0.8 ** 4)


def test_seeds_above_two_to_the_63_give_distinct_streams(model_b):
    # the key is two uint64 words, so no seed is rounded onto another
    seeds = (0, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batches = [run_batch(model_b, "linear", None, 200, seed=s)
                   for s in seeds]
    for i, first in enumerate(batches):
        for second in batches[i + 1:]:
            assert not np.array_equal(first.values, second.values)


# stream contract v1: replication i reads Philox keyed (seed, i) from counter 0


@pytest.mark.parametrize("kind", [
    "linear", "max", "max-plus", "homogeneous-martingale"])
def test_batch_replays_fresh_generator_per_replication(kind):
    m = make_model({
        "n": {"family": "poisson", "mean": 1.5},
        "c": {"family": "uniform", "b": 1.2},
        "q": {"family": "lognormal", "mu": 0.0, "sigma2": 0.5},
    })
    # 2050 replications cross a chunk boundary; the budget abandons some
    reps, depth, budget, seed = 2050, 6, 40, 987654321
    batch = run_batch(m, kind, depth, reps, budget=budget, seed=seed)
    values, nodes, truncated = [], [], []
    for i in range(reps):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64)))
        value, n, _ = engine._replicate(m, kind, depth, budget, rng)
        nodes.append(n)
        truncated.append(value is None)
        if value is not None:
            values.append(value)
    assert 0 < sum(truncated) < reps
    assert np.array_equal(batch.values, values)
    assert batch.node_counts.tolist() == nodes
    assert batch.truncated.tolist() == truncated


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("depth", [6, None], ids=["depth6", "exact"])
@pytest.mark.parametrize("kind", [
    "linear", "max", "max-plus", "homogeneous-martingale"])
def test_level_statistics_recompute_from_each_replication(
        monkeypatch, kind, depth, workers):
    # five chunks of 64, and a budget that abandons some replications
    monkeypatch.setattr(engine, "_CHUNK", 64)
    m = make_model({
        "n": {"family": "poisson", "mean": 1.5},
        "c": {"family": "uniform", "b": 1.2},
        "q": {"family": "lognormal", "mu": 0.0, "sigma2": 0.5},
    })
    reps, budget, seed = 300, 40, 4242
    batch = run_batch(m, kind, depth, reps, budget=budget, seed=seed,
                      workers=workers)
    nodes, truncated, levels = [], [], []
    for i in range(reps):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64)))
        value, n, z = engine._replicate(m, kind, depth, budget, rng)
        nodes.append(n)
        truncated.append(value is None)
        if value is not None:
            levels.append(z)
    assert 0 < sum(truncated) < reps
    assert batch.truncated.tolist() == truncated
    assert batch.total_nodes == sum(nodes)
    width = max(map(len, levels))
    sizes = np.array([z + [0] * (width - len(z)) for z in levels])
    assert batch.level_max.dtype == np.int64
    assert batch.level_max.tolist() == sizes.max(axis=0).tolist()
    assert batch.level_mean.tolist() == (sizes.sum(axis=0)
                                         / float(len(levels))).tolist()


@pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 1], ids=["2^63", "2^64-1"])
def test_rekeyed_chunk_generator_replays_seeds_at_the_top_of_the_range(seed):
    # a chunk re-keys one generator from plain ints; a signed conversion
    # of the seed word would fail or alias at these seeds
    m = make_model({
        "n": {"family": "poisson", "mean": 1.5},
        "c": {"family": "uniform", "b": 1.2},
        "q": {"family": "lognormal", "mu": 0.0, "sigma2": 0.5},
    })
    # 2050 replications cross a chunk boundary
    reps, depth, budget = 2050, 3, 40
    batch = run_batch(m, "linear", depth, reps, budget=budget, seed=seed)
    values, nodes, after_partial, partial = [], [], 0, False
    for i in range(reps):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64)))
        value, n, _ = engine._replicate(m, "linear", depth, budget, rng)
        nodes.append(n)
        if value is not None:
            values.append(value)
        after_partial += partial
        # words left in the buffer, which the re-key must discard
        partial = rng.bit_generator.state["buffer_pos"] < 4
    assert after_partial > 0
    assert batch.values.tobytes() == np.array(values).tobytes()
    assert batch.node_counts.tolist() == nodes


@pytest.mark.parametrize("kind", ["linear", "max", "max-plus"])
def test_exact_mode_draws_offspring_once_per_node(model_b, monkeypatch, kind):
    # bench/layers.py counts nodes by the size of each call's counts
    draw = VectorModel.draw_offspring
    sizes = []

    def counted(self, *args, **kwargs):
        result = draw(self, *args, **kwargs)
        sizes.append(result[0].size)
        return result

    monkeypatch.setattr(VectorModel, "draw_offspring", counted)
    batch = run_batch(model_b, kind, None, 500, seed=5)
    assert len(sizes) == batch.total_nodes == sum(sizes)


def _plain_draw(law):
    """``law``'s draw of ``size`` values, written as one plain numpy call."""
    return {
        "deterministic": lambda rng, size: np.full(size, law.value),
        "two-point": lambda rng, size: np.where(
            rng.random(size) < law.pa, law.a, law.b).astype(np.int64),
        "poisson": lambda rng, size: rng.poisson(law.lam, size),
        "geometric": lambda rng, size: rng.geometric(law.p, size) - 1,
        "lognormal": lambda rng, size: rng.lognormal(law.mu, law.sigma, size),
        "uniform": lambda rng, size: rng.uniform(0.0, law.b, size),
        "beta-scaled": lambda rng, size: law.scale * rng.beta(law.a, law.b,
                                                              size),
    }[law.family]


def _v1_replication(model, kind, depth, budget, seed, i):
    """Replication i of stream contract v1, written out with plain numpy
    array draws of the model's laws: tolls, then counts, then every child
    weight, per generation, whatever the generation's width.  Returns
    (value, nodes, widths of the generations grown)."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, i], dtype=np.uint64)))
    draw_n, draw_c = _plain_draw(model.n_law), _plain_draw(model.c_law)
    draw_q = _plain_draw(model.q_law)
    pi, path, acc, nodes, level, widths = np.ones(1), 0.0, 0.0, 1, 0, [1]
    while True:
        last = level == depth
        if kind != "homogeneous-martingale" or last:
            tolls = draw_q(rng, pi.size)
            if kind == "max":
                acc = max(acc, float((tolls * pi).max()))
            elif kind == "max-plus":
                path = path + tolls * pi
                acc = max(acc, float(path.max()))
            else:
                acc += float(tolls @ pi)
        if last:
            break
        counts = draw_n(rng, pi.size)
        weights = draw_c(rng, int(counts.sum()))
        weights = weights * model.c_scale
        nodes += weights.size
        if nodes > budget:
            return None, nodes, widths
        if weights.size == 0:
            break
        if kind == "max-plus":
            path = np.repeat(path, counts)
        pi = np.repeat(pi, counts) * weights
        widths.append(pi.size)
        level += 1
    return acc, nodes, widths


_V1_KINDS = ("linear", "max", "max-plus", "homogeneous-martingale")
_V1_CASES = [("b", depth, kind) for depth in (8, None) for kind in _V1_KINDS]
_V1_CASES += [("a", 8, kind) for kind in _V1_KINDS]
# subcritical counts that die, stay single or branch, drawn by other families
_V1_CASES += [(m, depth, kind) for m in ("poisson", "geometric")
              for depth in (8, None) for kind in _V1_KINDS]
_V1_MODELS = {
    "poisson": ({
        "n": {"family": "poisson", "mean": 0.9},
        "c": {"family": "uniform", "b": 1.3},
        "q": {"family": "lognormal", "mu": -0.3, "sigma2": 0.8},
        "c_scale": 0.8,
    }, 12),
    "geometric": ({
        "n": {"family": "geometric", "p": 0.55},
        "c": {"family": "beta-scaled", "a": 2.0, "b": 1.5, "scale": 1.6},
        "q": {"family": "lognormal", "mu": 0.2, "sigma2": 0.5},
    }, 8),
}


@pytest.mark.parametrize("model_type, depth, kind", _V1_CASES,
                         ids=[f"{m}-{d or 'exact'}-{k}" for m, d, k in _V1_CASES])
def test_batch_follows_stream_contract_v1(model_type, depth, kind):
    if model_type == "b":  # the perpetuity case, N in {0, 1}
        m, budget = make_model(model_b_spec(0.9)), 4
    elif model_type == "a":
        m, budget = make_model({
            "n": {"family": "two-point", "values": {1: 0.7, 2: 0.3}},
            "c": {"family": "lognormal", "mu": -0.4, "sigma2": 0.26},
            "q": det(1.0),
        }), 40
    else:
        spec, budget = _V1_MODELS[model_type]
        m = make_model(spec)
    # 2050 replications cross a chunk boundary; the budget abandons some
    reps, seed = 2050, 424242
    batch = run_batch(m, kind, depth, reps, budget=budget, seed=seed)
    values, nodes, truncated, thinned = [], [], [], 0
    for i in range(reps):
        value, n, widths = _v1_replication(m, kind, depth, budget, seed, i)
        nodes.append(n)
        truncated.append(value is None)
        if value is not None:
            values.append(value)
        thinned += any(w == 1 and max(widths[:k]) > 1
                       for k, w in enumerate(widths) if k)
    assert 0 < sum(truncated) < reps
    if model_type in _V1_MODELS:  # a width of one after a wider generation
        assert thinned > 0
    assert batch.values.tobytes() == np.array(values).tobytes()
    assert batch.node_counts.tolist() == nodes
    assert batch.truncated.tolist() == truncated


def _backward_maxplus(model, depth, budget, rng):
    """Max-plus by the backward fold: keep every generation, then fold
    R = max_i C_i R_i + Q from the deepest generation up to the root."""
    generations, nodes, size, level = [], 1, 1, 0
    while True:
        tolls = model.draw_q(rng, size)
        if level == depth:
            generations.append((tolls, np.zeros(size, dtype=np.int64),
                                np.zeros(0)))
            break
        counts, weights = model.draw_offspring(rng, size)
        nodes += weights.size
        if nodes > budget:
            return None, nodes
        generations.append((tolls, counts, weights))
        if weights.size == 0:
            break
        size, level = weights.size, level + 1
    value = np.zeros(0)
    for tolls, counts, weights in reversed(generations):
        peaks = np.zeros(tolls.size)
        np.maximum.at(peaks, np.repeat(np.arange(tolls.size), counts),
                      weights * value)
        value = peaks + tolls
    return float(value[0]), nodes


@pytest.mark.parametrize("depth", [6, None], ids=["depth-6", "exact"])
def test_maxplus_forward_fold_matches_the_backward_fold(depth):
    m = make_model({
        "n": {"family": "poisson", "mean": 1.5},
        "c": {"family": "uniform", "b": 1.2},
        "q": {"family": "lognormal", "mu": 0.0, "sigma2": 1.0},
    })
    reps, budget, seed = 2050, 40, 20260
    batch = run_batch(m, "max-plus", depth, reps, budget=budget, seed=seed)
    values, nodes, truncated = [], [], []
    for i in range(reps):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64)))
        value, n = _backward_maxplus(m, depth, budget, rng)
        nodes.append(n)
        truncated.append(value is None)
        if value is not None:
            values.append(value)
    assert 0 < sum(truncated) < reps
    assert batch.truncated.tolist() == truncated
    assert batch.node_counts.tolist() == nodes
    np.testing.assert_allclose(batch.values, values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("scale", [1.0, 0.9], ids=["model_b", "model_b09"])
@pytest.mark.parametrize("depth", [0, 3, 8, None],
                         ids=["depth-0", "depth-3", "depth-8", "exact"])
def test_maxplus_equals_linear_bit_for_bit_when_n_at_most_one(scale, depth):
    # on a chain the largest path sum is the whole sum, added in one order
    spec = model_b_spec(scale)
    spec["q"] = {"family": "lognormal", "mu": 0.0, "sigma2": 1.0}
    m = make_model(spec)
    for budget in (engine.DEFAULT_BUDGET, 3):
        linear = run_batch(m, "linear", depth, 2050, budget=budget, seed=41)
        maxplus = run_batch(m, "max-plus", depth, 2050, budget=budget,
                            seed=41)
        assert maxplus.values.tobytes() == linear.values.tobytes()
        assert np.array_equal(maxplus.truncated, linear.truncated)
        assert np.array_equal(maxplus.node_counts, linear.node_counts)
        if budget == 3 and depth != 0:
            assert linear.truncated.any()


# determinism across worker counts


def test_worker_count_does_not_change_results(model_b09):
    # 4097 replications straddles a chunk boundary in the middle of a worker
    one = run_batch(model_b09, "linear", 8, 4097, seed=31, workers=1)
    many = run_batch(model_b09, "linear", 8, 4097, seed=31, workers=4)
    assert np.array_equal(one.values, many.values)
    assert one.total_nodes == many.total_nodes
    assert np.array_equal(one.level_mean, many.level_mean)
    assert np.array_equal(one.level_max, many.level_max)


class FakePool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("reps, cpus, pool", [
    (10, 64, [3]),    # three chunks of four
    (10, 2, [2]),
    (10, None, []),   # no CPU count: one process, so no pool
    (4, 64, []),      # one chunk
])
def test_the_pool_holds_no_more_processes_than_chunks_or_cpus(
        model_b09, monkeypatch, reps, cpus, pool):
    monkeypatch.setattr(engine, "_CHUNK", 4)
    one = run_batch(model_b09, "linear", 8, reps, seed=31, workers=1)
    sizes = []
    monkeypatch.setattr(engine, "ProcessPoolExecutor",
                        lambda max_workers: FakePool(sizes, max_workers))
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    many = run_batch(model_b09, "linear", 8, reps, seed=31, workers=5000)
    assert sizes == pool
    assert np.array_equal(one.values, many.values)
    assert np.array_equal(one.node_counts, many.node_counts)


# persistence


def test_csv_round_trip_is_byte_identical(model_b09, tmp_path):
    batch = run_batch(model_b09, "linear", 10, 300, seed=8)
    first = tmp_path / "batch.csv"
    second = tmp_path / "again.csv"
    write_batch_csv(batch, first)
    loaded = read_batch_csv(first)
    write_batch_csv(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert np.array_equal(loaded.values, batch.values)
    assert loaded.seed == batch.seed
    assert loaded.model_fingerprint == batch.model_fingerprint
    assert loaded.depth == batch.depth


def test_csv_round_trip_exact_mode(model_b09, tmp_path):
    batch = run_batch(model_b09, "linear", None, 200, seed=3)
    first = tmp_path / "exact.csv"
    second = tmp_path / "again.csv"
    write_batch_csv(batch, first)
    loaded = read_batch_csv(first)
    write_batch_csv(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.depth is None
    assert np.array_equal(loaded.values, batch.values)


def _value_batch(values):
    """A SampleBatch that holds ``values`` and nothing of note besides."""
    values = np.asarray(values, dtype=float)
    return SampleBatch(
        kind="linear", depth=3, values=values, seed=0,
        stream_count=values.size, budget=1, total_nodes=values.size,
        truncated_replications=0, level_mean=np.ones(1),
        level_max=np.ones(1, dtype=np.int64), model_fingerprint="f")


def _value_rows(path):
    """A batch CSV's text up to its value rows, and the rows."""
    text = path.read_text()
    start = text.index("\nvalue\n") + len("\nvalue\n")
    return text[:start], text[start:].split("\n")[:-1]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False,
                          allow_infinity=False), min_size=1, max_size=20),
       st.integers(1, 40) | st.just(engine._READ_BLOCK_BYTES))
def test_csv_round_trip_keeps_every_bit(values, block):
    # a small block puts rows across block boundaries
    batch = _value_batch(values)
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_READ_BLOCK_BYTES", block)
        path = Path(tmp) / "batch.csv"
        write_batch_csv(batch, path)
        loaded = read_batch_csv(path)
    assert loaded.values.tobytes() == batch.values.tobytes()


def test_read_batch_csv_holds_little_beyond_the_values(tmp_path):
    values = np.random.default_rng(9).lognormal(0.0, 3.0, 200_000)
    batch = SampleBatch(
        kind="linear", depth=3, values=values, seed=0,
        stream_count=values.size, budget=1, total_nodes=values.size,
        truncated_replications=0, level_mean=np.ones(1),
        level_max=np.ones(1, dtype=np.int64), model_fingerprint="f")
    path = tmp_path / "batch.csv"
    write_batch_csv(batch, path)
    tracemalloc.start()
    try:
        loaded = read_batch_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.values.tobytes() == values.tobytes()
    assert peak < 2 * values.nbytes + 2 ** 20


@pytest.mark.parametrize("block", [1, 2, 3, 5, 1 << 18])
@pytest.mark.parametrize("end", ["\n\n\n", ""], ids=["blank-rows", "no-newline"])
def test_blank_rows_are_skipped_at_any_block_size(tmp_path, monkeypatch,
                                                  block, end):
    # a block of blank rows alone must add no value
    monkeypatch.setattr(engine, "_READ_BLOCK_BYTES", block)
    path = tmp_path / "batch.csv"
    write_batch_csv(_value_batch([0.5, 2.0, 0.0]), path)
    head, rows = _value_rows(path)
    path.write_text(head + "\n\n".join(rows) + end)
    assert read_batch_csv(path).values.tolist() == [0.5, 2.0, 0.0]


def test_a_bad_row_across_two_blocks_is_named(tmp_path, monkeypatch):
    path = tmp_path / "batch.csv"
    write_batch_csv(_value_batch(np.arange(30) / 7.0), path)
    head, rows = _value_rows(path)
    rows[11] = "12x45"
    path.write_text(head + "\n".join(rows) + "\n")
    # the first block ends two bytes into the bad row
    start = len("\n".join(rows[:11])) + 1
    monkeypatch.setattr(engine, "_READ_BLOCK_BYTES", start + 2)
    with pytest.raises(EngineError, match="value row '12x45' is not a number"):
        read_batch_csv(path)


@pytest.mark.parametrize("row, replaces, message", [
    # numpy's scanner splits on any whitespace: this row would read as two
    # values, and with the next row gone the count would still match
    ("1.0 2.0", 2, "value row '1.0 2.0' is not a number"),
    ("1.0\t2.0", 2, r"value row '1.0\\t2.0' is not a number"),
    ("1.0\r2.0", 2, r"value row '1.0\\r2.0' is not a number"),
    (" 1.0", 1, "a value row holds whitespace"),
], ids=["space", "tab", "carriage-return", "padded"])
def test_a_row_holding_whitespace_is_refused(tmp_path, row, replaces,
                                             message):
    path = tmp_path / "batch.csv"
    write_batch_csv(_value_batch([0.5, 0.25, 3.0]), path)
    head, rows = _value_rows(path)
    rows[:replaces] = [row]
    path.write_bytes((head + "\n".join(rows) + "\n").encode())
    with pytest.raises(EngineError, match=message):
        read_batch_csv(path)


def test_more_values_than_completed_replications_are_refused(tmp_path):
    path = tmp_path / "batch.csv"
    write_batch_csv(_value_batch([0.5, 0.25, 3.0]), path)
    head, rows = _value_rows(path)
    path.write_text(head + "\n".join(rows + rows[:1]) + "\n")
    with pytest.raises(EngineError, match="outnumber the completed"):
        read_batch_csv(path)


def test_a_scanner_that_warns_like_numpy_1_is_refused_quietly(tmp_path,
                                                             monkeypatch):
    path = tmp_path / "batch.csv"
    write_batch_csv(_value_batch([0.5, 0.25, 3.0]), path)
    head, rows = _value_rows(path)
    rows[1] = "abc"
    path.write_text(head + "\n".join(rows) + "\n")
    scan = np.fromstring

    def numpy1_fromstring(text, sep):
        # numpy 1.x warns on an unparsable row and returns what came before
        try:
            return scan(text, sep=sep)
        except ValueError:
            warnings.warn("string or file could not be read to its end due "
                          "to unmatched data; this will raise a ValueError "
                          "in the future.", DeprecationWarning)
            return scan(text[:text.index(b"abc")], sep=sep)

    monkeypatch.setattr(np, "fromstring", numpy1_fromstring)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EngineError, match="value row 'abc' is not a"):
            read_batch_csv(path)
    assert caught == []


# the integer scan of value rows: each row reads as float() of its text


def _rows_read(path, rows):
    """The values read from a batch CSV whose value rows are ``rows``."""
    write_batch_csv(_value_batch(np.zeros(len(rows))), path)
    head, _ = _value_rows(path)
    path.write_text(head + "\n".join(rows) + "\n")
    return read_batch_csv(path).values


def _float_bits(rows):
    return np.array([float(row) for row in rows]).tobytes()


@pytest.mark.parametrize("low, high", [(1e-4, 1e16), (0.0, 2.0 ** 54)],
                         ids=["repr-decimals", "to-2^54"])
def test_value_rows_read_as_float_of_their_text(tmp_path, low, high):
    # uniform bit patterns weigh every binade between the bounds alike
    bits = np.random.default_rng(36).integers(
        np.float64(low).view(np.int64), np.float64(high).view(np.int64),
        10 ** 5, endpoint=True)
    rows = list(map(repr, bits.view(np.float64).tolist()))
    assert _rows_read(tmp_path / "b.csv", rows).tobytes() == _float_bits(rows)


_EDGE_ROWS = [
    "0.0", "1.0", "0.5", "00.25",
    # 2^53 + 1 and + 3 are midpoints: a tie goes to the even neighbour
    "9007199254740993.0", "9007199254740995.0", "9007199254740999.0",
    "9007199254740991.0", "9007199254740992.0", "9007199254740994.0",
    "9007199254740991.5", "9007199254740992.5", "4503599627370495.5",
    # below 2^54, at it and past 19 digits
    "18014398509481983.0", "18014398509481984.0", "18014398509481984.5",
    "999999999999999999.9",
    # below a power of two, where the ulp below is half as wide
    "0.999999999999999938", "1.999999999999999876", "0.499999999999999969",
    # 18 and 19 fraction digits
    "0.123456789012345678", "1.000000000000000001", "9.999999999999999999",
    "0.000000000000000001", "0.1234567890123456789",
    "0.0012345678901234567", "0.0000000000000000001",
    # leading zeros and 17 significant digits
    "0.00012345678901234567", "0.012345678901234567", "0.0001",
    "0.10000000000000001", "1.2345678901234567", "12345678.901234567",
    "1234567890123456.7", "5.0000000000000009", "2.2250738585072014",
    # digits past 2^64
    "99.999999999999999999", "12345678901234567890.5",
    "99999999999999999999999.0",
]


def test_edge_rows_read_as_float_of_their_text(tmp_path):
    read = _rows_read(tmp_path / "b.csv", _EDGE_ROWS)
    assert read.tobytes() == _float_bits(_EDGE_ROWS)


_MIXED_ROWS = ["1.5", "1e-05", "0.1", "1.5e+16", ".5", "1.", "2.5", "7",
               "9007199254740993.0", "0.0012345678901234567", "1234.5678",
               "0.999999999999999938", "3.0"]


@pytest.mark.parametrize("block", [*range(1, 41), engine._READ_BLOCK_BYTES])
def test_mixed_rows_read_as_float_of_their_text(tmp_path, monkeypatch, block):
    # a block of digits and dots alone, or one holding other rows
    monkeypatch.setattr(engine, "_READ_BLOCK_BYTES", block)
    read = _rows_read(tmp_path / "b.csv", _MIXED_ROWS)
    assert read.tobytes() == _float_bits(_MIXED_ROWS)


def test_repr_rows_from_a_hundredth_to_9e15_skip_the_float_scan(
        tmp_path, monkeypatch):
    values = np.exp(np.random.default_rng(11).uniform(
        math.log(0.01), math.log(9e15), 10 ** 5))
    # the edge rows up to 4503599627370495.5 and short rows below 2^-10
    rows = list(map(repr, values.tolist())) + _EDGE_ROWS[:13] + [
        "0.0001", "0.000123", "0.000000000000000001"]
    scan = np.fromstring

    def integer_scan_only(text, dtype=float, sep=""):
        assert dtype == np.uint64, f"float scan of {text[:80]!r}"
        return scan(text, dtype, sep=sep)

    monkeypatch.setattr(np, "fromstring", integer_scan_only)
    assert _rows_read(tmp_path / "b.csv", rows).tobytes() == _float_bits(rows)


def test_summary_is_json_ready(model_b09):
    batch = run_batch(model_b09, "linear", None, 500, seed=6)
    info = summary(batch)
    text = json.dumps(info)
    assert json.loads(text)["replications"] == 500
    assert info["value_mean"] == pytest.approx(float(batch.values.mean()))
    assert info["nodes"]["total"] == batch.total_nodes


# fixed-point iteration from deterministic starts, on one forest


def test_iterate_from_start_mass_decays(model_b09):
    # the boundary term carries weight rho^n, so a huge start washes out
    far, near = _iterate_forest(model_b09, "linear", 14, (1000.0, 0.0), 400,
                                engine.DEFAULT_BUDGET,
                                np.random.default_rng(19))
    assert np.all(far >= near)
    assert np.median(far - near) < 1.0


def test_iterate_forest_refuses_other_kinds(model_b09):
    for kind in ("max-plus", "homogeneous-martingale"):
        with pytest.raises(EngineError, match="kind"):
            _iterate_forest(model_b09, kind, 4, (0.0,), 50,
                            engine.DEFAULT_BUDGET, np.random.default_rng(0))


# truncation error bound


def test_truncation_bound_contractive_oracle(model_b09):
    value = truncation_bound(model_b09, 0.5, 20)
    assert value == pytest.approx(TRUNC_B09_HALF_20, rel=1e-12)
    # and the bound is the simple geometric tail E[Q^b] r^(n+1) / (1 - r)
    direct = RHO_HALF_B09 ** 21 / (1.0 - RHO_HALF_B09)
    assert value == pytest.approx(direct, rel=1e-12)


def test_truncation_bound_decreases_with_depth(model_b09):
    bounds = [truncation_bound(model_b09, 0.5, n) for n in (5, 10, 20)]
    assert bounds[0] > bounds[1] > bounds[2] > 0.0


def test_truncation_bound_infinite_without_contraction(model_a):
    # the critical-pair model contracts at no exponent
    assert truncation_bound(model_a, 1.0, 30) == math.inf
    assert truncation_bound(model_a, 0.5, 30) == math.inf


def test_truncation_bound_above_one_uses_interpolated_constant(model_b03):
    value = truncation_bound(model_b03, 1.5, 10)
    assert 0.0 < value < 1e-3


def test_truncated_mean_within_bound(model_b09):
    # |E R - E R^(n)| for beta = 1 is bounded by the geometric tail
    reps = 40_000
    stopped = run_batch(model_b09, "linear", 10, reps, seed=91)
    rho = 0.9
    exact_mean = 1.0 / (1.0 - rho)
    gap = exact_mean - stopped.values.mean()
    bound = truncation_bound(model_b09, 1.0, 10)
    se = stopped.values.std(ddof=1) / math.sqrt(reps)
    assert gap <= bound + 3 * se
    assert bound == pytest.approx(rho ** 11 / (1 - rho), rel=1e-12)


def test_forest_stops_before_the_weights_of_a_generation_over_the_cap(
        monkeypatch):
    # three children per node: 100, 300 and 900 nodes, then 2700 over 1000
    monkeypatch.setattr(engine, "_FOREST_WIDTH", 1000)
    model = make_model({"n": {"family": "deterministic", "value": 3},
                        "c": {"family": "uniform", "b": 0.8},
                        "q": {"family": "deterministic", "value": 1.0}})
    weights_drawn = []
    draw_weights = model.c_law.sample
    monkeypatch.setattr(model.c_law, "sample", lambda rng, size: (
        weights_drawn.append(size) or draw_weights(rng, size)))
    widths = []
    forest = engine.generation_frontier(model, 6, 100, engine.DEFAULT_BUDGET,
                                        np.random.default_rng(0))
    with pytest.raises(EngineError, match="generation 3 of a forest of 100 "
                       "trees holds 2700 nodes, over the cap of 1000"):
        for pi, _, _ in forest:
            widths.append(pi.size)
    assert widths == [100, 300, 900]
    assert weights_drawn == [300, 900]
