import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from branchtail import engine
from branchtail.engine import (
    EngineError,
    SampleBatch,
    generation_frontier,
    iterate_from,
    read_batch_csv,
    run_batch,
    summary,
    truncation_bound,
    write_batch_csv,
)
from branchtail.model import ModelError, make_model, make_value_law

from conftest import RHO_HALF_B09, TRUNC_B09_HALF_20, model_b_spec


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
    "linear", "max", "max-plus", "homogeneous-martingale", "iterate-from"])
def test_batch_replays_fresh_generator_per_replication(kind):
    m = make_model({
        "n": {"family": "poisson", "mean": 1.5},
        "c": {"family": "uniform", "b": 1.2},
        "q": {"family": "lognormal", "mu": 0.0, "sigma2": 0.5},
    })
    # 2050 replications cross a chunk boundary; the budget abandons some
    reps, depth, budget, seed = 2050, 6, 40, 987654321
    r0 = {"family": "lognormal", "mu": 1.0, "sigma2": 1.0}
    if kind == "iterate-from":
        batch = iterate_from(m, "linear", r0, depth, reps, seed=seed,
                             budget=budget)
        fold, boundary = "linear", make_value_law(r0)
    else:
        batch = run_batch(m, kind, depth, reps, budget=budget, seed=seed)
        fold, boundary = kind, None
    values, nodes, truncated = [], [], []
    for i in range(reps):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, i], dtype=np.uint64)))
        value, n, _ = engine._replicate(m, fold, depth, budget, rng, boundary)
        nodes.append(n)
        truncated.append(value is None)
        if value is not None:
            values.append(value)
    assert 0 < sum(truncated) < reps
    assert np.array_equal(batch.values, values)
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


def test_csv_round_trip_exact_mode_and_iterate(model_b09, tmp_path):
    batch = iterate_from(model_b09, "linear", det(4.0), 6, 200, seed=3)
    path = tmp_path / "iter.csv"
    write_batch_csv(batch, path)
    loaded = read_batch_csv(path)
    assert loaded.kind == "iterate-from"
    assert loaded.base_kind == "linear"
    assert loaded.r0 == det(4.0)
    assert np.array_equal(loaded.values, batch.values)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False,
                          allow_infinity=False), min_size=1, max_size=20))
def test_csv_round_trip_keeps_every_bit(values):
    values = np.array(values, dtype=float)
    batch = SampleBatch(
        kind="linear", depth=3, values=values, seed=0,
        stream_count=values.size, budget=1, total_nodes=values.size,
        truncated_replications=0, level_mean=np.ones(1),
        level_max=np.ones(1, dtype=np.int64), model_fingerprint="f")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "batch.csv"
        write_batch_csv(batch, path)
        loaded = read_batch_csv(path)
    assert loaded.values.tobytes() == values.tobytes()


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


def test_summary_is_json_ready(model_b09):
    batch = run_batch(model_b09, "linear", None, 500, seed=6)
    info = summary(batch)
    text = json.dumps(info)
    assert json.loads(text)["replications"] == 500
    assert info["value_mean"] == pytest.approx(float(batch.values.mean()))
    assert info["nodes"]["total"] == batch.total_nodes


# fixed-point iteration from an explicit initial law


def test_iterate_from_zero_start_matches_truncated_sum(model_b09):
    # with R_0 = 0 the n-step iterate equals the depth n-1 truncated sum
    direct = run_batch(model_b09, "linear", 5, 400, seed=19)
    iterated = iterate_from(model_b09, "linear", det(0.0), 6, 400, seed=19)
    assert np.array_equal(iterated.values, direct.values)


def test_iterate_from_start_mass_decays(model_b09):
    # the boundary term carries weight rho^n, so a huge start washes out
    far = iterate_from(model_b09, "linear", det(1000.0), 14, 400, seed=19)
    near = iterate_from(model_b09, "linear", det(0.0), 14, 400, seed=19)
    assert np.all(far.values >= near.values)
    assert np.median(far.values - near.values) < 1.0


def test_iterate_from_validates_kind_and_law(model_b09):
    with pytest.raises(EngineError, match="kind"):
        iterate_from(model_b09, "max-plus", det(0.0), 4, 50, seed=0)
    with pytest.raises(ModelError):
        iterate_from(model_b09, "linear", {"family": "cauchy"}, 4, 50, seed=0)


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
    rng = np.random.default_rng(44)
    value = truncation_bound(model_b03, 1.5, 10, rng=rng)
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
