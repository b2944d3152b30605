"""Tests of the benchmark's own parts: reference sampler, verify checks,
tracer, manifest.

Run with ``python3 -m pytest bench`` from the repository root.
"""

import contextlib
import io
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from layers import HOOKS, PER_LAYER, TRACE_OVERHEAD  # noqa: E402
from reference import perpetuity, tail_index  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, ks_distance, model_b, write_config  # noqa: E402

N = 1_000_000


@pytest.fixture(scope="module")
def chains():
    return perpetuity(np.random.default_rng(20240601), N, c_scale=0.9)


def test_reference_atom_at_one_has_mass_half(chains):
    linear, peak, nodes = chains
    share = float(np.mean(linear == 1.0))
    # binomial: 6 standard errors of a proportion 1/2 over 1e6 draws
    assert abs(share - 0.5) <= 6 * math.sqrt(0.25 / N)
    assert np.array_equal(linear == 1.0, nodes == 1)


def test_reference_max_below_linear(chains):
    linear, peak, _ = chains
    assert np.all(peak >= 1.0)
    assert np.all(peak <= linear)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_reference_partial_means_converge_to_ten(depth):
    # E[R] = sum_k 0.9^k = 10 at c_scale 0.9.  R itself has infinite
    # variance (alpha = 1.09), so test the depth-d partial sums, whose
    # means 10 (1 - 0.9^(d+1)) have finite-variance estimators.
    linear, _, _ = perpetuity(np.random.default_rng(7 + depth), N,
                              c_scale=0.9, depth=depth)
    exact = 10.0 * (1.0 - 0.9 ** (depth + 1))
    se = linear.std(ddof=1) / math.sqrt(N)
    assert abs(linear.mean() - exact) <= 6 * se + 1e-12


def test_reference_tail_index_is_the_root():
    assert tail_index(1.0) == pytest.approx(1.0, abs=1e-12)
    for scale in (0.3, 0.9):
        a = tail_index(scale)
        moment = 0.5 * scale ** a * math.exp(a * (math.log(2) - 0.5) + a * a / 2)
        assert moment == pytest.approx(1.0, abs=1e-12)


def test_ks_distance_matches_scipy():
    from scipy import stats
    rng = np.random.default_rng(3)
    a = np.round(rng.exponential(size=500), 1)  # ties included
    b = np.round(rng.exponential(1.2, size=700), 1)
    assert ks_distance(a, b) == pytest.approx(
        stats.ks_2samp(a, b).statistic, abs=1e-12)


def verification_report(tree_side_2):
    """A verify report in the program's format; factorization n=2 of the
    constant function reads ``tree_side_2`` against 1 +- 0.028."""
    checks = []
    for n in (1, 2, 3):
        for g in ("constant-1", "identity-u", "indicator"):
            tree = tree_side_2 if (n, g) == (2, "constant-1") else 1.0
            checks.append({"check": "measure-factorization", "n": n, "g": g,
                           "tree_side": tree, "tree_side_se": 0.028,
                           "convolution_side": 1.0, "convolution_side_se": 0.0,
                           "agree": abs(tree - 1.0) <= 3.0 * 0.028})
    for n in range(6):
        for beta in (0.5, 1.0, 1.5, 2.0):
            cell = {"check": "generation-moment-bound", "n": n, "beta": beta}
            if beta > 1.0:
                cell.update(status="precondition-unmet", holds=None)
            else:
                cell.update(status="checked", estimate=0.99, std_error=0.01,
                            bound=1.0, holds=True)
            checks.append(cell)
    checks.append({"check": "iteration-convergence", "ks_distance": 0.0,
                   "threshold": 0.02, "holds": True})
    passed = all(c.get("holds", c.get("agree")) is not False for c in checks)
    return {"checks": checks, "checked": 22, "skipped": 12, "passed": passed}


@pytest.mark.parametrize("tree_side_2, code, correct", [
    (1.01, 0, True),
    # 3.5 stated errors: the program's 3-sigma verdict fails, as it does
    # at a few percent of seeds, and exit 3 is its answer
    (0.902, 3, True),
    (0.902, 0, False),  # exit code disagrees with the verdict
    (0.7, 3, False),    # 10.7 stated errors: the law does not hold
])
def test_verify_checks_judge_the_report(tmp_path, tree_side_2, code, correct):
    verify = WORKLOADS["verify"](str(tmp_path), 1)
    os.makedirs(verify.out("verify"))
    with open(os.path.join(verify.out("verify"), "verification.json"),
              "w") as handle:
        json.dump(verification_report(tree_side_2), handle)
    verify.last_codes = {"verify": code}
    assert code in verify.exit_codes
    assert all(ok for _, ok in verify.check()) is correct


def test_tracer_spans_nest_and_patches_restore(tmp_path):
    import branchtail.cli as cli
    import branchtail.engine as engine
    from branchtail.model import VectorModel

    originals = (cli.run_batch, engine.run_batch,
                 VectorModel.__dict__["draw_offspring"])
    config = write_config(str(tmp_path / "b.yaml"), {"model": model_b()})
    tracer = Tracer(HOOKS)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", config, "--seed", "3", "--reps", "200",
                             "--depth", "exact", "--output-dir", str(tmp_path),
                             "simulate"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.run_batch, engine.run_batch,
            VectorModel.__dict__["draw_offspring"]) == originals
    per_name, violations = tracer.summarize()
    assert violations == 0
    assert per_name["cli.main"]["calls"] == 1
    assert per_name["engine.run_batch"]["calls"] == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    # one offspring draw per node in exact mode
    assert per_name["model.draw_offspring"]["calls"] == summary["nodes"]["total"]
    assert tracer.counters["run_batch.nodes"] == summary["nodes"]["total"]
    for stats in per_name.values():
        assert 0.0 <= stats["self_s"] <= stats["total_s"] + 1e-12
    spans = tracer.spans()
    top = spans["parent"] < 0
    assert list(np.asarray(tracer.names)[spans["name"][top]]) == ["cli.main"]


def test_manifest_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    for entry in manifest["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert [m["name"] for m in manifest["end_to_end"]] == [
        "setup_s", "wall_ref", "peak_rss_mb"]
    expected = [(n, u, b) for n, u, b, _ in PER_LAYER] + [TRACE_OVERHEAD]
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == expected
    with open(os.path.join(HERE, "README.md")) as handle:
        readme = handle.read()
    for name, *_ in expected:
        assert f"`{name}`" in readme
