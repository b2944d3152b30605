"""Acceptance suite: one test per headline claim, at stated tolerances.

Each test is a single pass/fail line under ``pytest -v``.  The three
expensive batches (exact tree samples at 10^6 replications and the
depth-30 critical batch at 10^5) are module-scoped and shared between
tests.  Statistical checks run at fixed seeds; tolerance windows are
three standard errors unless a tighter deterministic bound applies.
The three batches run on every CPU: a batch is the same for any worker
count (tests/test_engine.py checks it), so only their wall time moves.
"""

import json
import math
import os
import time

import numpy as np
import pytest
import yaml
from scipy.optimize import bisect
from scipy.stats import ks_2samp

from branchtail.cli import main
from branchtail.constants import (tail_constant_bounds, tail_constant_closed_form,
                                  tail_constant_mc)
from branchtail.cramer import ContractionRootError, solve_alpha
from branchtail.engine import (DEFAULT_BUDGET, _iterate_forest, run_batch,
                               truncation_bound)
from branchtail.model import make_model, moment_function
from branchtail.moments import generation_moment_bound
from branchtail.renewal import verify_product_measure
from branchtail.tails import default_tail_count, hill_estimator, plateau_constant

from conftest import (assert_loaders_agree, model_b_spec, uniform_model_spec,
                      ALPHA_UNIFORM, H_A, H_B)

_MEAN_GRID_REPS = 20_000


@pytest.fixture(scope="module")
def b_exact(model_b):
    start = time.perf_counter()
    batch = run_batch(model_b, "linear", None, 1_000_000, seed=101,
                      workers=os.cpu_count())
    return batch, time.perf_counter() - start


@pytest.fixture(scope="module")
def b_max_exact(model_b):
    return run_batch(model_b, "max", None, 1_000_000, seed=103,
                     workers=os.cpu_count())


@pytest.fixture(scope="module")
def a_critical(model_a):
    return run_batch(model_a, "homogeneous-martingale", 30, 100_000,
                     budget=10 ** 7, seed=105, workers=os.cpu_count())


@pytest.fixture(scope="module")
def sol_a(model_a):
    return solve_alpha(model_a)


@pytest.fixture(scope="module")
def sol_b(model_b):
    return solve_alpha(model_b)


def _generation_variance(model, n):
    """Exact variance of the generation-n toll-weighted sum.

    First and second moments follow the standard branching recursion:
    the square of a weighted sum of iid subtree contributions splits
    into a same-child and a cross-child term, with coefficients read
    off the count and weight laws.
    """
    phi2 = moment_function(model, 2.0).value
    cross = 2.0 * model.n_law.pair_mean() * model.c_moment(1.0) ** 2
    rho = moment_function(model, 1.0).value
    m1 = model.q_moment(1.0)
    m2 = model.q_moment(2.0)
    for _ in range(n):
        m2 = phi2 * m2 + cross * m1 * m1
        m1 = rho * m1
    return m2 - m1 * m1


def test_01_root_solver_accuracy_and_speed(model_a, model_b):
    # calibrated roots to 1e-8, residuals to 1e-10, under a second each
    for model, target in ((model_a, 2.0), (model_b, 1.0)):
        start = time.perf_counter()
        sol = solve_alpha(model)
        elapsed = time.perf_counter() - start
        assert abs(moment_function(model, sol.alpha).value - 1.0) <= 1e-10
        assert abs(sol.alpha - target) <= 1e-8
        assert elapsed < 1.0
    start = time.perf_counter()
    with pytest.raises(ContractionRootError) as err:
        solve_alpha(make_model(uniform_model_spec()))
    elapsed = time.perf_counter() - start
    oracle = bisect(lambda t: 3.0 * 0.8 ** t / (t + 1.0) - 1.0,
                    1.0, 2.0, xtol=1e-12)
    assert abs(err.value.alpha - oracle) <= 1e-8
    assert abs(err.value.alpha - ALPHA_UNIFORM) <= 1e-8
    assert elapsed < 1.0


def test_02_exact_regime_tail_index(b_exact):
    batch, elapsed = b_exact
    assert elapsed <= 300.0
    hill = hill_estimator(batch, default_tail_count(batch.values.size))
    assert 0.85 <= hill.alpha <= 1.15


def test_03_exact_regime_tail_constant(model_b, sol_b, b_exact):
    batch, _ = b_exact
    plat = plateau_constant(batch, sol_b.alpha)
    assert abs(plat.h - H_B) <= 0.25 * H_B
    mc = tail_constant_mc(model_b, sol_b, "linear", batch.values)
    closed = tail_constant_closed_form(model_b, sol_b.alpha, "linear")
    assert abs(mc.value - closed) <= 3.0 * mc.std_error


def test_04_critical_martingale_tail(model_a, sol_a, a_critical):
    hill = hill_estimator(a_critical, default_tail_count(
        a_critical.values.size))
    assert 1.7 <= hill.alpha <= 2.3
    plat = plateau_constant(a_critical, sol_a.alpha)
    assert abs(plat.h - H_A) <= 0.35 * H_A
    mc = tail_constant_mc(model_a, sol_a, "homogeneous-martingale",
                          a_critical.values)
    closed = tail_constant_closed_form(model_a, sol_a.alpha,
                                       "homogeneous-martingale")
    assert abs(mc.value - closed) <= 3.0 * mc.std_error
    assert closed > 0.0 and mc.value > 0.0 and plat.h > 0.0


def test_05_generation_mean_identities(model_a, model_b09):
    # known-variance z-test: the sample SE of a deep generation sum is
    # unusable (the summand is a lognormal with log-sd sqrt(n) seen
    # through a handful of survivors), so the windows use the exact
    # standard error from the two-moment recursion instead
    for model in (model_b09, model_a):
        rho = moment_function(model, 1.0).value
        target = model.q_moment(1.0)
        for n in range(0, 11):
            batch = run_batch(model, "homogeneous-martingale", n,
                              _MEAN_GRID_REPS, seed=107)
            se = math.sqrt(
                _generation_variance(model, n) / batch.values.size)
            gap = abs(batch.values.mean() - target)
            assert gap <= max(3.0 * se, 1e-12), f"n={n} gap={gap:.3g}"
            target *= rho


def test_06_moment_bound_grid(model_b09, model_a, model_b03):
    # orders above 1 are contractive only on the strongly scaled-down
    # model, which keeps the constructive cells non-vacuous; cells whose
    # contraction precondition fails are skipped and counted
    checked = 0
    skipped = 0
    constructive_checked = 0
    for label, model in (("contractive", model_b09), ("critical", model_a),
                         ("strong", model_b03)):
        batches = [run_batch(model, "homogeneous-martingale", n,
                             _MEAN_GRID_REPS, seed=111) for n in range(0, 11)]
        for beta in (0.25, 0.5, 0.847, 1.0, 1.5, 2.0):
            bound_zero = generation_moment_bound(model, beta, 0)
            if not math.isfinite(bound_zero.value):
                skipped += 11
                continue
            for n, batch in enumerate(batches):
                powered = batch.values ** beta
                est = float(powered.mean())
                se = float(powered.std(ddof=1) / math.sqrt(powered.size))
                bound = generation_moment_bound(model, beta, n)
                assert est <= bound.value + 3.0 * se, (
                    f"{label} beta={beta} n={n} est={est:.6g} "
                    f"bound={bound.value:.6g}")
                checked += 1
                if beta > 1.0:
                    constructive_checked += 1
    assert checked == 154 and skipped == 44
    assert constructive_checked == 22


def test_07_renewal_product_identity(model_a, sol_a):
    rng = np.random.default_rng(113)
    for n in (1, 2, 3):
        for g in ("constant-1", "identity-u", "indicator"):
            report = verify_product_measure(model_a, sol_a.alpha, n, g,
                                            10_000, rng)
            assert report.agree, f"n={n} g={g}"
            if n == 1 and g == "constant-1":
                assert abs(report.rhs - 1.0) <= 1e-10


def test_08_iteration_forgets_start(model_b09):
    (low,) = _iterate_forest(model_b09, "linear", 15, (0.0,), 100_000,
                             DEFAULT_BUDGET, np.random.default_rng(900))
    (high,) = _iterate_forest(model_b09, "linear", 15, (100.0,), 100_000,
                              DEFAULT_BUDGET, np.random.default_rng(901))
    ks = ks_2samp(low, high, method="asymp").statistic
    assert ks <= 0.01


def test_09_max_recursion_dual_route(model_b, sol_b, b_max_exact):
    hill = hill_estimator(b_max_exact,
                          default_tail_count(b_max_exact.values.size))
    assert 0.85 <= hill.alpha <= 1.15
    mc = tail_constant_mc(model_b, sol_b, "max", b_max_exact.values)
    plat = plateau_constant(b_max_exact, sol_b.alpha)
    assert abs(plat.h - mc.value) <= 0.25 * mc.value
    lower, upper = tail_constant_bounds(model_b, sol_b, "max")
    assert lower is None and mc.value - 3.0 * mc.std_error <= upper


def test_10_determinism_and_truncation_certificate(model_b09, tmp_path):
    config = {
        "model": model_b_spec(0.9),
        "depth": 20,
        "reps": 4097,
        "seed": 7,
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.dump(config))
    assert_loaders_agree(path.read_text())
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        code = main(["--config", str(path), "--output-dir", str(out),
                     "--set", f"workers={workers}", "simulate"])
        assert code == 0
        summary_lines = [
            line for line in (out / "summary.json").read_text().splitlines()
            if '"generated_at"' not in line
        ]
        outputs.append(((out / "batch.csv").read_bytes(), summary_lines))
    assert outputs[0] == outputs[1]
    with open(tmp_path / "w1" / "summary.json") as handle:
        summary = json.load(handle)
    assert summary["truncation_bound"] is not None
    assert summary["truncation_bound"] <= 1e-3
    assert truncation_bound(model_b09, 0.5, 20) <= 1e-3
