import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st
from scipy import stats as sstats

from branchtail import cli
from branchtail.cli import DEFAULTS, ConfigError, load_config, main
from branchtail.engine import (DEFAULT_BUDGET, _iterate_forest,
                               _martingale_forest, run_batch,
                               truncation_bound)
from branchtail.model import VectorModel, make_model

from conftest import (model_a_spec, model_b_iterate, model_b_spec,
                      poisson2_spec, uniform_model_spec)


def write_config(tmp_path, spec, name="config.yaml", **top_level):
    payload = {"model": spec, **top_level}
    path = tmp_path / name
    path.write_text(yaml.dump(payload))
    return str(path)


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def without_timestamp(path):
    with open(path) as handle:
        return "".join(line for line in handle
                       if '"generated_at"' not in line)


# config loading


def test_config_precedence_and_unknown_keys(tmp_path):
    path = write_config(tmp_path, model_b_spec(0.9), seed=5, reps=100)
    config = load_config(path, sets=["tails.bootstrap=17"], seed=9)
    assert config["seed"] == 9           # flag beats file
    assert config["reps"] == 100         # file beats default
    assert config["tails"]["bootstrap"] == 17
    assert config["tails"]["quantile_band"] == [0.99, 0.9995]
    with pytest.raises(ConfigError, match="unknown config key: repz"):
        load_config(write_config(tmp_path, model_b_spec(), "b.yaml", repz=1))
    with pytest.raises(ConfigError, match="tails.bootstrp"):
        load_config(path, sets=["tails.bootstrp=2"])
    with pytest.raises(ConfigError, match="model section"):
        load_config(None)


def test_config_exact_depth_spelling(tmp_path):
    path = write_config(tmp_path, model_b_spec(), depth="exact")
    assert load_config(path)["depth"] is None


# solve-alpha exit codes


def test_solve_alpha_critical_pair_homogeneous(tmp_path):
    path = write_config(tmp_path, model_a_spec(),
                        kind="homogeneous-martingale",
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "solve-alpha"]) == 0
    payload = read_json(tmp_path / "out" / "alpha_solution.json")
    assert payload["alpha"] == pytest.approx(2.0, abs=1e-8)
    assert payload["root_kind"] == "second-root-of-critical-pair"
    assert payload["passed"] is True
    assert payload["schema"] == "branchtail-report-v1"


def test_solve_alpha_condition_failure_exits_two(tmp_path):
    path = write_config(tmp_path, model_a_spec(), kind="linear",
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "solve-alpha"]) == 2
    payload = read_json(tmp_path / "out" / "alpha_solution.json")
    failed = [c["name"] for c in payload["conditions"]
              if c["status"] != "pass"]
    assert "mean-contraction" in failed


def test_solve_alpha_arithmetic_weights_exit_two(tmp_path):
    # deterministic weight 2 with subcritical branching: the moment
    # function rises through 1 at log2(2.5), but the weights live on a
    # lattice, so the nonarithmetic condition must fail
    spec = {
        "n": {"family": "two-point", "values": {0: 0.6, 1: 0.4}},
        "c": {"family": "deterministic", "value": 2.0},
        "q": {"family": "deterministic", "value": 1.0},
    }
    path = write_config(tmp_path, spec, output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "solve-alpha"]) == 2
    payload = read_json(tmp_path / "out" / "alpha_solution.json")
    assert payload["alpha"] == pytest.approx(math.log2(2.5), abs=1e-10)
    statuses = {c["name"]: c["status"] for c in payload["conditions"]}
    assert statuses["nonarithmetic"] == "fail"


def test_solve_alpha_contraction_root_exits_one(tmp_path, capsys):
    spec = {
        "n": {"family": "deterministic", "value": 2},
        "c": {"family": "deterministic", "value": 0.5},
        "q": {"family": "deterministic", "value": 1.0},
    }
    path = write_config(tmp_path, spec, output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "solve-alpha"]) == 1
    assert "contraction root" in capsys.readouterr().err


def test_solve_alpha_no_sign_change_exits_one(tmp_path, capsys):
    spec = {
        "n": {"family": "deterministic", "value": 1},
        "c": {"family": "deterministic", "value": 0.5},
        "q": {"family": "deterministic", "value": 1.0},
    }
    path = write_config(tmp_path, spec,
                        solver={"bracket": [2.0, 5.0]},
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "solve-alpha"]) == 1
    assert "solver failed" in capsys.readouterr().err


# simulate


def test_simulate_deterministic_artifacts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    path = write_config(tmp_path, model_b_spec(0.9), reps=1000, seed=7)
    for out in (out_a, out_b):
        code = main(["--config", path, "--output-dir", str(out), "simulate"])
        assert code == 0
    assert (out_a / "batch.csv").read_bytes() == (
        out_b / "batch.csv").read_bytes()
    assert without_timestamp(out_a / "summary.json") == without_timestamp(
        out_b / "summary.json")
    summary = read_json(out_a / "summary.json")
    assert summary["truncation_bound"] == pytest.approx(4.0555e-5, rel=1e-3)
    assert summary["replications"] == 1000


def test_simulate_reports_a_maxplus_truncation_bound(tmp_path):
    # N in {0, 2}, E N = 0.8, rho_1 = 0.8 * 0.75 = 0.6: contractive, and
    # exact trees die out
    spec = {"n": {"family": "two-point", "values": {0: 0.6, 2: 0.4}},
            "c": {"family": "uniform", "b": 1.5},
            "q": {"family": "deterministic", "value": 1.0}}
    reps, depth, seed = 20_000, 3, 17
    path = write_config(tmp_path, spec, kind="max-plus", depth=depth,
                        reps=reps, seed=seed, truncation_beta=1.0,
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "simulate", "--force"]) == 0
    summary = read_json(tmp_path / "out" / "summary.json")
    bound = summary["truncation_bound"]
    model = make_model(spec)
    assert bound == truncation_bound(model, 1.0, depth)
    stopped = run_batch(model, "max-plus", depth, reps, seed=seed)
    exact = run_batch(model, "max-plus", None, reps, seed=seed)
    gap = exact.values - stopped.values
    assert (gap >= 0.0).all()  # the exact tree extends the stopped one
    se = gap.std(ddof=1) / math.sqrt(reps)
    assert gap.mean() <= bound + 3 * se


def test_simulate_generation_growth_summary(tmp_path):
    # supercritical branching: mean generation size grows like 1.3^n
    path = write_config(tmp_path, model_a_spec(),
                        kind="homogeneous-martingale", depth=12, reps=4000,
                        seed=11, output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "simulate"]) == 0
    summary = read_json(tmp_path / "out" / "summary.json")
    z12 = summary["levels"]["mean"][12]
    # crude betwen-replication spread bound for the 3 sigma window
    assert abs(z12 - 1.3 ** 12) < 3 * 1.3 ** 12 / math.sqrt(100)
    assert summary["truncation_bound"] is None  # martingale kind, no bound


def test_simulate_precheck_and_force(tmp_path, capsys):
    path = write_config(tmp_path, model_a_spec(), kind="linear", depth=8,
                        reps=200, output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "simulate"]) == 2
    assert "mean-contraction" in capsys.readouterr().err
    assert main(["--config", path, "simulate", "--force"]) == 0


def test_simulate_missing_model_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("seed: 3\n")
    assert main(["--config", str(empty), "simulate"]) == 1
    assert "model section" in capsys.readouterr().err


def test_simulate_exact_refuses_supercritical_counts(tmp_path, capsys):
    path = write_config(tmp_path, poisson2_spec(), budget=1_000, reps=50,
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "--depth", "exact", "simulate",
                 "--force"]) == 1
    err = capsys.readouterr().err
    assert "E[N] < 1" in err and err.count("\n") == 1
    assert not (tmp_path / "out" / "batch.csv").exists()
    # a law that never ends a tree keeps its own message
    path = write_config(tmp_path, uniform_model_spec(), "u.yaml",
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "--depth", "exact", "simulate",
                 "--force"]) == 1
    assert "terminate" in capsys.readouterr().err


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("BRANCHTAIL_OUTPUT_DIR", str(tmp_path / "env_out"))
    path = write_config(tmp_path, model_b_spec(0.9), reps=200, depth=5)
    assert main(["--config", path, "simulate"]) == 0
    assert (tmp_path / "env_out" / "batch.csv").exists()


# analyze


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("analyze")
    path = write_config(tmp_path, model_b_spec(0.9), depth=25, reps=30_000,
                        seed=13, output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "simulate"]) == 0
    code = main(["--config", path, "analyze", "--batch",
                 str(tmp_path / "out" / "batch.csv")])
    return code, tmp_path / "out"


def test_analyze_writes_reports(analyzed):
    code, out = analyzed
    assert code == 0
    tail = read_json(out / "tail_report.json")
    # contractive variant with root near 1.09
    assert 0.9 < tail["alpha_hat"] < 1.35
    assert not tail["drift_flag"]
    sweep = (out / "hill_sweep.csv").read_text().splitlines()
    assert sweep[0] == "k,alpha_hat,std_error"
    assert len(sweep) > 5
    survival = (out / "survival.csv").read_text().splitlines()
    assert survival[0] == "threshold,survival,std_error"
    constant = read_json(out / "constant_report.json")
    assert constant["available"] is True
    assert constant["lower_bound"] > 0


def test_analyze_rejects_model_mismatch(analyzed, tmp_path, capsys):
    _, out = analyzed
    path = write_config(tmp_path, model_b_spec(0.3),
                        output_dir=str(tmp_path / "o"))
    assert main(["--config", path, "analyze", "--batch",
                 str(out / "batch.csv")]) == 1
    assert "different model" in capsys.readouterr().err


def test_analyze_martingale_below_one_has_no_upper_bound(tmp_path):
    # alpha = 0.94 < 1: no (p - 1)-th moment for the martingale bound
    path = write_config(tmp_path, poisson2_spec(),
                        kind="homogeneous-martingale", depth=6, reps=8_000,
                        seed=3, solver={"bracket": [0.5, 4.0]},
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "simulate", "--force"]) == 0
    assert main(["--config", path, "analyze", "--batch",
                 str(tmp_path / "out" / "batch.csv")]) == 0
    constant = read_json(tmp_path / "out" / "constant_report.json")
    assert constant["available"] is True
    assert 0.9 < constant["alpha"] < 1.0
    assert constant["upper_bound"] is None


def test_analyze_unreadable_batch_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    path = write_config(tmp_path, model_b_spec(0.9),
                        output_dir=str(tmp_path / "o"))
    assert main(["--config", path, "analyze", "--batch", str(empty)]) == 1
    assert main(["--config", path, "analyze", "--batch",
                 str(tmp_path / "missing.csv")]) == 1


@pytest.mark.parametrize("argv, corrupt", [
    (["--depth", "abc", "simulate"], None),
    (["--depth", "2.5", "simulate"], None),
    (["--set", "reps=many", "simulate", "--force"], None),
    (["--set", "verify.renewal_n=[1, x]", "verify"], None),
    (["--set", "truncation_beta=abc", "simulate", "--force"], None),
    (["--set", "verify.moment_betas=abc", "verify"], None),
    (["--set", "verify.iterate_starts=[1.0]", "verify"], None),
    (["--set", "verify={renewal_n: [1]}", "verify"], None),
    (["--kind", "foo", "solve-alpha"], None),
    (["--set", "verify.moment_betas=[.nan]", "verify"], None),
    (["--set", "truncation_beta=.nan", "simulate", "--force"], None),
    (["--set", "truncation_beta=0", "simulate", "--force"], None),
    (["--depth", "exact", "--set", "truncation_beta=-2", "simulate",
      "--force"], None),
    (["--set", "tails.ks_threshold=.nan", "verify"], None),
    (["--set", "solver.tol=.nan", "solve-alpha"], None),
    (["--set", "solver.tol=.inf", "solve-alpha"], None),
    (["--set", "solver.tol=0.0", "solve-alpha"], None),
    (["--set", "verify.iterate_reps=1", "verify"], None),
    # the self-test is the verify flag's alone
    (["--set", "verify.corrupt_bound_self_test=true", "verify"], None),
    (["--set", "tails.bootstrap=1", "solve-alpha"], None),
    (["--set", "tails.bootstrap=-1", "solve-alpha"], None),
    (["--seed", "-1", "verify"], None),
    (["--set", "verify.moment_depths=[-1, 2]", "verify"], None),
    (["--set", "verify.iterate_starts=[-1.0, 100.0]", "verify"], None),
    (["--set", "verify.renewal_n=[0]", "verify"], None),
    (["--set", "verify.renewal_n=[1, 2, 5]", "verify"], None),
    (["--set", "model.c_scale=abc", "simulate", "--force"], None),
    (["--set", "model.n={family: poisson, mean: .inf}", "simulate",
      "--force"], None),
    (["--set", "model.c={family: uniform, b: .inf}", "simulate", "--force"],
     None),
    # above numpy's largest poisson mean
    (["--set", "model.n={family: poisson, mean: 1.0e+19}", "simulate",
      "--force"], None),
    # a NaN parameter used to reach sampling and every check of verify
    (["--set", "model.c.sigma2=.nan", "verify"], None),
    (["--set", "model.c.mu=.nan", "verify"], None),
    (["--set", "model.c_scale=.nan", "verify"], None),
    (["--set", "model.c={family: lognormal, mu: 0, sigma2: 1, sigma: 9}",
      "simulate", "--force"], None),
    (["--set", "model.n.values=[1, 2]", "simulate", "--force"], None),
    (["--set", "model.n.values={0.5: 0.5, 1: 0.5}", "simulate", "--force"],
     None),
    (["--set", "model.coupling=iid-independent", "simulate", "--force"],
     None),
    # moments beyond the largest double read as infinite
    (["--set", "model.c.mu=7684", "solve-alpha"], None),
    (["--set", "model.c_scale=1.0e+300", "solve-alpha"], None),
    # (row of batch.csv to overwrite, its new text): -2 is the last value
    (["analyze"], (-2, "abc")),
    (["analyze"], (3, "# seed=seven")),
    (["analyze"], (-2, "\udcff")),
    (["analyze"], (-2, "nan")),
    (["analyze"], (-2, "")),  # a blank row: one value row short
    (["analyze"], (1, "# kind=foo")),
    # an iterate batch's header rows: a kind no command writes
    (["analyze"], (1, "# kind=iterate-from\n# base_kind=linear")),
], ids=["depth-word", "depth-float", "reps-word", "int-list", "float-word",
        "float-list-word", "float-list-short", "set-section", "kind-word",
        "float-list-nan", "float-nan", "truncation-beta-zero",
        "truncation-beta-negative", "threshold-nan", "tol-nan", "tol-inf",
        "tol-zero", "verify-reps-one", "self-test-leaf", "bootstrap-one",
        "bootstrap-negative", "seed-negative",
        "moment-depth-negative", "iterate-start-negative",
        "renewal-n-zero", "renewal-n-five", "model-scale-word",
        "model-mean-inf", "model-bound-inf", "model-mean-huge",
        "model-sigma2-nan",
        "model-mu-nan", "model-scale-nan", "model-unknown-param",
        "model-support-list", "model-support-fraction", "model-coupling",
        "model-moment-overflow", "model-scale-overflow",
        "value-row", "metadata-row", "not-utf8", "value-nan",
        "value-dropped", "kind-row", "iterate-kind-rows"])
def test_bad_input_exits_one_without_traceback(tmp_path, capsys, argv,
                                               corrupt):
    path = write_config(tmp_path, model_b_spec(0.9), reps=50, depth=3,
                        seed=7, output_dir=str(tmp_path))
    if corrupt is not None:
        assert main(["--config", path, "simulate"]) == 0
        batch = tmp_path / "batch.csv"
        lines = batch.read_text().split("\n")
        row, text = corrupt
        lines[row] = text
        batch.write_bytes("\n".join(lines).encode(errors="surrogateescape"))
        argv = argv + ["--batch", str(batch)]
        capsys.readouterr()
    assert main(["--config", path] + argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    if corrupt is not None:
        assert err.startswith("cannot read batch")
    else:
        # refused before sampling, not after a whole run
        assert not (tmp_path / "batch.csv").exists()


def test_set_reaches_an_integer_key(tmp_path, capsys):
    path = write_config(tmp_path, model_b_spec(0.9),
                        output_dir=str(tmp_path / "out"))
    sets = ["--set", "model.n.values.0=0.3", "--set", "model.n.values.1=0.7"]
    config = load_config(path, sets=sets[1::2])
    assert config["model"]["n"]["values"] == {0: 0.3, 1: 0.7}
    assert main(["--config", path] + sets + ["solve-alpha"]) == 0
    assert capsys.readouterr().err == ""


def test_yaml_floats_without_a_dot(tmp_path, capsys):
    path = write_config(tmp_path, model_b_spec(0.9),
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "--set", "solver.tol=1e-12",
                 "solve-alpha"]) == 0
    assert load_config(path, sets=["solver.tol=1e-12"])["solver"]["tol"] == 1e-12
    capsys.readouterr()
    assert main(["--config", path, "--set", "solver.tol=abc",
                 "solve-alpha"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    # YAML 1.1 reads 1e0 as a string
    config = tmp_path / "file.yaml"
    config.write_text(
        "model:\n"
        "  n: {family: two-point, values: {0: 0.5, 1: 0.5}}\n"
        "  c: {family: lognormal, mu: 0.1931471805599453, sigma2: 1e0}\n"
        "  q: {family: deterministic, value: 1.0}\n"
        f"output_dir: {tmp_path / 'file_out'}\n")
    assert load_config(str(config))["model"]["c"]["sigma2"] == 1.0
    assert main(["--config", str(config), "solve-alpha"]) == 0
    solution = read_json(tmp_path / "file_out" / "alpha_solution.json")
    assert solution["alpha"] == pytest.approx(1.0, abs=1e-10)


def _leaves(tree, path=""):
    # a fuzzed output_dir would create directories wherever it points
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{path}{key}.")
        elif key not in ("model", "output_dir"):
            yield f"{path}{key}"


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(), st.text(max_size=8))
_YAML_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)).map(
    lambda v: yaml.safe_dump(v, default_flow_style=True).split("\n...")[0])


@pytest.fixture(scope="module")
def fuzz_config(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    return write_config(tmp_path, model_b_spec(0.9),
                        output_dir=str(tmp_path / "out"))


_MODEL_LEAVES = sorted(f"model.{leaf}" for leaf in _leaves(model_b_spec(0.9)))


@settings(max_examples=150, deadline=None)
@given(leaf=st.sampled_from(sorted(_leaves(DEFAULTS)) + _MODEL_LEAVES),
       raw=st.one_of(st.text(max_size=16), _YAML_VALUES))
def test_set_fuzz_never_escapes_main(fuzz_config, leaf, raw):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", fuzz_config, "--set", f"{leaf}={raw}",
                     "solve-alpha"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().strip().splitlines()) <= 1


@pytest.fixture(scope="module")
def corrupt_target(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("corrupt")
    path = write_config(tmp_path, model_b_spec(0.9), reps=50, depth=3,
                        seed=7, output_dir=str(tmp_path))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--config", path, "simulate"]) == 0
    return path, tmp_path / "batch.csv"


# printable text on one line: no control characters, no surrogates
_ONE_LINE = st.text(st.characters(blacklist_categories=("Cc", "Cs")),
                    max_size=12)


def _reads_as_value(text):
    try:
        value = float(text)
    except ValueError:
        return False
    return math.isfinite(value) and value >= 0.0


def _corrupt(text, data):
    """One corruption of a batch CSV that no reader may accept."""
    rows = text.split("\n")[:-1]  # the file ends with a newline
    column = rows.index("value")
    how = data.draw(st.sampled_from(
        ["truncate", "delete", "duplicate", "rename-field", "flip-value"]))
    if how == "truncate":  # cut at or before the start of the last row
        return text[:data.draw(st.integers(0, len(text) - len(rows[-1]) - 1))]
    if how == "delete":  # every line is required
        del rows[data.draw(st.integers(0, len(rows) - 1))]
    elif how == "duplicate":  # the column header or a value row
        i = data.draw(st.integers(column, len(rows) - 1))
        rows.insert(i, rows[i])
    elif how == "rename-field":  # a required field goes missing
        i = data.draw(st.integers(1, column - 1))
        key, _, field = rows[i][2:].partition("=")
        name = data.draw(_ONE_LINE.filter(lambda k: k != key))
        rows[i] = f"# {name}={field}"
    else:
        i = data.draw(st.integers(column + 1, len(rows) - 1))
        rows[i] = data.draw(_ONE_LINE.filter(lambda t: not _reads_as_value(t)))
    return "\n".join(rows) + "\n"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupt_batch_csv_exits_one(corrupt_target, data):
    config, batch = corrupt_target
    corrupt = batch.with_name("corrupt.csv")
    corrupt.write_text(_corrupt(batch.read_text(), data), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["--config", config, "analyze", "--batch", str(corrupt)])
    assert code == 1
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().strip().splitlines()) == 1


@pytest.mark.parametrize("values", ["", "0.5\n1.0,2.0\n0.5\n",
                                    "1.0,2.0\n1.0,2.0\n"],
                         ids=["no-value-rows", "two-fields", "all-two-fields"])
def test_bad_value_section_exits_one_in_one_line(corrupt_target, values):
    config, batch = corrupt_target
    text = batch.read_text()
    head = text[:text.index("\nvalue\n") + len("\nvalue\n")]
    corrupt = batch.with_name("section.csv")
    corrupt.write_text(head + values)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["--config", config, "analyze", "--batch", str(corrupt)])
    assert code == 1
    assert caught == []
    lines = err.getvalue().strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("cannot read batch")
    if values:
        assert "'1.0,2.0'" in lines[0]


# verify


def quick_verify_config(tmp_path, **extra):
    return write_config(
        tmp_path, model_b_spec(0.9),
        verify={"renewal_n": [1, 2], "renewal_reps": 4000,
                "moment_depths": [0, 2], "moment_betas": [0.5, 1.0, 2.0],
                "moment_reps": 4000, "iterate_depth": 10,
                "iterate_reps": 4000},
        output_dir=str(tmp_path / "out"), **extra)


def test_verify_passes_and_reports_skips(tmp_path):
    path = quick_verify_config(tmp_path)
    assert main(["--config", path, "verify"]) == 0
    payload = read_json(tmp_path / "out" / "verification.json")
    assert payload["passed"] is True
    assert payload["skipped"] > 0  # the beta=2 cells have no contraction
    statuses = {(c.get("n"), c.get("beta")): c.get("status")
                for c in payload["checks"]
                if c["check"] == "generation-moment-bound"}
    assert statuses[(2, 2.0)] == "precondition-unmet"


def test_verify_corrupt_hook_exits_three(tmp_path):
    path = quick_verify_config(tmp_path)
    assert main(["--config", path, "verify",
                 "--corrupt-bound-self-test"]) == 3
    payload = read_json(tmp_path / "out" / "verification.json")
    assert payload["passed"] is False
    corrupted = [c for c in payload["checks"]
                 if c.get("status") == "self-test-corrupted"]
    assert corrupted and all(c["holds"] is False for c in corrupted)


def test_verify_under_a_tight_budget(tmp_path, capsys):
    # two nodes: the depth-2 moment batch loses some trees, the renewal
    # forest of depth 2 hits the budget
    path = quick_verify_config(tmp_path, budget=2)
    assert main(["--config", path, "verify"]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    payload = read_json(tmp_path / "out" / "verification.json")
    kinds = {c["check"]: c for c in payload["checks"]}
    assert kinds["measure-factorization"]["status"] == "precondition-unmet"
    assert "iteration-convergence" in kinds
    cells = [c for c in payload["checks"]
             if c["check"] == "generation-moment-bound"]
    assert {c["n"] for c in cells} == {0, 2}


def test_verify_keeps_the_renewal_checks_that_completed(tmp_path):
    # model_b trees have at most one child, so n = 1 fits in two nodes
    # and the depth-2 forest hits the budget
    path = quick_verify_config(tmp_path, budget=2)
    assert main(["--config", path, "verify"]) in (0, 3)
    payload = read_json(tmp_path / "out" / "verification.json")
    renewal = [c for c in payload["checks"]
               if c["check"] == "measure-factorization"]
    assert [c.get("n") for c in renewal] == [1, 1, 1, None]
    assert all("agree" in c for c in renewal[:3])
    unmet = renewal[-1]
    assert set(unmet) == {"check", "status", "reason", "holds"}
    assert unmet["status"] == "precondition-unmet"
    assert unmet["reason"].startswith("n=2: ")


@pytest.mark.parametrize("depths, reps", [([0, 2], 300), ([0], 200)],
                         ids=["moment-grid", "iteration"])
def test_verify_exits_one_when_every_tree_outgrows_the_budget(
        tmp_path, capsys, depths, reps):
    # model_a trees always have a child, so a one-node budget keeps only
    # generation 0: the grid at depth 2, or else the iteration, loses all
    path = write_config(
        tmp_path, model_a_spec(), budget=1,
        verify={"renewal_n": [1], "renewal_reps": 100,
                "moment_depths": depths, "moment_reps": 300,
                "iterate_depth": 4, "iterate_reps": 200},
        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "verify"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: all {reps} replications exceeded the node budget 1\n"


def test_verify_out_of_memory_exits_one_in_one_line(tmp_path, capsys,
                                                    monkeypatch):
    # stands in for a count law whose first generation cannot be allocated
    def out_of_memory(self, rng, size, limit=None):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(VectorModel, "draw_offspring", out_of_memory)
    path = quick_verify_config(tmp_path)
    assert main(["--config", path, "verify"]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 14.6 TiB for an array\n")


def test_verify_zero_toll_martingale_skips_only_the_iteration(tmp_path,
                                                            capsys):
    # the iterate folds Q, which is 0 here; the other checks still run
    spec = dict(model_a_spec(), q={"family": "deterministic", "value": 0.0})
    path = write_config(
        tmp_path, spec, kind="homogeneous-martingale",
        verify={"renewal_n": [1], "renewal_reps": 2000,
                "moment_depths": [0, 2], "moment_betas": [0.5],
                "moment_reps": 2000, "iterate_reps": 2000},
        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "verify"]) in (0, 3)
    assert "error" not in capsys.readouterr().err
    payload = read_json(tmp_path / "out" / "verification.json")
    names = [c["check"] for c in payload["checks"]]
    assert names.count("measure-factorization") == 3
    assert names.count("generation-moment-bound") == 2
    (iteration,) = [c for c in payload["checks"]
                    if c["check"] == "iteration-convergence"]
    assert iteration["status"] == "precondition-unmet"
    assert iteration["holds"] is None
    assert "P(Q > 0) > 0" in iteration["reason"]


@pytest.mark.parametrize("law", ["n={family: deterministic, value: 0}",
                                 "c={family: deterministic, value: 0.0}"],
                         ids=["no-children", "zero-weights"])
def test_verify_without_weights_writes_a_report(tmp_path, capsys, law):
    # sum C = 0 almost surely: the constructive constant is E[Q^beta]
    path = quick_verify_config(tmp_path)
    assert main(["--config", path, "--set", "model." + law,
                 "verify"]) in (0, 3)
    assert "Traceback" not in capsys.readouterr().err
    payload = read_json(tmp_path / "out" / "verification.json")
    cells = {(c["n"], c["beta"]): c for c in payload["checks"]
             if c["check"] == "generation-moment-bound"}
    assert cells[(0, 2.0)]["bound"] == 1.0  # E[Q^2] for the unit toll
    assert cells[(2, 2.0)]["bound"] == 0.0


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")
    with open(path) as handle:
        return json.load(handle, parse_constant=refuse)


def test_reports_are_strict_json_when_moments_overflow(tmp_path):
    # E[Q^beta] = exp(1000 beta^2) overflows for beta >= 1
    spec = dict(model_b_spec(), q={"family": "lognormal", "mu": 0.0,
                                   "sigma2": 2000.0})
    path = write_config(
        tmp_path, spec, depth=None, reps=20_000, seed=2,
        verify={"renewal_n": [1], "renewal_reps": 2000,
                "moment_depths": [0, 2], "moment_betas": [0.5, 1.0],
                "moment_reps": 2000, "iterate_reps": 2000},
        output_dir=str(tmp_path / "out"))
    out = tmp_path / "out"
    assert main(["--config", path, "solve-alpha"]) == 2  # E[Q^alpha] = inf
    assert main(["--config", path, "simulate", "--force"]) == 0
    assert main(["--config", path, "analyze", "--batch",
                 str(out / "batch.csv")]) == 0
    assert main(["--config", path, "verify"]) in (0, 3)
    reports = sorted(out.glob("*.json"))
    assert len(reports) == 5
    for report in reports:
        _strict_json(report)
    constant = _strict_json(out / "constant_report.json")
    assert constant["lower_bound"] == "inf"
    cells = [c for c in _strict_json(out / "verification.json")["checks"]
             if c["check"] == "generation-moment-bound"]
    # an infinite bound is no check at all
    assert [c["status"] for c in cells] == [
        "checked", "precondition-unmet", "checked", "precondition-unmet"]


def test_estimators_draw_from_independent_streams(analyzed, tmp_path,
                                                  monkeypatch):
    seen = {}

    def spy(name, rng_at=None):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            rng = kwargs["rng"] if rng_at is None else args[rng_at]
            seen.setdefault(name, rng.bit_generator.state)
            return original(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    for name in ("tail_report", "tail_constant_report",
                 "generation_moment_bound"):
        spy(name)
    spy("verify_product_measure", rng_at=5)
    _, out = analyzed
    path = write_config(tmp_path, model_b_spec(0.9), seed=13,
                        output_dir=str(tmp_path / "out"))
    assert main(["--config", path, "analyze", "--batch",
                 str(out / "batch.csv")]) == 0
    assert seen["tail_report"] != seen["tail_constant_report"]
    assert main(["--config", quick_verify_config(tmp_path),
                 "verify"]) in (0, 3)
    assert seen["verify_product_measure"] != seen["generation_moment_bound"]


def test_forest_w_n_has_the_martingale_law(model_a):
    reps = 4000
    w = _martingale_forest(model_a, [4], reps, DEFAULT_BUDGET,
                           np.random.default_rng(101))[4]
    batch = run_batch(model_a, "homogeneous-martingale", 4, reps, seed=102)
    assert w.size == reps
    assert sstats.ks_2samp(w, batch.values).pvalue > 1e-6


@pytest.mark.parametrize("kind", ["linear", "max"])
def test_forest_iterates_have_the_chain_law(model_b09, kind):
    reps, n, starts = 4000, 10, (0.0, 100.0)
    forest = _iterate_forest(model_b09, kind, n, starts, reps,
                             DEFAULT_BUDGET, np.random.default_rng(103))
    chain_rng = np.random.default_rng(104)
    for start, values in zip(starts, forest):
        chains = model_b_iterate(chain_rng, kind, start, n, reps, 0.9)
        assert values.size == reps
        assert sstats.ks_2samp(values, chains).pvalue > 1e-6


def test_importing_the_package_leaves_scipy_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, branchtail, branchtail.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
