"""The kind record: one lookup of a kind name and no branch on one."""

import ast
import pathlib

import numpy as np
import pytest

from branchtail import (SampleBatch, check_conditions, run_batch,
                        solve_alpha, tail_constant_bounds,
                        tail_constant_closed_form, tail_constant_mc,
                        tail_constant_report)
from branchtail.engine import DEFAULT_BUDGET, EngineError, _iterate_forest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "branchtail"
NAMES = {"linear", "max", "max-plus", "homogeneous-martingale"}


def _named_kinds(node):
    """Kind names a node states as a literal, alone or in a collection."""
    if isinstance(node, ast.Constant):
        return {node.value} & NAMES
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*map(_named_kinds, node.elts))
    return set()


def test_no_comparison_under_src_names_a_kind():
    # what a kind means is read from its (children, toll) pair in KINDS
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                names = set().union(*map(_named_kinds,
                                         [node.left, *node.comparators]))
                if names:
                    found.append(f"{path.name}:{node.lineno} {sorted(names)}")
    assert found == []


def _folds_values(node):
    """Whether a call folds values by owner: ``ufunc.at`` or a weighted
    ``bincount``, which the unweighted counts are not."""
    name = getattr(node.func, "attr", getattr(node.func, "id", None))
    weighted = len(node.args) > 1 or any(k.arg == "weights"
                                         for k in node.keywords)
    return name == "at" or (name == "bincount" and weighted)


def test_values_fold_by_owner_only_in_the_one_helper():
    # a segment sum or maximum outside model.fold_by_owner is a second idiom
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "fold_by_owner" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and id(node) not in helper
                    and _folds_values(node)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _batch(kind):
    return SampleBatch(kind=kind, depth=1, values=np.ones(1), seed=0,
                       stream_count=1, budget=1, total_nodes=1,
                       truncated_replications=0, level_mean=np.ones(1),
                       level_max=np.ones(1, dtype=np.int64),
                       model_fingerprint="")


TAKES_A_KIND = {
    "run_batch": lambda m, sol, kind: run_batch(m, kind, 3, 10),
    "SampleBatch": lambda m, sol, kind: _batch(kind),
    "check_conditions": lambda m, sol, kind: check_conditions(m, sol, kind),
    "tail_constant_closed_form":
        lambda m, sol, kind: tail_constant_closed_form(m, 1.0, kind),
    "tail_constant_mc":
        lambda m, sol, kind: tail_constant_mc(m, sol, kind, np.ones(10 ** 5)),
    "tail_constant_bounds":
        lambda m, sol, kind: tail_constant_bounds(m, sol, kind),
    "tail_constant_report":
        lambda m, sol, kind: tail_constant_report(m, sol, kind),
    "_iterate_forest": lambda m, sol, kind: _iterate_forest(
        m, kind, 2, (0.0,), 10, DEFAULT_BUDGET, np.random.default_rng(0)),
}


@pytest.mark.parametrize("kind", ["foo", ["linear"]], ids=["name", "list"])
@pytest.mark.parametrize("call", TAKES_A_KIND.values(), ids=TAKES_A_KIND)
def test_an_unknown_kind_is_one_error(model_b09, call, kind):
    sol = solve_alpha(model_b09)
    with pytest.raises(EngineError) as err:
        call(model_b09, sol, kind)
    assert str(err.value) == f"unknown recursion kind: {kind!r}"
