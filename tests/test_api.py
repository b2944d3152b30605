import inspect
import pathlib

import pytest

import branchtail

# The names branchtail exports are its API: removing or renaming one must
# be a deliberate edit of this list.
PUBLIC_NAMES = [
    "BoundError", "ConditionReport", "ConstantError",
    "ContractionRootError", "CramerSolution", "DEFAULT_BUDGET",
    "DualEstimateReport", "EngineError", "HillEstimate", "ModelError",
    "MomentValue", "NoSignChangeError", "PlateauEstimate",
    "SampleBatch", "SolverError", "TEST_FUNCTIONS", "TailConstantReport",
    "TailError", "TailReport", "TiltError", "TiltedMeasure", "VectorModel",
    "check_conditions", "constructive_constant", "default_survival_grid",
    "fixed_point_mean_exact", "generation_moment_bound", "hill_estimator",
    "hill_sweep", "make_model", "make_tilted", "moment_function",
    "moment_function_deriv", "plateau_constant", "read_batch_csv",
    "run_batch", "solve_alpha", "sum_moment", "summary", "survival_points",
    "tail_constant_bounds", "tail_constant_closed_form",
    "tail_constant_mc", "tail_constant_report", "tail_report",
    "truncation_bound", "verify_product_measure", "write_batch_csv",
]


def test_public_names_are_pinned():
    # submodules show up as attributes once imported; they are not exports
    names = sorted(name for name, value in vars(branchtail).items()
                   if not name.startswith("_") and not inspect.ismodule(value))
    assert names == PUBLIC_NAMES


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert branchtail.__version__ == project["version"]
