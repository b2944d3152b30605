"""Simulation and tail analysis for weighted branching fixed-point equations."""

from .model import (
    ModelError,
    MomentValue,
    VectorModel,
    make_model,
    moment_function,
    moment_function_deriv,
    sum_moment,
)
from .cramer import (
    ConditionReport,
    ContractionRootError,
    CramerSolution,
    NoSignChangeError,
    SolverError,
    check_conditions,
    solve_alpha,
)
from .engine import (
    DEFAULT_BUDGET,
    EngineError,
    SampleBatch,
    read_batch_csv,
    run_batch,
    summary,
    truncation_bound,
    write_batch_csv,
)
from .moments import (
    BoundError,
    constructive_constant,
    fixed_point_mean_exact,
    generation_moment_bound,
)
from .tails import (
    HillEstimate,
    PlateauEstimate,
    TailError,
    TailReport,
    default_survival_grid,
    hill_estimator,
    hill_sweep,
    plateau_constant,
    survival_points,
    tail_report,
)
from .renewal import (
    DualEstimateReport,
    TEST_FUNCTIONS,
    TiltError,
    TiltedMeasure,
    factorization_checks,
    make_tilted,
)
from .constants import (
    ConstantError,
    TailConstantReport,
    tail_constant_bounds,
    tail_constant_closed_form,
    tail_constant_mc,
    tail_constant_report,
)

__version__ = "0.16.0"
