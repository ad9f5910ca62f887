"""Greedy coordinate-descent solvers for large linear least squares.

The package provides a deterministic two-stage greedy Gauss-Seidel
solver, its randomized variant, a threshold-based greedy randomized
coordinate-descent solver and the classic norm-sampled randomized
Gauss-Seidel baseline, together with machinery to check the greedy
method's per-step contraction guarantees and a benchmark harness that
averages iteration counts and solve times over repeated seeded trials.
"""
from .analysis import (
    BoundReport,
    ggs_cumulative_bound,
    ggs_first_step_factor,
    ggs_per_step_factor,
    grcd_expected_factor,
    jacobi_eigenvalues,
    lambda_min_pos,
    verify_trace,
)
from .bench import (
    ExperimentResult,
    ExperimentSpec,
    TrialRecord,
    emit_convergence_curve,
    emit_table,
    run_experiment,
)
from .estimators import (
    GreedyGaussSeidel,
    GreedyRandomizedCoordinateDescent,
    RandomizedGaussSeidel,
    RandomizedGreedyGaussSeidel,
)
from .exceptions import (
    AllZeroGradient,
    FactorOutOfRange,
    GreedyLsqError,
    MissingEnergyError,
    NonFiniteValue,
    NotApplicable,
    NullSpaceEmpty,
    ParseError,
    RankDeficient,
    UnsupportedField,
    ZeroColumn,
)
from .problems import (
    LsqProblem,
    ManifestEntry,
    assert_full_column_rank,
    gen_gaussian,
    load_manifest,
    load_matrix_market,
    load_vector,
    make_consistent,
    make_inconsistent,
    reference_solution,
    save_matrix_market,
    save_vector,
)
from .solvers import (
    Method,
    SolveReport,
    SolverConfig,
    StepRecord,
    StopReason,
    ggs_randomized_select,
    ggs_select,
    grcd_select,
    rgs_select,
    solve,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "AllZeroGradient",
    "BoundReport",
    "ExperimentResult",
    "ExperimentSpec",
    "FactorOutOfRange",
    "GreedyGaussSeidel",
    "GreedyLsqError",
    "GreedyRandomizedCoordinateDescent",
    "LsqProblem",
    "ManifestEntry",
    "Method",
    "MissingEnergyError",
    "NonFiniteValue",
    "NotApplicable",
    "NullSpaceEmpty",
    "ParseError",
    "RandomizedGaussSeidel",
    "RandomizedGreedyGaussSeidel",
    "RankDeficient",
    "SolveReport",
    "SolverConfig",
    "StepRecord",
    "StopReason",
    "TrialRecord",
    "UnsupportedField",
    "ZeroColumn",
    "assert_full_column_rank",
    "emit_convergence_curve",
    "emit_table",
    "gen_gaussian",
    "ggs_cumulative_bound",
    "ggs_first_step_factor",
    "ggs_per_step_factor",
    "ggs_randomized_select",
    "ggs_select",
    "grcd_expected_factor",
    "grcd_select",
    "jacobi_eigenvalues",
    "lambda_min_pos",
    "load_manifest",
    "load_matrix_market",
    "load_vector",
    "make_consistent",
    "make_inconsistent",
    "reference_solution",
    "rgs_select",
    "run_experiment",
    "save_matrix_market",
    "save_vector",
    "solve",
    "step",
    "verify_trace",
]
