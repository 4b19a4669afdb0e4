"""Steady-state logistic diffusion on the unit interval and square:
a Newton solver for the population equation, adjoint-based optimization
of the resource layout under pointwise and budget constraints, and
experiment drivers for the fragmentation phenomenon.
"""
from .grids import (
    Grid,
    GridError,
    NeumannLaplacian,
    refine_fold_values,
)
from .fields import (
    AdmissibilityError,
    FieldError,
    ProblemParams,
    ResourceField,
    ScalarField,
    bv_seminorm,
    field_from_csv,
    field_to_csv,
    jump_count,
    make_crenel,
    mean,
    near_bangbang_fraction,
)
from .solver import (
    NoConvergence,
    NonPositiveMeanResource,
    SolverConfig,
    SolverError,
    SteadyState,
    solve_steady_state,
    total_population,
)
from .optimizer import (
    DegenerateSample,
    OptimConfig,
    OptimizationError,
    OptimRun,
    SingularAdjoint,
    StartRecord,
    armijo_ascent_step,
    best_perturbation,
    objective_gradient,
    optimize,
    random_fourier_guess,
    solve_adjoint,
)
from .experiments import (
    DEFAULT_EFFICIENCY_MUS,
    LemmaBoundRow,
    PeriodisationRow,
    ResolutionError,
    SweepRecord,
    SweepReport,
    check_resolution,
    efficiency_ratio,
    fragmentation_sweep,
    lemma2_bound_sweep,
    periodisation_check,
)
from .plots import emit_plot

__version__ = "0.1.0"

__all__ = [
    "Grid", "GridError", "NeumannLaplacian", "refine_fold_values",
    "AdmissibilityError", "FieldError", "ProblemParams", "ResourceField",
    "ScalarField", "bv_seminorm", "field_from_csv", "field_to_csv",
    "jump_count", "make_crenel", "mean", "near_bangbang_fraction",
    "NoConvergence", "NonPositiveMeanResource", "SolverConfig", "SolverError",
    "SteadyState", "solve_steady_state", "total_population",
    "DegenerateSample", "OptimConfig", "OptimizationError", "OptimRun",
    "SingularAdjoint", "StartRecord", "armijo_ascent_step",
    "best_perturbation", "objective_gradient", "optimize",
    "random_fourier_guess", "solve_adjoint",
    "DEFAULT_EFFICIENCY_MUS", "LemmaBoundRow", "PeriodisationRow",
    "ResolutionError", "SweepRecord", "SweepReport", "check_resolution",
    "efficiency_ratio", "fragmentation_sweep",
    "lemma2_bound_sweep", "periodisation_check",
    "emit_plot",
]
