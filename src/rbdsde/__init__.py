"""Monte Carlo solver library for backward doubly stochastic differential
equations with zero, one, or two reflecting barriers, plus the executable
structural checks that come with them."""

from .bdsde_solver import implicit_double_step, solve_bdsde
from .condexp import (
    Design,
    RegressionConfig,
    RegressionFit,
    basis_labels,
    build_basis,
    condexp_fit_eval,
)
from .diagnostics import (
    apriori_statistic,
    check_comparison,
    check_dK_comparison,
    pooled_se,
    regression_se,
    stability_statistic,
)
from .model import (
    CoefficientSpec,
    Dimensions,
    ObstacleSpec,
    PenaltySchedule,
    Scenario,
    SignedPushes,
    SolutionEnsemble,
    SolveMeta,
    TimeGrid,
    ValidationReport,
    validate_scenario,
)
from .oracles import (
    FixedRule,
    HittingRule,
    closed_form_reference,
    dp_self_check,
    dp_stopping_value,
    stopping_rule_value,
)
from .paths import NoisePaths, ObstacleGrid, generate_paths, obstacle_on_grid
from .reflect_one import (
    implicit_penalty_step,
    penetration_statistic,
    skorohod_residual,
    skorohod_sup_formula,
    solve_penalized,
    solve_projected,
    solve_reflected,
)
from .reflect_two import (
    PenalizationTrace,
    double_skorohod_residuals,
    solve_double,
)

__all__ = [
    "CoefficientSpec",
    "Design",
    "Dimensions",
    "FixedRule",
    "HittingRule",
    "NoisePaths",
    "ObstacleGrid",
    "ObstacleSpec",
    "PenalizationTrace",
    "PenaltySchedule",
    "RegressionConfig",
    "RegressionFit",
    "Scenario",
    "SignedPushes",
    "SolutionEnsemble",
    "SolveMeta",
    "TimeGrid",
    "ValidationReport",
    "apriori_statistic",
    "basis_labels",
    "build_basis",
    "check_comparison",
    "check_dK_comparison",
    "closed_form_reference",
    "condexp_fit_eval",
    "double_skorohod_residuals",
    "dp_self_check",
    "dp_stopping_value",
    "generate_paths",
    "implicit_double_step",
    "implicit_penalty_step",
    "obstacle_on_grid",
    "penetration_statistic",
    "pooled_se",
    "regression_se",
    "skorohod_residual",
    "skorohod_sup_formula",
    "solve_bdsde",
    "solve_double",
    "solve_penalized",
    "solve_projected",
    "solve_reflected",
    "stability_statistic",
    "stopping_rule_value",
    "validate_scenario",
]

__version__ = "0.1.0"
