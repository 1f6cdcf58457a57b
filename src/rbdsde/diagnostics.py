"""Executable structural checks over solution ensembles: pathwise comparison,
reflection-increment comparison, the a priori energy statistic, and the
terminal-perturbation stability statistic.

Tolerances derive from pooled regression standard errors recomputed per run;
no absolute constants are hard-coded because the underlying bounds hold with
unknown multiplicative constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdsde_solver import _check_solved_on, _noise_matrix
from .condexp import RegressionConfig
from .model import Scenario, SolutionEnsemble
from .paths import NoisePaths
from .reflect_one import solve_projected
from .scenarios import shift_terminal


def regression_se(sol: SolutionEnsemble) -> float:
    """Pooled standard error of the fitted continuation values: per-step
    residual RMS scaled by sqrt(B/M), accumulated in variance across steps."""
    meta = sol.meta
    per_step_var = meta.residual_rms[:, 0] ** 2 * meta.basis_size / meta.n_paths
    return float(math.sqrt(per_step_var.sum()))


def pooled_se(*sols: SolutionEnsemble) -> float:
    return float(math.sqrt(sum(regression_se(s) ** 2 for s in sols)))


def z_se_per_step(sol: SolutionEnsemble, dt: float) -> np.ndarray:
    """Per-step standard error of the fitted Z components, (N, d)."""
    meta = sol.meta
    return meta.residual_rms[:, 2:] * math.sqrt(meta.basis_size / meta.n_paths) / dt


def _comparison_epsilon(sol_a: SolutionEnsemble, sol_b: SolutionEnsemble) -> float:
    """The tolerance of a comparison, 3 pooled standard errors; raises
    unless the two ensembles have one shape and one seed."""
    if sol_a.shape != sol_b.shape:
        raise ValueError("mismatched shapes between the two ensembles")
    if sol_a.meta.seed != sol_b.meta.seed:
        raise ValueError("ensembles come from different seeds, not shared paths")
    return 3.0 * pooled_se(sol_a, sol_b)


@dataclass(frozen=True)
class ComparisonResult:
    violation_fraction: float
    epsilon: float
    passed: bool


def check_comparison(
    sol_a: SolutionEnsemble,
    sol_b: SolutionEnsemble,
    shared_paths: NoisePaths,
) -> ComparisonResult:
    """Fraction of grid points where the solution of the dominated data set
    exceeds the dominating one beyond epsilon, 3 pooled standard errors;
    passes at <= 1%.  Y is read one time row at a time, both ensembles'
    rows side by side.  Both must have been solved on ``shared_paths``."""
    epsilon = _comparison_epsilon(sol_a, sol_b)
    _check_solved_on(sol_a, shared_paths)
    m, n_plus_1 = sol_a.shape
    above = sum(np.count_nonzero(y_a > y_b + epsilon)
                for (_, y_a, _), (_, y_b, _) in zip(sol_a.rows(), sol_b.rows()))
    fraction = float(above / (m * n_plus_1))
    return ComparisonResult(violation_fraction=fraction, epsilon=epsilon, passed=fraction <= 0.01)


def check_dK_comparison(
    sol_a: SolutionEnsemble,
    sol_b: SolutionEnsemble,
    side: str = "lower",
) -> ComparisonResult:
    """With a shared barrier on ``side``, the dominated solution A is pushed
    up at least as much by a lower barrier, dK+_A >= dK+_B - epsilon, and
    down no more by an upper one, dK-_A <= dK-_B + epsilon, on at least 99%
    of steps, with epsilon 3 pooled standard errors.  The ensembles must
    come from the same seed.  K is read one time row at a time."""
    epsilon = _comparison_epsilon(sol_a, sol_b)
    # the pushes of step j as K_{j+1} - K_j, from K's rows read in turn;
    # each next row overwrites the one before, so that is kept as a copy
    rows = zip(sol_a.k_rows(side), sol_b.k_rows(side))
    k_a, k_b = (row.copy() for row in next(rows))
    wrong = 0
    for next_a, next_b in rows:
        dk_a, dk_b = next_a - k_a, next_b - k_b
        wrong += np.count_nonzero(dk_a < dk_b - epsilon if side == "lower" else dk_a > dk_b + epsilon)
        k_a[...], k_b[...] = next_a, next_b
    m, n_plus_1 = sol_a.shape
    fraction = float(wrong / (m * (n_plus_1 - 1)))
    return ComparisonResult(violation_fraction=fraction, epsilon=epsilon, passed=fraction <= 0.01)


@dataclass(frozen=True)
class AprioriStatistic:
    lhs: float
    rhs_data: float

    @property
    def ratio(self) -> float:
        return self.lhs / max(self.rhs_data, 1e-12)


def apriori_statistic(sol: SolutionEnsemble, s: Scenario) -> AprioriStatistic:
    """Solution energy against the data energy: the bound between them holds
    with an unknown constant, so suites assert ratio stability, not a value.
    The terminal and barrier data are read from the solver's obstacle grid,
    and every barrier in it adds its term to the data energy.  Y, Z and
    the barriers are read one time row at a time, from the horizon back,
    and of K only K_T is formed."""
    grids = sol.obstacle_grid
    if grids is None:
        raise ValueError("the a priori statistic needs a solver's obstacle grid")
    dt = s.grid.dt
    times = s.grid.times
    m = s.mc_paths

    # per path: sup Y^2, sum |Z|^2 and, for each barrier, the sup of the
    # excess of the zero process beyond it, (L^+) below and (U^-) above
    sup_y_sq, z_sq = np.zeros(m), np.zeros(m)
    sup_excess = {side: np.zeros(m) for side in grids.sides}
    for i, y, z in sol.rows():
        np.maximum(sup_y_sq, np.square(y), out=sup_y_sq)
        if z is not None:
            z_sq += np.sum(np.square(z), axis=1)
        for side, sup in sup_excess.items():
            np.maximum(sup, grids.excess(side, 0.0, i), out=sup)

    k_total = sol.k_terminal("lower") + sol.k_terminal("upper")
    lhs = float(np.mean(sup_y_sq + z_sq * dt + k_total**2))

    zero_w = np.zeros((1, s.dims.d))
    zero_y = np.zeros(1)
    zero_z = np.zeros((1, s.dims.d))
    f0_sq = sum(float(s.driver.evaluate(times[i], zero_w, zero_y, zero_z)[0]) ** 2
                for i in range(s.grid.steps)) * dt
    # G read as the sweep reads it: one value per path is shared by the l
    # components, so each of them adds its square
    g0_sq = 0.0
    for i in range(s.grid.steps):
        g0 = _noise_matrix(s.noise_coeff, times[i], zero_w, zero_y, zero_z, s.dims.l)
        g0_sq += float(np.sum(g0[0] ** 2)) * dt

    # sup (L^+)^2 + sup (U^-)^2
    obstacle_part = sum((sup**2 for sup in sup_excess.values()), np.zeros(m))
    rhs = float(np.mean(grids.xi**2 + f0_sq + g0_sq + obstacle_part))
    return AprioriStatistic(lhs=lhs, rhs_data=rhs)


def stability_statistic(
    s: Scenario,
    delta: float,
    shared_paths: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
) -> float:
    """E[sup_i (Y_i - Y'_i)^2] between the base scenario and its terminal
    perturbation xi + delta, each solved on the same noise by
    ``solve_projected``, which reflects on every barrier the scenario
    declares; raises if either data set fails a per-path condition.  Y is
    read one time row at a time, both ensembles' rows side by side."""
    base_sol, pert_sol = (solve_projected(sc, shared_paths, cfg, picard_iters)
                          for sc in (s, shift_terminal(s, delta)))
    sup = np.zeros(base_sol.shape[0])
    for (_, y_base, _), (_, y_pert, _) in zip(base_sol.rows(), pert_sol.rows()):
        np.maximum(sup, np.square(y_pert - y_base), out=sup)
    return float(np.mean(sup))
