"""The penalized, projected and reflected solvers, and the Skorohod-condition
machinery of the lower barrier.

The penalty is handled implicitly inside each backward step: the candidate
value a (continuation plus drift) is corrected by solving the scalar
piecewise-linear equation y = a + n*dt*(s - y)^+ in closed form, at one
rate n*dt for every path.  This keeps arbitrarily large penalty rates
usable; an explicit penalty in the driver would be stiff beyond n*dt ~ 1.
The step and the sweep are those of ``bdsde_solver`` and the ladder that of
``reflect_two``.  Like every solver but ``solve_bdsde``, these reflect on
every barrier the scenario declares, none, one on either side or both; they
differ only in their level policy: one finite level, the infinite level, or
the ladder.  The sup formula for K, like the stopping rules in ``oracles``,
is lower-barrier only and refuses an ensemble solved with an upper barrier.
"""
from __future__ import annotations

import numpy as np

from .bdsde_solver import (_checked_grid, _lower_only_grid, coefficient_steps, implicit_double_step,
                           solve_backward)
from .condexp import RegressionConfig
from .model import PenaltySchedule, Scenario, SolutionEnsemble
from .paths import NoisePaths, ObstacleGrid
from .reflect_two import PenalizationTrace, _run_ladder, _walk_rows


def implicit_penalty_step(a, s_val, n_dt):
    """Solve y = a + n_dt*(s_val - y)^+ exactly; returns (y, dK).

    a and s_val are scalars or broadcasting arrays, n_dt one number >= 0.
    dK = n_dt*(s_val - y)^+ = y - a, zero on the unconstrained branch
    a >= s_val.
    """
    y, dk, _ = implicit_double_step(a, s_val, np.inf, n_dt)
    return y, dk


def solve_penalized(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
    level: float = 1.0,
) -> SolutionEnsemble:
    """One backward sweep penalizing every declared barrier at the fixed
    rate ``level``; the per-step correction uses n_dt = level * dt.  The
    ensemble keeps the increments of ``p`` alive, to form Y and Z where
    they are read, and each read of Y evaluates the driver again: a
    ``hook`` driver must be a pure function."""
    return solve_backward(s, p, cfg or RegressionConfig(), picard_iters, _checked_grid(s, p), level)


def solve_projected(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
) -> SolutionEnsemble:
    """Infinite-penalty limit: per step Y_i = min(U_i, max(a, L_i)) over the
    declared barriers, and dK+ = (L_i - a)^+, dK- = (a - U_i)^+.  The
    ensemble keeps the increments of ``p`` alive, to form Y and Z where
    they are read, and each read of Y evaluates the driver again: a
    ``hook`` driver must be a pure function."""
    return solve_backward(s, p, cfg or RegressionConfig(), picard_iters, _checked_grid(s, p))


def penetration_statistic(sol: SolutionEnsemble, lower: np.ndarray) -> float:
    """Mean over paths of sup_i ((Y - S)^-)^2, the obstacle-violation measure
    driven to zero by the schedule.  Reads Y one time row at a time, from
    the horizon back, and the barrier, not K."""
    sup = np.zeros(sol.shape[0])
    for i, y, _ in sol.rows():
        np.maximum(sup, lower[:, i] - y, out=sup)
    return float(np.mean(sup ** 2))


def solve_reflected(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
    schedule: PenaltySchedule | None = None,
) -> tuple[SolutionEnsemble, PenalizationTrace]:
    """Run the penalty ladder until the penetration statistic reaches the
    schedule tolerance; never aborts on exhaustion, it flags instead.  The
    ensemble keeps the increments of ``p`` alive, to form Y and Z where
    they are read, and each read of Y evaluates the driver again: a
    ``hook`` driver must be a pure function.  The same call as
    ``reflect_two.solve_double``, kept under its own name."""
    return _run_ladder(s, p, cfg, picard_iters, schedule)


def skorohod_residual(sol: SolutionEnsemble, obstacle: np.ndarray) -> np.ndarray:
    """Per-path sum of (Y_i - S_i) * (K_{i+1} - K_i): the flat-off-the-barrier
    condition, zero up to the penalty slack once converged.  Reads Y one
    time row at a time."""
    # the walk reads the barrier alone, not the terminal values
    grid = ObstacleGrid(xi=None, lower=obstacle)
    return _walk_rows(sol, grid, ("lower",))["lower"].flat_off


def skorohod_sup_formula(sol: SolutionEnsemble, s: Scenario, p: NoisePaths) -> np.ndarray:
    """Reconstruct K_T - K_{t_i} from the running-supremum representation.

    Re-evaluates the driver and noise coefficient along the stored solution,
    forms the reflection-free tail x_u = xi + sum_{j>=u} (F dt + G.dB - Z.dW)
    and returns max_{v>=u} (x_v - S_v)^- for each path and grid index.  The
    terminal values and the barrier are those of the solver's obstacle grid.
    """
    m, n = s.mc_paths, s.grid.steps
    grids = _lower_only_grid(sol, "the ensemble's obstacle grid has no lower obstacle",
                             "the sup formula ignores K- of an upper obstacle")

    # step_j = F_{j+1} dt + G_{j+1} . dB_j - Z_j . dW_j, pathwise
    steps = coefficient_steps(sol.rows(), s, p, lag=1, martingale=True)

    tails = np.zeros((m, n + 1))
    tails[:, :n] = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1]
    shortfall = np.maximum(grids.excess("lower", grids.xi[:, None] + tails), 0.0)
    # running max of the shortfall from the right: sup over v >= u
    return np.maximum.accumulate(shortfall[:, ::-1], axis=1)[:, ::-1]
