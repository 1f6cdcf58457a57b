"""One-barrier reflected solver via penalization, the projection limit
scheme, and the Skorohod-condition machinery.

The penalty is handled implicitly inside each backward step: the candidate
value a (continuation plus drift) is corrected by solving the scalar
piecewise-linear equation y = a + n*dt*(s - y)^+ in closed form.  This keeps
arbitrarily large penalty rates usable; an explicit penalty in the driver
would be stiff beyond n*dt ~ 1.  The step and the sweep are those of
``bdsde_solver`` and the ladder that of ``reflect_two``, with the upper
barrier at +inf.
"""
from __future__ import annotations

import numpy as np

from .bdsde_solver import _checked_grid, coefficient_steps, implicit_double_step, solve_backward
from .condexp import RegressionConfig
from .model import ObstacleSpec, PenaltySchedule, Scenario, SolutionEnsemble
from .paths import NoisePaths, ObstacleGrid
from .reflect_two import PenalizationTrace, _flat_off_barrier, _penetration, _run_ladder


def implicit_penalty_step(a, s_val, n_dt):
    """Solve y = a + n_dt*(s_val - y)^+ exactly; returns (y, dK).

    Scalars or broadcasting arrays.  dK = n_dt*(s_val - y)^+ = y - a, zero on
    the unconstrained branch a >= s_val.
    """
    y, dk, _ = implicit_double_step(a, s_val, np.inf, n_dt, 0.0)
    return y, dk


def _lower_grid(s: Scenario, p: NoisePaths) -> ObstacleGrid:
    """The obstacle grid without any upper barrier, which the one-barrier
    solvers ignore; raises if the lower barrier or its conditions fail."""
    if not s.obstacles.has_lower:
        raise ValueError("configuration error: scenario has no lower obstacle")
    return _checked_grid(s, p, ObstacleSpec(lower=s.obstacles.lower))


def solve_penalized(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
    level: float = 1.0,
) -> SolutionEnsemble:
    """One backward sweep at a fixed penalty rate ``level``; the per-step
    correction uses n_dt = level * dt."""
    return solve_backward(s, p, cfg or RegressionConfig(), picard_iters, _lower_grid(s, p),
                          m_level=level)


def solve_projected(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
) -> SolutionEnsemble:
    """Infinite-penalty limit: per step Y_i = max(a, S_i), dK = (S_i - a)^+."""
    return solve_backward(s, p, cfg or RegressionConfig(), picard_iters, _lower_grid(s, p))


def penetration_statistic(sol: SolutionEnsemble, lower: np.ndarray) -> float:
    """Mean over paths of sup_i ((Y - S)^-)^2, the obstacle-violation measure
    driven to zero by the schedule."""
    return _penetration(lower - sol.Y)


def solve_reflected(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
    schedule: PenaltySchedule | None = None,
) -> tuple[SolutionEnsemble, PenalizationTrace]:
    """Run the penalty ladder until the penetration statistic reaches the
    schedule tolerance; never aborts on exhaustion, it flags instead."""
    schedule = schedule or PenaltySchedule.geometric(s.grid.dt)
    return _run_ladder(s, p, cfg or RegressionConfig(), picard_iters, _lower_grid(s, p),
                       schedule, schedule)


def skorohod_residual(sol: SolutionEnsemble, obstacle: np.ndarray) -> np.ndarray:
    """Per-path sum of (Y_i - S_i) * (K_{i+1} - K_i): the flat-off-the-barrier
    condition, zero up to the penalty slack once converged."""
    return _flat_off_barrier(sol.Y, obstacle, sol.K_plus)


def skorohod_sup_formula(sol: SolutionEnsemble, s: Scenario, p: NoisePaths) -> np.ndarray:
    """Reconstruct K_T - K_{t_i} from the running-supremum representation.

    Re-evaluates the driver and noise coefficient along the stored solution,
    forms the reflection-free tail x_u = xi + sum_{j>=u} (F dt + G.dB - Z.dW)
    and returns max_{v>=u} (x_v - S_v)^- for each path and grid index.
    """
    m, n = s.mc_paths, s.grid.steps
    grids = _lower_grid(s, p)

    # step_j = F_{j+1} dt + G_{j+1} . dB_j - Z_j . dW_j, pathwise
    steps = coefficient_steps(sol, s, p, lag=1) - np.einsum("mnd,mnd->mn", sol.Z, p.dW)

    tails = np.zeros((m, n + 1))
    tails[:, :n] = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1]
    shortfall = np.maximum(grids.lower - (grids.xi[:, None] + tails), 0.0)
    # running max of the shortfall from the right: sup over v >= u
    return np.maximum.accumulate(shortfall[:, ::-1], axis=1)[:, ::-1]
