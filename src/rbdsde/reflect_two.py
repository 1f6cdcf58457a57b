"""The penalty ladder behind every reflected solver, and the two-barrier
entry point.

Each backward step of ``bdsde_solver.solve_backward`` solves
y = a + m_dt*(l - y)^+ - n_dt*(y - u)^+ in closed form (unique by
monotonicity).  An absent barrier is l = -inf or u = +inf and an infinite
rate is the projection onto its barrier, so the one-barrier penalized and
projected schemes are special cases of the same step.  The two penalty
ladders advance jointly; the iterated limit (inner lower, outer upper) is
collapsed onto one geometric schedule, which preserves both monotone
penetration decays.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bdsde_solver import _checked_grid, solve_backward
# re-exported: the step is timed as part of this layer (perfbench/spans.py)
from .bdsde_solver import implicit_double_step  # noqa: F401
from .condexp import RegressionConfig
from .model import PenaltySchedule, Scenario, SolutionEnsemble
from .paths import NoisePaths, ObstacleGrid

def _penetration(excess: np.ndarray) -> float:
    """Mean over paths of sup_i ((excess)^+)^2."""
    return float(np.mean(np.max(np.maximum(excess, 0.0), axis=1) ** 2))


@dataclass(frozen=True)
class LevelStat:
    """One level of a penalty ladder.  A one-barrier ladder has no upper
    level; its upper penetration and mean K-_T are zero."""

    level_lower: float
    level_upper: float | None
    penetration_lower: float
    penetration_upper: float
    mean_k_plus_T: float
    mean_k_minus_T: float


@dataclass(frozen=True)
class PenalizationTrace:
    levels: tuple[LevelStat, ...]
    converged: bool


def _run_ladder(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig,
    picard_iters: int,
    grids: ObstacleGrid,
    sched_m: PenaltySchedule,
    sched_n: PenaltySchedule,
) -> tuple[SolutionEnsemble, PenalizationTrace]:
    """Solve level after level until the penetration of every barrier in
    ``grids`` reaches its schedule's tolerance.  A shorter ladder clamps at
    its last level while the longer one keeps growing.  Never aborts on
    exhaustion, it flags instead."""
    m_levels = sched_m.active_levels()
    n_levels = sched_n.active_levels()
    two = grids.upper is not None

    stats: list[LevelStat] = []
    converged = False
    for k in range(max(len(m_levels), len(n_levels))):
        m_level = m_levels[min(k, len(m_levels) - 1)]
        n_level = n_levels[min(k, len(n_levels) - 1)] if two else None
        sol = solve_backward(s, p, cfg, picard_iters, grids, m_level, n_level)
        stat = LevelStat(
            level_lower=m_level, level_upper=n_level,
            penetration_lower=_penetration(grids.lower - sol.Y),
            penetration_upper=_penetration(sol.Y - grids.upper) if two else 0.0,
            mean_k_plus_T=float(sol.K_plus[:, -1].mean()),
            mean_k_minus_T=float(sol.K_minus[:, -1].mean()),
        )
        stats.append(stat)
        if (stat.penetration_lower <= sched_m.penetration_tol
                and stat.penetration_upper <= sched_n.penetration_tol):
            converged = True
            break

    sol = replace(sol, meta=replace(sol.meta, converged=converged))
    return sol, PenalizationTrace(levels=tuple(stats), converged=converged)


def solve_double(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
    sched_m: PenaltySchedule | None = None,
    sched_n: PenaltySchedule | None = None,
) -> tuple[SolutionEnsemble, PenalizationTrace]:
    """Advance the lower (m) and upper (n) penalty ladders jointly."""
    if not (s.obstacles.has_lower and s.obstacles.has_upper):
        raise ValueError("configuration error: double reflection needs both barriers")
    sched_m = sched_m or PenaltySchedule.geometric(s.grid.dt)
    return _run_ladder(s, p, cfg or RegressionConfig(), picard_iters,
                       _checked_grid(s, p, s.obstacles), sched_m, sched_n or sched_m)


def _flat_off_barrier(high: np.ndarray, low: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Per-path sum of (high_i - low_i) * (k_{i+1} - k_i): zero when the
    reflection process k only grows where the solution meets its barrier."""
    return np.sum((high[:, :-1] - low[:, :-1]) * np.diff(k, axis=1), axis=1)


def double_skorohod_residuals(
    sol: SolutionEnsemble, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path flat-off-the-barrier sums for both reflection processes:
    sum (Y - L) dK_plus and sum (U - Y) dK_minus."""
    return (_flat_off_barrier(sol.Y, lower, sol.K_plus),
            _flat_off_barrier(upper, sol.Y, sol.K_minus))
