"""The penalty ladder behind every reflected solver, and ``solve_double``,
which runs it on the barriers the scenario declares.

Each backward step of ``bdsde_solver.solve_backward`` solves
y = a + n_dt*(l - y)^+ - n_dt*(y - u)^+ in closed form (unique by
monotonicity), with one scalar rate n_dt = level * dt for both barriers and
every path.  An absent barrier is l = -inf or u = +inf and an infinite rate
is the projection onto its barrier, so the one-barrier penalized and
projected schemes are special cases of the same step.  The two barriers
share one penalty ladder; the iterated limit (inner lower, outer upper) is
collapsed onto one schedule, which preserves both monotone penetration
decays.  An upper barrier alone is the mirror of a lower one: under Y -> -Y
(xi -> -xi, f(y,z) -> -f(-y,-z), g(y,z) -> -g(-y,-z), L -> -U) the same
sweep gives -Y, -Z and K- = K+ exactly.  ``solve_double`` and
``reflect_one.solve_reflected`` are the same ladder call under two names.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .bdsde_solver import _checked_grid, solve_backward
# re-exported: the step is timed as part of this layer (perfbench/spans.py)
from .bdsde_solver import implicit_double_step  # noqa: F401
from .condexp import RegressionConfig
from .model import PenaltySchedule, Scenario, SolutionEnsemble
from .paths import NoisePaths, ObstacleGrid


@dataclass(frozen=True)
class LevelStat:
    """One level of a penalty ladder, which penalizes every barrier at the
    rate ``level``.  An absent barrier's penetration and mean K_T are zero."""

    level: float
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
    cfg: RegressionConfig | None,
    picard_iters: int,
    schedule: PenaltySchedule | None,
) -> tuple[SolutionEnsemble, PenalizationTrace]:
    """Solve level after level, at the same rate for every barrier the
    scenario declares, until each barrier's penetration reaches the
    tolerance of ``schedule``, by default the geometric ladder of the time
    grid.  Never aborts on exhaustion, it flags instead.  A scenario with no
    barrier is solved by one unreflected sweep, with no level.  A level
    keeps only its ``LevelStat``: its ensemble is released before the next
    level's sweep, so one ensemble is alive at a time.

    The levels share what does not depend on the level: the first sweep
    factors each step's design and the later ones reuse the factor (B + B^2
    numbers per step, released on return), and each sweep reports its
    penetration and gives K_T alone, so no (M, N+1) array is formed to
    measure a level."""
    cfg = cfg or RegressionConfig()
    grids = _checked_grid(s, p)
    if not grids.sides:
        return (solve_backward(s, p, cfg, picard_iters, grids),
                PenalizationTrace(levels=(), converged=True))
    schedule = schedule or PenaltySchedule.geometric(s.grid.dt)
    tol = schedule.penetration_tol

    factors: dict = {}  # step index -> that step's design factorization
    stats: list[LevelStat] = []
    converged = False
    for level in schedule.levels:
        sol = None  # the previous level's ensemble goes before this sweep
        sol = solve_backward(s, p, cfg, picard_iters, grids, level, factors=factors)
        stat = LevelStat(
            level=level, penetration_lower=sol.meta.penetration_lower,
            penetration_upper=sol.meta.penetration_upper,
            mean_k_plus_T=float(sol.k_terminal("lower").mean()),
            mean_k_minus_T=float(sol.k_terminal("upper").mean()),
        )
        stats.append(stat)
        if stat.penetration_lower <= tol and stat.penetration_upper <= tol:
            converged = True
            break

    return sol, PenalizationTrace(levels=tuple(stats), converged=converged)


def solve_double(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
    schedule: PenaltySchedule | None = None,
) -> tuple[SolutionEnsemble, PenalizationTrace]:
    """Solve with every barrier the scenario declares, none, one on either
    side or both: level k of one penalty ladder penalizes each of them at
    the same rate.  Without a barrier this is ``solve_bdsde`` with an empty
    trace.  The ensemble keeps the increments of ``p`` alive, to form Y
    and Z where they are read, and each read of Y evaluates the driver
    again: a ``hook`` driver must be a pure function.  The same call as
    ``solve_reflected``, kept under its own name."""
    return _run_ladder(s, p, cfg, picard_iters, schedule)


_RowWalk = namedtuple("_RowWalk", "flat_off sup_excess mean_sq_excess above_slack "
                                   "k_nondecreasing_from_zero mean_k")


def _walk_rows(y, k_rows, grid: ObstacleGrid | None = None, side: str = "lower",
               slack: float = np.inf) -> _RowWalk:
    """Walk the rows of Y, one side's K and that side's barrier in ``grid``
    once; ``k_rows`` gives K's time rows in order, as
    ``SolutionEnsemble.k_rows`` does.  Returns, per path, the flat-off sum
    sum_i -excess_i * dK_i and the largest positive excess; per grid time,
    the mean squared positive excess and K's mean; the count of excesses
    above ``slack``; and whether K starts at zero and never falls, the one
    check made without a barrier.  Sums run row after row, as numpy sums
    the time axis of the solver's time-major arrays."""
    y_rows = y.T
    rows, m = y_rows.shape
    flat, sup, mean_sq, mean_k, above = np.zeros(m), np.zeros(m), np.zeros(rows), np.zeros(rows), 0
    k_rows = iter(k_rows)
    k_now = next(k_rows)
    monotone = bool(np.all(k_now == 0.0))
    for i in range(rows):
        dk = None
        mean_k[i] = k_now.mean()
        if i + 1 < rows:
            k_next = next(k_rows)
            dk = k_next - k_now
            k_now = k_next
        monotone = monotone and (dk is None or bool(np.all(dk >= 0)))
        if grid is None:
            continue
        excess = grid.excess(side, y_rows[i], i)
        if dk is not None:
            flat += excess * dk
        above += np.count_nonzero(excess > slack)
        positive = np.maximum(excess, 0.0, out=excess)
        np.maximum(sup, positive, out=sup)
        mean_sq[i] = np.mean(np.square(positive, out=positive))
    return _RowWalk(np.negative(flat, out=flat), sup, mean_sq, above, monotone, mean_k)


def double_skorohod_residuals(
    sol: SolutionEnsemble, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path flat-off-the-barrier sums for both reflection processes:
    sum (Y - L) dK_plus and sum (U - Y) dK_minus."""
    y = sol.Y
    grid = ObstacleGrid(xi=y[:, -1], lower=lower, upper=upper)
    return tuple(_walk_rows(y, sol.k_rows(side), grid, side).flat_off
                 for side in ("lower", "upper"))
