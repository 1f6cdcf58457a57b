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


# C, how far the decay law may over-estimate a level's penetration: it
# read 2.2-3.2 times the measured one on a one-barrier ladder from level 50
_LAW_SLACK = 4.0


def _next_level(levels: tuple[float, ...], k: int, penetrations: tuple[float, ...],
                tol: float, dt: float) -> int:
    """The index of the level to run after ``levels[k]``, whose sweep left
    ``penetrations`` above ``tol`` (the rule is ``_run_ladder``'s).  The
    step leaves a path whose candidate a lies beyond its barrier
    (L - a) / (1 + r) short of it, so for fixed candidates the penetration
    scales by ((1 + r_k) / (1 + r_j))^2 from level k to level j.  Higher
    levels also move the candidates towards the barrier, so the measured
    decay is faster and the law over-estimates."""
    if tol > 0:
        for j in range(k + 1, len(levels)):
            decay = ((1 + levels[k] * dt) / (1 + levels[j] * dt)) ** 2
            if all(pen * decay <= _LAW_SLACK * tol for pen in penetrations):
                return j
    return k + 1


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

    Only the levels that can converge run.  After a level that has not
    converged, the ladder runs the first later level whose penetration the
    decay law of the implicit step, ((1 + r_k) / (1 + r_j))^2 with
    r = level * dt, predicts at or below C = 4 times the tolerance on every
    side (``_next_level``), else the next level.  The trace lists the levels
    run, and a tolerance of 0 runs every level.  Convergence is decided on
    the measured penetration, so the result comes from the first level that
    converges, or from a later one, closer to the reflected limit, when the
    law's over-estimate exceeds C at that first level.  The sweep of a level
    reads nothing of the earlier levels but the design factors, so its
    ensemble is bit for bit that of ``solve_penalized`` at its level.

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
    levels, k = schedule.levels, 0
    while k < len(levels):
        level = levels[k]
        sol = None  # the previous level's ensemble goes before this sweep
        sol = solve_backward(s, p, cfg, picard_iters, grids, level, factors=factors)
        stat = LevelStat(
            level=level, penetration_lower=sol.meta.penetration_lower,
            penetration_upper=sol.meta.penetration_upper,
            mean_k_plus_T=float(sol.k_terminal("lower").mean()),
            mean_k_minus_T=float(sol.k_terminal("upper").mean()),
        )
        stats.append(stat)
        penetrations = (stat.penetration_lower, stat.penetration_upper)
        if all(pen <= tol for pen in penetrations):
            converged = True
            break
        k = _next_level(levels, k, penetrations, tol, s.grid.dt)

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


_RowWalk = namedtuple("_RowWalk", "flat_off mean_sq_excess above_slack "
                                   "k_nondecreasing_from_zero mean_k")


def _walk_rows(sol: SolutionEnsemble, grid: ObstacleGrid,
               sides: tuple[str, ...] = ("lower", "upper"), slack: float = np.inf,
               on_row=None) -> dict[str, _RowWalk]:
    """Check each of ``sides``: K, and the barrier on that side in ``grid``
    if it has one, along ``sol``.  Per side, returns per path the flat-off
    sum sum_i -excess_i * dK_i; per grid time the mean squared positive
    excess and K's mean; the count of excesses above ``slack``; and whether
    K starts at zero and never falls, the one check made without a barrier.

    Two passes, neither of which holds a whole Y.  Each step's pushed
    paths are unpacked from the store once, for both.  The backward pass
    walks ``sol.rows()`` once, from the horizon back, and hands each
    (i, Y_i, Z_i) to ``on_row``, if given; it runs only for a barrier or a
    hook.  Of step i's excess it keeps the paths step i pushed.  The
    forward pass walks each side's ``k_rows`` over those paths and adds
    excess_i * (K_{i+1} - K_i) at those of the paths where that side's K
    moved, row after row, as numpy sums the time axis of a time-major array.
    Elsewhere the dense product is +-0.0, which leaves a sum that starts at
    +0.0 with its bits, or NaN, where a barrier given as -inf or +inf has
    an infinite excess."""
    m, n_plus_1 = sol.shape
    checked = [side for side in sides if side in grid.sides]
    mean_sq = {side: np.zeros(n_plus_1) for side in sides}
    above = dict.fromkeys(sides, 0)
    # per step i: the paths it pushed, and each checked side's excess there
    pushed = ([sol.pushes.paths(i) for i in range(n_plus_1 - 1)] if sol.pushes is not None
              else [np.empty(0, dtype=np.intp)] * (n_plus_1 - 1))
    kept = {side: [np.empty(0)] * (n_plus_1 - 1) for side in checked}
    if checked or on_row is not None:
        for i, y, z in sol.rows():
            if on_row is not None:
                on_row(i, y, z)
            for side in checked:
                excess = grid.excess(side, y, i)
                if i < n_plus_1 - 1:
                    kept[side][i] = excess[pushed[i]]
                above[side] += np.count_nonzero(excess > slack)
                positive = np.maximum(excess, 0.0, out=excess)
                mean_sq[side][i] = np.mean(np.square(positive, out=positive))

    walks = {}
    for side in sides:
        flat, mean_k = np.zeros(m), np.zeros(n_plus_1)
        k_rows = sol.k_rows(side, pushed)
        k_now = next(k_rows).copy()  # the next row overwrites the one yielded
        monotone = bool(np.all(k_now == 0.0))
        for i in range(n_plus_1 - 1):
            mean_k[i] = k_now.mean()
            k_next = next(k_rows)
            dk = k_next - k_now
            k_now[...] = k_next
            monotone = monotone and bool(np.all(dk >= 0))
            if side in kept:
                on = dk[pushed[i]] != 0.0
                paths = pushed[i][on]
                flat[paths] += kept[side][i][on] * dk[paths]
        mean_k[-1] = k_now.mean()
        walks[side] = _RowWalk(np.negative(flat, out=flat), mean_sq[side], above[side],
                               monotone, mean_k)
    return walks


def double_skorohod_residuals(
    sol: SolutionEnsemble, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path flat-off-the-barrier sums for both reflection processes:
    sum (Y - L) dK_plus and sum (U - Y) dK_minus, from one walk of the
    rows of Y."""
    # the walk reads the barriers alone, not the terminal values
    walks = _walk_rows(sol, ObstacleGrid(xi=None, lower=lower, upper=upper))
    return walks["lower"].flat_off, walks["upper"].flat_off
