"""The reflection step and the penalty ladder behind every reflected solver.

Each backward step solves y = a + m_dt*(l - y)^+ - n_dt*(y - u)^+ in closed
form (unique by monotonicity).  An absent barrier is l = -inf or u = +inf
and an infinite rate is the projection onto its barrier, so the one-barrier
penalized and projected schemes are special cases of the same step.  The two
penalty ladders advance jointly; the iterated limit (inner lower, outer
upper) is collapsed onto one geometric schedule, which preserves both
monotone penetration decays.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bdsde_solver import solve_backward
from .condexp import RegressionConfig, _monomial, _monomial_exponents
from .model import CoefficientSpec, PenaltySchedule, Scenario, SolutionEnsemble
from .paths import NoisePaths, ObstacleGrid, obstacle_on_grid

# Obstacle-shape columns appended to the regression design of reflected
# solvers: the obstacle value times the W monomials up to this degree.  With
# the kink of the barrier available in the span, the fit only has to capture
# the smooth time value on top of it; a pure polynomial basis misfits the
# barrier shape and the misfit is rectified into spurious reflection pushes
# at every step.  Constant-like barriers are skipped (already in the span).
OBSTACLE_BASIS_DEGREE = 2


def _obstacle_columns(spec: CoefficientSpec | None, values: np.ndarray | None,
                      w_now: np.ndarray, i: int) -> list[np.ndarray]:
    if values is None or spec.kind in ("zero", "constant"):
        return []
    return [values[:, i] * _monomial(w_now, exps)
            for exps in _monomial_exponents(w_now.shape[1], OBSTACLE_BASIS_DEGREE)]


def _toward(a, barrier, rate, hit):
    """``a`` with each entry in ``hit`` replaced by the solution of
    y = a + rate*(barrier - y): the rate-weighted mean of a and the barrier,
    or the barrier itself at an infinite rate."""
    infinite = np.isinf(rate)
    if np.all(infinite):
        return np.where(hit, barrier, a)
    if np.any(infinite):  # per-entry rates, some of them infinite
        return np.where(infinite, _toward(a, barrier, np.inf, hit),
                        _toward(a, barrier, np.where(infinite, 0.0, rate), hit))
    return np.where(hit, (a + rate * barrier) / (1.0 + rate), a)


def implicit_double_step(a, l_val, u_val, m_dt, n_dt):
    """Solve y = a + m_dt*(l_val - y)^+ - n_dt*(y - u_val)^+; returns
    (y, dK_plus, dK_minus).  At most one side is ever active, so the product
    dK_plus * dK_minus vanishes identically.

    An absent barrier is the scalar -inf (lower) or +inf (upper); no
    arithmetic is done for its side.  A rate of +inf projects onto its
    barrier.
    """
    a = np.asarray(a, dtype=float)
    l_arr = np.asarray(l_val, dtype=float)
    u_arr = np.asarray(u_val, dtype=float)
    has_lower = not (l_arr.ndim == 0 and l_arr == -np.inf)
    has_upper = not (u_arr.ndim == 0 and u_arr == np.inf)
    # an absent side cannot cross; skipping the test spares a strided grid pass
    if has_lower and has_upper and np.any(l_arr >= u_arr):
        raise ValueError("barrier crossing: l_val >= u_val")
    if np.any(np.asarray(m_dt) < 0) or np.any(np.asarray(n_dt) < 0):
        raise ValueError("penalty rates must be >= 0")

    # Each push is a difference of consecutive values, exactly zero where its
    # side did not act.  The sides are disjoint: y still equals a where a > u.
    y = a
    dk_plus = dk_minus = np.zeros_like(a)
    if has_lower:
        y = _toward(a, l_arr, m_dt, a < l_arr)
        dk_plus = y - a
    if has_upper:
        pushed = _toward(y, u_arr, n_dt, a > u_arr)
        dk_minus = y - pushed
        y = pushed
    if y.ndim == 0:
        return float(y), float(dk_plus), float(dk_minus)
    return y, dk_plus, dk_minus


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


def _solve_level(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig,
    picard_iters: int,
    grids: ObstacleGrid,
    scheme: str,
    m_level: float | None = None,
    n_level: float | None = None,
) -> SolutionEnsemble:
    """One backward sweep at the lower (m) and upper (n) penalty levels, per
    unit time; a level of None is the infinite rate.  Only the barriers
    present in ``grids`` reflect."""
    m_dt = np.inf if m_level is None else m_level * s.grid.dt
    n_dt = np.inf if n_level is None else n_level * s.grid.dt

    def reflector(i, a):
        lower = -np.inf if grids.lower is None else grids.lower[:, i]
        upper = np.inf if grids.upper is None else grids.upper[:, i]
        return implicit_double_step(a, lower, upper, m_dt, n_dt)

    def extra_columns(i):
        w_now = p.W_state[:, i, :]
        return (_obstacle_columns(s.obstacles.lower, grids.lower, w_now, i)
                + _obstacle_columns(s.obstacles.upper, grids.upper, w_now, i))

    return solve_backward(
        s, p, cfg, picard_iters, reflector, scheme=scheme, grids=grids,
        penalty_lower=m_level, penalty_upper=n_level, extra_columns=extra_columns,
    )


def _run_ladder(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig,
    picard_iters: int,
    grids: ObstacleGrid,
    scheme: str,
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
        sol = _solve_level(s, p, cfg, picard_iters, grids, scheme, m_level, n_level)
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
    grids = obstacle_on_grid(s, p)
    grids.check_flags()
    return _run_ladder(s, p, cfg or RegressionConfig(), picard_iters, grids, "double",
                       sched_m, sched_n or sched_m)


def double_skorohod_residuals(
    sol: SolutionEnsemble, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path flat-off-the-barrier sums for both reflection processes:
    sum (Y - L) dK_plus and sum (U - Y) dK_minus."""
    dk_plus = np.diff(sol.K_plus, axis=1)
    dk_minus = np.diff(sol.K_minus, axis=1)
    lower_res = np.sum((sol.Y[:, :-1] - lower[:, :-1]) * dk_plus, axis=1)
    upper_res = np.sum((upper[:, :-1] - sol.Y[:, :-1]) * dk_minus, axis=1)
    return lower_res, upper_res
