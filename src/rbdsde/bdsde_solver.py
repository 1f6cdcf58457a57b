"""The backward sweep behind every solver, reflected or not.

One step of the recursion, from t_{i+1} down to t_i, evaluates the driver F
and noise coefficient G at the (i+1)-layer, then projects

    continuation  C_i = E_hat_i[ Y_{i+1} + G_{i+1} . dB_i ]
    gradient      Z_i = E_hat_i[ (Y_{i+1} + G_{i+1} . dB_i) dW_i ] / dt

onto the regression basis, and finally refines the drift contribution by a
short Picard iteration: Y_i = C_i + f(t_i, W_i, Y_i, Z_i) dt.  The step
ends with the implicit penalty correction on the barriers, which is the
identity when there are none.

Both projections are computed with martingale control variates: the gradient
target is centred by a rough continuation fit, and the continuation target
has its fitted martingale part Z_i . dW_i subtracted before the final fit.
The subtracted terms have zero conditional mean, so the estimated quantities
are unchanged, but the per-step Monte Carlo noise drops by over an order of
magnitude; without this the noise rectified by the reflection steps
accumulates into a visible upward bias on obstacle problems.

The regression state at t_i is (W_i, B_T - B_{t_i}).  The remaining backward
increment is known at t_i (B is observed from the terminal side), and keeping
the whole remaining increment in the basis lets the fitted Y carry the
accumulated backward stochastic integral from step to step; conditioning on
the single-step increment alone would re-project that component away at every
step and lose it at the rate sqrt(dt/T).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from .condexp import (
    RegressionConfig,
    _monomial,
    _monomial_exponents,
    basis_labels,
    build_basis,
    condexp_fit_eval,
)
from .model import CoefficientSpec, ObstacleSpec, Scenario, SolutionEnsemble, SolveMeta
from .paths import NoisePaths, ObstacleGrid, obstacle_on_grid

# Obstacle-shape columns appended to the regression design of reflected
# solvers: the obstacle value times the W monomials up to this degree.  With
# the kink of the barrier available in the span, the fit only has to capture
# the smooth time value on top of it; a pure polynomial basis misfits the
# barrier shape and the misfit is rectified into spurious reflection pushes
# at every step.  Constant-like barriers are skipped (already in the span).
OBSTACLE_BASIS_DEGREE = 2


class NonFiniteError(ValueError, RuntimeError):
    """The recursion overflowed to inf or nan.  A ValueError, so the CLI
    reports it with exit code 2; a RuntimeError for library callers."""


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


def _checked_grid(s: Scenario, p: NoisePaths, obstacles: ObstacleSpec) -> ObstacleGrid:
    """The obstacle grid of ``obstacles`` (the scenario's barriers, or a part
    of them that a solver reflects on) along the paths; raises if a per-path
    condition fails."""
    grids = obstacle_on_grid(replace(s, obstacles=obstacles), p)
    grids.check_flags()
    return grids


def _noise_matrix(spec, t, w, y, z, l: int) -> np.ndarray:
    out = spec.evaluate(t, w, y, z)
    if out.ndim == 1:
        return np.repeat(out[:, None], l, axis=1)
    if out.shape[1] != l:
        raise ValueError(f"noise coefficient returned {out.shape[1]} components, expected {l}")
    return out


def coefficient_steps(sol: SolutionEnsemble, s: Scenario, p: NoisePaths, lag: int) -> np.ndarray:
    """F dt + G . dB_j for each path and step j, with the driver F and the
    noise coefficient G re-evaluated along the solution at grid index
    j + lag (0 or 1); Z after the last step is taken as zero.  Returns M x N."""
    m, n = s.mc_paths, s.grid.steps
    times = s.grid.times
    steps = np.empty((m, n))
    for j in range(n):
        k = j + lag
        y, w = sol.Y[:, k], p.W_state[:, k, :]
        z = sol.Z[:, k, :] if k < n else np.zeros((m, s.dims.d))
        f = s.driver.evaluate(times[k], w, y, z)
        g = _noise_matrix(s.noise_coeff, times[k], w, y, z, s.dims.l)
        steps[:, j] = f * s.grid.dt + np.einsum("ml,ml->m", g, p.dB[:, j, :])
    return steps


def solve_backward(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig,
    picard_iters: int,
    grids: ObstacleGrid,
    m_level: float | None = None,
    n_level: float | None = None,
) -> SolutionEnsemble:
    """One backward sweep reflecting on the barriers present in ``grids`` at
    the lower (m) and upper (n) penalty levels per unit time; a level of None
    is the infinite rate, the projection.  With no barrier in ``grids`` the
    sweep solves the unreflected equation.  Non-constant barriers add their
    obstacle-shape columns to the design."""
    m, n = s.mc_paths, s.grid.steps
    d, l = s.dims.d, s.dims.l
    if p.dW.shape != (m, n, d) or p.dB.shape != (m, n, l):
        raise ValueError("dimension mismatch between scenario and paths")

    dt = s.grid.dt
    times = s.grid.times
    m_dt = np.inf if m_level is None else m_level * dt
    n_dt = np.inf if n_level is None else n_level * dt

    y_all = np.empty((m, n + 1))
    z_all = np.zeros((m, n, d))
    # the pushes of step i go to column i + 1 and are summed into K in place
    k_plus = np.zeros((m, n + 1))
    k_minus = np.zeros((m, n + 1))
    residual_rms = np.zeros((n, 2 + d))

    y_all[:, n] = grids.xi
    labels = basis_labels(cfg, d, l)
    b_terminal = p.B_state[:, n, :]

    basis_size = None
    for i in range(n - 1, -1, -1):
        t_next = times[i + 1]
        w_next = p.W_state[:, i + 1, :]
        y_next = y_all[:, i + 1]
        z_next = z_all[:, i + 1, :] if i + 1 < n else np.zeros((m, d))

        f_next = s.driver.evaluate(t_next, w_next, y_next, z_next)
        g_next = _noise_matrix(s.noise_coeff, t_next, w_next, y_next, z_next, l)
        continuation_target = y_next + np.einsum("ml,ml->m", g_next, p.dB[:, i, :])

        w_now = p.W_state[:, i, :]
        remaining_db = b_terminal - p.B_state[:, i, :]
        basis = build_basis(cfg, w_now, remaining_db)
        extras = (_obstacle_columns(s.obstacles.lower, grids.lower, w_now, i)
                  + _obstacle_columns(s.obstacles.upper, grids.upper, w_now, i))
        step_labels = labels
        if extras:
            basis = np.column_stack([basis, *extras])
            step_labels = labels + tuple(f"obs{k}" for k in range(len(extras)))
        basis_size = basis.shape[1]

        # Stage 1: rough continuation fit, reused as a centring control for
        # the gradient targets and to seed the drift refinement.
        rough, rough_fit = condexp_fit_eval(
            np.column_stack([continuation_target, f_next]),
            basis, ridge=cfg.ridge, labels=step_labels,
        )

        # Stage 2: Z from the centred increments; centring removes the
        # conditional mean, which otherwise dominates the target variance.
        z_targets = (continuation_target - rough[:, 0])[:, None] * p.dW[:, i, :]
        z_fitted, z_fit = condexp_fit_eval(z_targets, basis, ridge=cfg.ridge, labels=step_labels)
        z_all[:, i, :] = z_fitted / dt

        # Stage 3: final continuation with the martingale part Z.dW taken
        # out of the target (zero conditional mean, most of the variance).
        controlled = continuation_target - np.einsum("md,md->m", z_all[:, i, :], p.dW[:, i, :])
        continuation, cont_fit = condexp_fit_eval(controlled, basis, ridge=cfg.ridge, labels=step_labels)

        residual_rms[i, 0] = cont_fit.residual_norm[0] / np.sqrt(m)
        residual_rms[i, 1] = rough_fit.residual_norm[1] / np.sqrt(m)
        residual_rms[i, 2:] = z_fit.residual_norm / np.sqrt(m)

        y_val = continuation + rough[:, 1] * dt
        for _ in range(picard_iters):
            y_val = continuation + s.driver.evaluate(times[i], w_now, y_val, z_all[:, i, :]) * dt

        lower = -np.inf if grids.lower is None else grids.lower[:, i]
        upper = np.inf if grids.upper is None else grids.upper[:, i]
        y_val, dk_plus, dk_minus = implicit_double_step(y_val, lower, upper, m_dt, n_dt)
        # an absent side pushes nothing; skipping its strided column write saves a pass
        if grids.lower is not None:
            k_plus[:, i + 1] = dk_plus
        if grids.upper is not None:
            k_minus[:, i + 1] = dk_minus
        y_all[:, i] = y_val

        if not np.all(np.isfinite(y_val)):
            raise NonFiniteError(f"solver produced non-finite values at step {i}")

    np.cumsum(k_plus, axis=1, out=k_plus)
    np.cumsum(k_minus, axis=1, out=k_minus)

    if grids.lower is None and grids.upper is None:
        scheme = "plain"
    elif grids.upper is not None:
        scheme = "double"
    else:
        scheme = "projected" if m_level is None else "penalized"
    meta = SolveMeta(
        scheme=scheme,
        seed=p.seed,
        n_paths=m,
        basis_size=basis_size,
        picard_iters=picard_iters,
        regression=cfg,
        residual_rms=residual_rms,
        penalty_lower=m_level,
        penalty_upper=n_level,
    )
    return SolutionEnsemble(Y=y_all, Z=z_all, K_plus=k_plus, K_minus=k_minus, meta=meta,
                            obstacle_grid=grids)


def solve_bdsde(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
) -> SolutionEnsemble:
    """Solve the unreflected terminal-value equation; obstacles, if any, are
    ignored and both reflection processes come back identically zero."""
    return solve_backward(s, p, cfg or RegressionConfig(), picard_iters,
                          _checked_grid(s, p, ObstacleSpec()))
