"""Backward time-stepping solver for the unreflected equation.

One step of the recursion, from t_{i+1} down to t_i, evaluates the driver F
and noise coefficient G at the (i+1)-layer, then projects

    continuation  C_i = E_hat_i[ Y_{i+1} + G_{i+1} . dB_i ]
    gradient      Z_i = E_hat_i[ (Y_{i+1} + G_{i+1} . dB_i) dW_i ] / dt

onto the regression basis, and finally refines the drift contribution by a
short Picard iteration: Y_i = C_i + f(t_i, W_i, Y_i, Z_i) dt.

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

from typing import Callable

import numpy as np

from .condexp import RegressionConfig, basis_labels, build_basis, condexp_fit_eval
from .model import Scenario, SolutionEnsemble, SolveMeta
from .paths import NoisePaths, ObstacleGrid, obstacle_on_grid

# reflector(i, a) -> (y, dK_plus_step, dK_minus_step), all (M,)
Reflector = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]

# extra_columns(i) -> list of (M,) design columns appended to the basis
ExtraColumns = Callable[[int], list[np.ndarray]]


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
    reflector: Reflector | None,
    scheme: str,
    grids: ObstacleGrid | None = None,
    penalty_lower: float | None = None,
    penalty_upper: float | None = None,
    extra_columns: ExtraColumns | None = None,
) -> SolutionEnsemble:
    """Shared backward recursion; the reflector hook injects the per-step
    obstacle treatment (identity for the plain equation) and extra_columns
    lets reflected solvers enrich the design matrix with obstacle shapes."""
    m, n = s.mc_paths, s.grid.steps
    d, l = s.dims.d, s.dims.l
    if p.dW.shape != (m, n, d) or p.dB.shape != (m, n, l):
        raise ValueError("dimension mismatch between scenario and paths")

    dt = s.grid.dt
    times = s.grid.times
    if grids is None:
        grids = obstacle_on_grid(s, p)

    y_all = np.empty((m, n + 1))
    z_all = np.zeros((m, n, d))
    dk_plus = np.zeros((m, n))
    dk_minus = np.zeros((m, n))
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
        step_labels = labels
        if extra_columns is not None:
            extras = extra_columns(i)
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

        if reflector is not None:
            y_val, step_plus, step_minus = reflector(i, y_val)
            dk_plus[:, i] = step_plus
            dk_minus[:, i] = step_minus
        y_all[:, i] = y_val

        if not np.all(np.isfinite(y_val)):
            raise RuntimeError(f"solver produced non-finite values at step {i}")

    k_plus = np.zeros((m, n + 1))
    k_minus = np.zeros((m, n + 1))
    np.cumsum(dk_plus, axis=1, out=k_plus[:, 1:])
    np.cumsum(dk_minus, axis=1, out=k_minus[:, 1:])

    meta = SolveMeta(
        scheme=scheme,
        seed=p.seed,
        n_paths=m,
        basis_size=basis_size,
        picard_iters=picard_iters,
        regression=cfg,
        residual_rms=residual_rms,
        penalty_lower=penalty_lower,
        penalty_upper=penalty_upper,
    )
    return SolutionEnsemble(Y=y_all, Z=z_all, K_plus=k_plus, K_minus=k_minus, meta=meta)


def solve_bdsde(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
) -> SolutionEnsemble:
    """Solve the unreflected terminal-value equation; obstacles, if any, are
    ignored and both reflection processes come back identically zero."""
    cfg = cfg or RegressionConfig()
    return solve_backward(s, p, cfg, picard_iters, reflector=None, scheme="plain")
