"""The backward sweep behind every solver, reflected or not.

One step of the recursion, from t_{i+1} down to t_i, evaluates the driver F
and noise coefficient G at the (i+1)-layer, then projects

    continuation  C_i = E_hat_i[ Y_{i+1} + G_{i+1} . dB_i ]
    gradient      Z_i = E_hat_i[ (Y_{i+1} + G_{i+1} . dB_i) dW_i ] / dt

onto the regression basis, and finally refines the drift contribution by a
short Picard iteration: Y_i = C_i + f(t_i, W_i, Y_i, Z_i) dt.  The step
ends with the implicit penalty correction at one scalar rate, the sweep's
level times dt, for every barrier and path: the projection at an infinite
level, the identity with no barrier.
A solve reflects on every barrier its scenario declares, which
``_checked_grid`` evaluates and checks; ``solve_bdsde``, which ignores
barriers, solves the scenario with its barriers removed.

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

from .condexp import Design, RegressionConfig, build_basis, condexp_fit_eval
from .model import ObstacleSpec, Scenario, SolutionEnsemble, SolveMeta
from .paths import NoisePaths, ObstacleGrid, obstacle_on_grid
from .pushes import SignedPushes


class NonFiniteError(ValueError, RuntimeError):
    """The recursion overflowed to inf or nan.  A ValueError, so the CLI
    reports it with exit code 2; a RuntimeError for library callers."""


def _reflect(y, lower, upper, rate):
    """The implicit step in place on a row of paths: ``y`` holds the
    candidate a on entry and the solution of
    y = a + rate*(lower - y)^+ - rate*(y - upper)^+ on return.  Returns the
    step's pushes as the sweep stores them (``SignedPushes.put``): the
    contact mask, the paths beyond a barrier, and their signed pushes y - a
    in path order, positive below the lower barrier and negative above the
    upper one.

    Only the paths in contact are computed and written: y is the
    rate-weighted mean (a + rate*barrier) / (1 + rate), or the barrier
    itself at an infinite rate.  A push never points away from its barrier:
    where the mean rounds past the candidate, y stays at a and the push is
    zero.  An absent barrier is None and nothing is done for its side.  The
    barriers must not cross and the rate must be one number >= 0 (not
    checked)."""
    # both sides find their paths from the candidate, before y changes
    below = None if lower is None else y < lower
    above = None if upper is None else y > upper
    hits, pushes = [], []
    for beyond, barrier, toward in ((below, lower, np.maximum), (above, upper, np.minimum)):
        if beyond is None:
            continue
        hit = np.flatnonzero(beyond)
        a, target = y[hit], barrier[hit]
        pushed = target if np.isinf(rate) else toward((a + rate * target) / (1.0 + rate), a)
        y[hit] = pushed
        hits.append(hit)
        # into the candidates' buffer: a fresh array per step, kept by the
        # store among the step's freed temporaries, raised the ladder's peak
        pushes.append(np.subtract(pushed, a, out=a))
    if not hits:
        return np.zeros(y.size, dtype=bool), np.empty(0)
    if len(hits) == 1:
        return (below if above is None else above), pushes[0]
    # the sides' paths are disjoint and each in order: a stable sort merges them
    order = np.argsort(np.concatenate(hits), kind="stable")
    return below | above, np.concatenate(pushes)[order]


def implicit_double_step(a, l_val, u_val, n_dt):
    """Solve y = a + n_dt*(l_val - y)^+ - n_dt*(y - u_val)^+; returns
    (y, dK_plus, dK_minus), the positive and negative parts of the one
    signed push y - a.  At most one side is ever active, so the product
    dK_plus * dK_minus vanishes identically.

    a and the barriers are scalars or broadcasting arrays; the rate n_dt is
    one number >= 0 for both barriers, and +inf projects onto them.  An
    absent barrier is the scalar -inf (lower) or +inf (upper); no
    arithmetic is done for its side.  The sweep runs the same in-place
    step, ``_reflect``, without the checks made here, and stores the signed
    pushes of the paths in contact, with their contact mask, in its
    ``SignedPushes``; a push that would round past the candidate is zero.
    """
    if np.ndim(n_dt) != 0 or not n_dt >= 0:  # NaN fails too
        raise ValueError(f"the penalty rate must be one number >= 0, got {n_dt!r}")
    a = np.asarray(a, dtype=float)
    l_arr = np.asarray(l_val, dtype=float)
    u_arr = np.asarray(u_val, dtype=float)
    has_lower = not (l_arr.ndim == 0 and l_arr == -np.inf)
    has_upper = not (u_arr.ndim == 0 and u_arr == np.inf)
    # an absent side cannot cross, so only two barriers are tested
    if has_lower and has_upper and np.any(l_arr >= u_arr):
        raise ValueError("barrier crossing: l_val >= u_val")

    shape = np.broadcast_shapes(a.shape, l_arr.shape, u_arr.shape)

    def row(x):
        return np.broadcast_to(x, shape).ravel()

    y = row(a).copy()
    contact, push = _reflect(y, row(l_arr) if has_lower else None,
                             row(u_arr) if has_upper else None, float(n_dt))
    dk = np.zeros(y.size)
    dk[contact] = push
    dk_plus, dk_minus = np.maximum(dk, 0.0), np.maximum(-dk, 0.0)
    if not shape:
        return float(y[0]), float(dk_plus[0]), float(dk_minus[0])
    return y.reshape(shape), dk_plus.reshape(shape), dk_minus.reshape(shape)


def _checked_grid(s: Scenario, p: NoisePaths) -> ObstacleGrid:
    """The obstacle grid of every barrier the scenario declares, along the
    paths; raises ConfigError if a per-path condition fails."""
    grids = obstacle_on_grid(s, p)
    grids.check_flags()
    return grids


def _lower_only_grid(sol: SolutionEnsemble, no_lower: str, upper: str) -> ObstacleGrid:
    """The obstacle grid of an ensemble solved with a lower barrier alone."""
    sides = () if sol.obstacle_grid is None else sol.obstacle_grid.sides
    if sides != ("lower",):
        raise ValueError("configuration error: " + (upper if "lower" in sides else no_lower))
    return sol.obstacle_grid


def _noise_matrix(spec, t, w, y, z, l: int) -> np.ndarray:
    """G at one grid time as an M x l matrix.  A coefficient given as one M
    vector is shared by the l components: with l = 1 it is a read-only
    view.  With l > 1 it is copied, because einsum factors a stride-0
    operand out of its sum, which would round the products differently."""
    out = spec.evaluate(t, w, y, z)
    if out.ndim == 1:
        if l == 1:
            return np.broadcast_to(out[:, None], (out.shape[0], 1))
        return np.repeat(out[:, None], l, axis=1)
    if out.shape[1] != l:
        raise ValueError(f"noise coefficient returned {out.shape[1]} components, expected {l}")
    return out


def coefficient_steps(sol: SolutionEnsemble, s: Scenario, p: NoisePaths, lag: int) -> np.ndarray:
    """F dt + G . dB_j for each path and step j, with the driver F and the
    noise coefficient G re-evaluated along the solution at grid index
    j + lag (0 or 1); Z after the last step is taken as zero.  Returns M x N,
    a view of N contiguous step rows."""
    m, n = s.mc_paths, s.grid.steps
    times = s.grid.times
    steps = np.empty((n, m))
    w = np.empty((m, s.dims.d))
    for j in range(n):
        k = j + lag
        y, w = sol.Y[:, k], p.w_row(k, out=w)
        z = sol.Z[:, k, :] if k < n else np.zeros((m, s.dims.d))
        f = s.driver.evaluate(times[k], w, y, z)
        g = _noise_matrix(s.noise_coeff, times[k], w, y, z, s.dims.l)
        steps[j] = f * s.grid.dt + np.einsum("ml,ml->m", g, p.dB[:, j, :])
    return steps.T


def solve_backward(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig,
    picard_iters: int,
    grids: ObstacleGrid,
    level: float = np.inf,
    *,
    factors: dict | None = None,
) -> SolutionEnsemble:
    """One backward sweep reflecting on every barrier in ``grids``, the
    scenario's ``_checked_grid``, at one penalty level per unit time; the
    infinite level is the projection.  With no barrier the sweep solves the
    unreflected equation.  Non-constant barriers add their shape columns to
    the design.  Each step forms each barrier's row once, for its basis,
    its reflection and the penetration.

    The sweep stores Y and Z time first, one contiguous row per grid time
    or step, and returns them as (M, ...) views.  The reflection of step i
    returns the paths in contact and their signed pushes, dK+ - dK-, and
    ``SignedPushes`` keeps them as step i's packed contact bits and the
    pushes in path order; dK, K+ and K- are formed from that store where
    they are read (see ``SolutionEnsemble``).  Without a barrier in
    ``grids`` the sweep allocates no store.  Each
    step's design is factored once and serves its three fits.  The
    penetration of each barrier, the mean over paths of the squared largest
    excess beyond it, is kept as a running per-path maximum and reported in
    ``meta``.

    ``factors`` is for sweeps that share their designs, the levels of one
    ladder: it maps a step index to that step's design factorization, which
    the sweep reuses where it is found and adds where it is not.  It is
    valid only for sweeps on the same paths, barriers and ``cfg``, whose
    basis matrices are bit-identical."""
    m, n = s.mc_paths, s.grid.steps
    d, l = s.dims.d, s.dims.l
    dt = s.grid.dt
    times = s.grid.times
    rate = level * dt
    if not rate >= 0:
        raise ValueError("the penalty rate must be >= 0")  # NaN fails too

    y_all = np.empty((n + 1, m))
    z_all = np.zeros((n, m, d))
    residual_rms = np.zeros((n, 2 + d))

    y_all[n] = grids.xi
    # B_T - B_{t_i}, summed backward one increment per step
    remaining_db = np.zeros((m, l)) if cfg.include_dB else None

    sides = grids.sides
    # each step's contact and pushes; with no barrier there is no store
    pushes = SignedPushes(m, n) if sides else None
    # per path, the largest (L - Y)^+ and (Y - U)^+ over the rows solved so
    # far; the horizon row adds nothing, as _checked_grid holds L_T <= xi <= U_T
    shortfall = np.zeros(m)
    overshoot = np.zeros(m)
    shaped = s.obstacles.shaped_sides()
    # a driver of the state alone gives every Picard iteration the same row
    picard = min(picard_iters, 1) if s.driver.depends_on_state_only() else picard_iters

    previous = None  # the last step's design

    def step(i: int, w: np.ndarray) -> None:
        """Solve row i of Y and Z, and step i's pushes, from row i + 1 of Y
        and Z.  ``w`` holds W's row at t_{i+1} on entry, which only the
        step's targets read, and at t_i from then on.  The targets, fitted
        rows and residuals the step forms are released on return, and its
        design, kept in ``previous``, as soon as the next step has built its
        basis."""
        nonlocal previous
        t_next = times[i + 1]
        y_next = y_all[i + 1]
        z_next = z_all[i + 1] if i + 1 < n else np.zeros((m, d))
        d_w, d_b = p.dW[:, i, :], p.dB[:, i, :]

        # Stage 1's two targets, the continuation target and the drift at
        # t_{i+1}, as the rows of one array, the layout the fit multiplies in
        targets = np.empty((2, m))
        continuation_target = np.add(y_next, np.einsum(
            "ml,ml->m", _noise_matrix(s.noise_coeff, t_next, w, y_next, z_next, l), d_b),
            out=targets[0])
        targets[1] = s.driver.evaluate(t_next, w, y_next, z_next)

        w_now = p.w_row(i, out=w)
        if remaining_db is not None:
            np.add(remaining_db, d_b, out=remaining_db)
        barriers = {side: grids.row(side, i, w_now) for side in sides}
        basis = build_basis(cfg, w_now, remaining_db, [barriers[side] for side in shaped])
        # The last design goes only once this basis is built.  Freed before,
        # its memory joined the free top of the heap, which the allocator
        # returned to the system, and the next basis was faulted in again:
        # 70k page faults against 18k in the first level of a 30k-path
        # ladder with 9 columns, 112k against 10k in a 100k-path sweep when
        # freed with the rest of its step.
        previous = None
        design = Design(basis, cfg.ridge, None if factors is None else factors.get(i))
        if factors is not None:
            factors[i] = design.scale, design.factor, design.ridge_floor

        # Stage 1: rough continuation fit, reused as a centring control for
        # the gradient targets and to seed the drift refinement.
        rough, rough_fit = condexp_fit_eval(targets.T, design)

        # Stage 2: Z from the centred increments; centring removes the
        # conditional mean, which otherwise dominates the target variance.
        z_targets = (continuation_target - rough[:, 0])[:, None] * d_w
        z_fitted, z_fit = condexp_fit_eval(z_targets, design)
        z_now = z_all[i]
        np.divide(z_fitted, dt, out=z_now)

        # Stage 3: final continuation with the martingale part Z.dW taken
        # out of the target (zero conditional mean, most of the variance),
        # written over the drift target, which stage 1 has read.
        controlled = np.subtract(continuation_target, np.einsum("md,md->m", z_now, d_w),
                                 out=targets[1])
        continuation, cont_fit = condexp_fit_eval(controlled, design)

        residual_rms[i, 0] = cont_fit.residual_norm[0] / np.sqrt(m)
        residual_rms[i, 1] = rough_fit.residual_norm[1] / np.sqrt(m)
        residual_rms[i, 2:] = z_fit.residual_norm / np.sqrt(m)

        # the drift refinement and the reflection write Y's row in place
        y_now = y_all[i]
        np.add(continuation, rough[:, 1] * dt, out=y_now)
        for _ in range(picard):
            np.add(continuation, s.driver.evaluate(times[i], w_now, y_now, z_now) * dt, out=y_now)

        # interior barriers were checked not to cross by _checked_grid
        if pushes is not None:
            pushes.put(i, *_reflect(y_now, barriers.get("lower"), barriers.get("upper"), rate))
        if not np.all(np.isfinite(y_now)):
            raise NonFiniteError(f"solver produced non-finite values at step {i}")
        if "lower" in barriers:
            np.maximum(shortfall, barriers["lower"] - y_now, out=shortfall)
        if "upper" in barriers:
            np.maximum(overshoot, y_now - barriers["upper"], out=overshoot)
        previous = design

    # one row of W, allocated once: each step reads W_{i+1} there and then
    # forms W_i over it from W's marks, for itself and the next step
    w = p.w_row(n, out=np.empty((m, d)))
    for i in range(n - 1, -1, -1):
        step(i, w)

    one_barrier = "projected" if np.isinf(level) else "penalized"
    meta = SolveMeta(
        scheme=("plain", one_barrier, "double")[len(sides)],
        seed=p.seed,
        n_paths=m,
        basis_size=previous.shape[1],
        picard_iters=picard_iters,
        regression=cfg,
        residual_rms=residual_rms,
        penetration_lower=float(np.mean(shortfall ** 2)),
        penetration_upper=float(np.mean(overshoot ** 2)),
    )
    return SolutionEnsemble(Y=y_all.T, Z=z_all.transpose(1, 0, 2), pushes=pushes, meta=meta,
                            obstacle_grid=grids)


def solve_bdsde(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
) -> SolutionEnsemble:
    """Solve the unreflected terminal-value equation; obstacles, if any, are
    ignored and both reflection processes come back identically zero."""
    s = replace(s, obstacles=ObstacleSpec())
    return solve_backward(s, p, cfg or RegressionConfig(), picard_iters, _checked_grid(s, p))
