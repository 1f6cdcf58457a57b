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

from dataclasses import dataclass, replace

import numpy as np

from .condexp import Design, RegressionConfig, build_basis, condexp_fit_eval, fitted_rows
from .model import (CoefficientSpec, ObstacleSpec, Scenario, SignedPushes, SolutionEnsemble,
                    SolveMeta)
from .paths import NoisePaths, ObstacleGrid, _WRows, obstacle_on_grid


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
    absent barrier is -inf (lower) or +inf (upper), which no candidate
    crosses, so it never pushes; a lower barrier at +inf with the upper at
    +inf, or an upper at -inf with the lower at -inf, is a crossing.  The
    sweep runs the same in-place step, ``_reflect``, on the broadcast rows
    without the checks made here, and stores the signed pushes of the paths
    in contact, with their contact mask, in its ``SignedPushes``; a push
    that would round past the candidate is zero.
    """
    if np.ndim(n_dt) != 0 or not n_dt >= 0:  # NaN fails too
        raise ValueError(f"the penalty rate must be one number >= 0, got {n_dt!r}")
    a, lower, upper = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, l_val, u_val)))
    if np.any(lower >= upper):
        raise ValueError("barrier crossing: l_val >= u_val")
    y = a.flatten()
    contact, push = _reflect(y, lower.ravel(), upper.ravel(), float(n_dt))
    dk = np.zeros(y.size)
    dk[contact] = push
    dk_plus, dk_minus = np.maximum(dk, 0.0), np.maximum(-dk, 0.0)
    if not a.shape:
        return float(y[0]), float(dk_plus[0]), float(dk_minus[0])
    return y.reshape(a.shape), dk_plus.reshape(a.shape), dk_minus.reshape(a.shape)


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


def _noise_increments(s: Scenario, t: float, w, y, z, p: NoisePaths, j: int):
    """G . dB_j per path, (M,), with G evaluated at (t, w, y, z): the
    backward term of step j.  For the ``zero`` G it is the number 0.0 and
    no dB is read, so B is not drawn.  Adding it keeps every bit: the
    einsum of a zero row is +0.0, and adding 0.0 maps -0.0 to +0.0 as
    adding that row does."""
    if s.noise_coeff.kind == "zero":
        return 0.0
    return np.einsum("ml,ml->m", _noise_matrix(s.noise_coeff, t, w, y, z, s.dims.l),
                     p.dB[:, j, :])


class _BasisWalk:
    """The regression state of the backward sweep, walked from the horizon
    down over the basis inputs its ``StepFits`` store keeps.  ``advance(i)``,
    called for i = N-1, ..., 0 in turn, forms W's row at t_i over the one
    (M, d) row ``w`` (which holds W_{i+1} until then), adds dB_i to
    B_T - B_{t_i} (with ``cfg.include_dB``) and returns each barrier's row;
    ``basis`` then builds step i's basis, the shaped sides' rows among its
    columns, for all paths or a block of them.  The sweep and every later
    read of Z walk this way, so both build each basis from the same inputs
    by the same operations."""

    def __init__(self, store: StepFits):
        m, n, d = store.shape
        self.store = store
        self.w = store.w.row(n, out=np.empty((m, d)))
        self.remaining_db = np.zeros((m, store.db.shape[2])) if store.cfg.include_dB else None

    def advance(self, i: int) -> dict:
        """Step to grid time i; returns the barrier rows there, by side."""
        store = self.store
        w_now = store.w.row(i, out=self.w)
        if self.remaining_db is not None:
            np.add(self.remaining_db, store.db[:, i, :], out=self.remaining_db)
        return {side: store.grids.row(side, i, w_now) for side in store.grids.sides}

    def basis(self, barriers: dict, paths: slice = slice(None)) -> np.ndarray:
        """The basis of the step last advanced to, on ``paths``."""
        db = None if self.remaining_db is None else self.remaining_db[paths]
        return build_basis(self.store.cfg, self.w[paths], db,
                           [barriers[side][paths] for side in self.store.shaped])


@dataclass(frozen=True, eq=False)
class StepFits:
    """The Y and Z of a sweep, held as what forms them again: per step i
    the coefficients of its three fits, rough (B, 2), z (B, d) and
    continuation (B,); what the Y step reads besides them, the driver, the
    grid times, the reflection's rate and the Picard count; and the
    sweep's inputs to step i's basis A_i, which the store keeps alive: W's
    increments and marks, dB when the basis has dB columns, the obstacle
    grid and its shaped sides.  The sweep solves each row of Y with
    ``y_row`` and ``rows`` forms every row again the same way, so each row
    of Y and Z has the sweep's bits."""

    rough: list              # per step, (B, 2)
    z: list                  # per step, (B, d)
    continuation: list       # per step, (B,)
    driver: CoefficientSpec
    times: np.ndarray        # t_0, ..., t_N
    dt: float
    rate: float
    picard: int
    cfg: RegressionConfig
    w: _WRows
    db: np.ndarray | None    # (M, N, l), or None without dB columns
    grids: ObstacleGrid
    shaped: tuple[str, ...]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(M, N, d)."""
        n, m, d = self.w.increments.shape
        return m, n, d

    @property
    def nbytes(self) -> int:
        """The bytes of the coefficients; the arrays the store keeps alive
        are the paths'."""
        return sum(beta.nbytes for fits in (self.rough, self.z, self.continuation)
                   for beta in fits)

    def y_row(self, i: int, y: np.ndarray, continuation: np.ndarray, drift: np.ndarray,
              z: np.ndarray, w: np.ndarray, barriers: dict):
        """Y's row at t_i, in place in ``y``, from step i's fitted
        continuation and drift, Z_i and W_i: the continuation plus the
        drift times dt, then the Picard passes with the driver at
        (t_i, W_i, Y_i, Z_i), then the reflection on step i's ``barriers``
        at the store's rate.  Returns the reflection's contact and pushes,
        or None without a barrier."""
        # y holds each product until the continuation is added; drift may be y
        np.multiply(drift, self.dt, out=y)
        np.add(continuation, y, out=y)
        for _ in range(self.picard):
            np.multiply(self.driver.evaluate(self.times[i], w, y, z), self.dt, out=y)
            np.add(continuation, y, out=y)
        if not barriers:
            return None
        # interior barriers were checked not to cross by _checked_grid
        return _reflect(y, barriers.get("lower"), barriers.get("upper"), self.rate)

    def rows(self, with_y: bool = True):
        """Y's and Z's rows from the horizon back: (N, xi, None), then
        (i, Y_i, Z_i) for i = N-1, ..., 0, Y_i an (M,) and Z_i an (M, d)
        row, each in a buffer that the next row overwrites.  Each step
        rebuilds its basis one block of paths at a time and forms the three
        fits' values on each block through ``fitted_rows``, as the sweep's
        fits did; Z_i is the z-fit divided by dt and Y_i comes from
        ``y_row``, as in the sweep.  A read holds one block's basis and a
        few rows, and evaluates the driver again at every step.  Without
        ``with_y`` only Z is formed, from the z-fit alone: (i, None, Z_i)
        for i = N-1, ..., 0."""
        m, n, d = self.shape
        walk = _BasisWalk(self)
        z = np.empty((m, d))
        # the rough fit's rows land on the continuation's row, which its own
        # fit, formed after it on each block, then writes, and on Y's row,
        # where the drift is read from
        fitted = np.empty((2, m)) if with_y else None
        continuation, y_i = (None, None) if fitted is None else fitted
        if with_y:
            yield n, self.grids.xi, None
        for i in range(n - 1, -1, -1):
            barriers = walk.advance(i)
            betas, outs = [self.z[i]], [z.T]
            if with_y:
                betas += [self.rough[i], self.continuation[i].reshape(-1, 1)]
                outs += [fitted, fitted[:1]]
            fitted_rows(betas, m, lambda paths: walk.basis(barriers, paths), outs)
            np.divide(z, self.dt, out=z)
            if with_y:
                self.y_row(i, y_i, continuation, y_i, z, walk.w, barriers)
            del barriers  # not held while the next row's walk advances
            yield i, y_i, z


def coefficient_steps(rows, s: Scenario, p: NoisePaths, lag: int,
                      martingale: bool = False) -> np.ndarray:
    """F dt + G . dB_j for each path and step j, with the driver F and the
    noise coefficient G re-evaluated along the solution at grid index
    j + lag (0 or 1); Z after the last step is taken as zero.  With
    ``martingale`` each step also has Z_j . dW_j subtracted.  ``rows`` are
    an ensemble's (i, Y_i, Z_i) from the horizon back, as
    ``SolutionEnsemble.rows`` gives them, each read once.  Returns M x N, a
    view of N contiguous step rows, filled from the last step back."""
    m, n, d = s.mc_paths, s.grid.steps, s.dims.d
    times = s.grid.times
    steps = np.empty((n, m))

    def fill(i: int, y: np.ndarray, z: np.ndarray) -> None:
        # W_i is formed here, and F and G are not bound to names, so none of
        # them is held while the next row of Y and Z is formed
        w_i, step = p.w_row(i), steps[i - lag]
        np.multiply(s.driver.evaluate(times[i], w_i, y, z), s.grid.dt, out=step)
        step += _noise_increments(s, times[i], w_i, y, z, p, i - lag)

    for i, y, z in rows:
        if 0 <= i - lag < n:
            fill(i, y, np.zeros((m, d)) if z is None else z)
        if martingale and i < n:
            steps[i] -= np.einsum("md,md->m", z, p.dW[:, i, :])
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

    Of Y and of Z the sweep holds one row each: step i's targets read
    Y_{i+1} and Z_{i+1} there, and the step then writes Y_i and Z_i over
    them.  It stores each step's three fits' coefficients in a
    ``StepFits``, with what else forms Y's and Z's rows again, and the
    ensemble forms Y and Z from it where they are read; the ensemble keeps
    the W increments and marks alive, and dB when the basis has dB
    columns, and each read of Y evaluates the driver again, so a ``hook``
    driver must be a pure function.  The reflection of step i returns the
    paths in contact and their signed pushes, dK+ - dK-, and
    ``SignedPushes`` keeps them as step i's packed contact bits and the
    pushes in path order; dK, K+ and K- are formed from that store where
    they are read (see ``SolutionEnsemble``).  Without a barrier in
    ``grids`` the sweep allocates no store.  Each step's design is
    factored once and serves its three fits.  The
    penetration of each barrier, the mean over paths of the squared largest
    excess beyond it, is kept as a running per-path maximum and reported in
    ``meta``.

    ``factors`` is for sweeps that share their designs, the levels of one
    ladder: it maps a step index to that step's design factorization, which
    the sweep reuses where it is found and adds where it is not.  It is
    valid only for sweeps on the same paths, barriers and ``cfg``, whose
    basis matrices are bit-identical."""
    m, n = s.mc_paths, s.grid.steps
    d = s.dims.d
    dt = s.grid.dt
    times = s.grid.times
    rate = level * dt
    if not rate >= 0:
        raise ValueError("the penalty rate must be >= 0")  # NaN fails too

    residual_rms = np.zeros((n, 2 + d))
    sides = grids.sides
    # each step's fits, and what forms Y's and Z's rows from them; a driver
    # of the state alone gives every Picard iteration the same row
    store = StepFits([None] * n, [None] * n, [None] * n, s.driver, times, dt, rate,
                     min(picard_iters, 1) if s.driver.depends_on_state_only() else picard_iters,
                     cfg, p._w, p.dB if cfg.include_dB else None, grids,
                     s.obstacles.shaped_sides())
    # W's row, B_T - B_{t_i} and each step's basis
    walk = _BasisWalk(store)
    # one row of Y and one of Z: Y_{i+1} and Z_{i+1} on entry to step i,
    # read by its targets only (Y_N is xi), then Y_i and Z_i
    y_now = np.empty(m)
    z_row = np.zeros((m, d))
    # each step's contact and pushes; with no barrier there is no store
    pushes = SignedPushes(m, n) if sides else None
    # per path and barrier, the largest (L - Y)^+ or (Y - U)^+ over the rows
    # solved so far; the horizon row adds nothing, as _checked_grid holds
    # L_T <= xi <= U_T
    excess = {side: np.zeros(m) for side in sides}

    previous = None  # the last step's design

    def step(i: int) -> None:
        """Solve row i of Y, Z's row at t_i and step i's pushes, from row
        i + 1 of Y and Z.  The walk's row of W, ``y_now`` and ``z_row``
        hold W_{i+1}, Y_{i+1} and Z_{i+1} on entry, which only the step's
        targets read, and W_i, Y_i and Z_i from then on.  The targets,
        fitted rows and residuals the step forms are released on return,
        and its design, kept in ``previous``, as soon as the next step has
        built its basis."""
        nonlocal previous
        t_next = times[i + 1]
        y_next = grids.xi if i == n - 1 else y_now
        w, z_next = walk.w, z_row
        d_w = p.dW[:, i, :]

        # Stage 1's two targets, the continuation target and the drift at
        # t_{i+1}, as the rows of one array, the layout the fit multiplies in
        targets = np.empty((2, m))
        continuation_target = np.add(
            y_next, _noise_increments(s, t_next, w, y_next, z_next, p, i), out=targets[0])
        targets[1] = s.driver.evaluate(t_next, w, y_next, z_next)

        barriers = walk.advance(i)
        basis = walk.basis(barriers)
        w_now = walk.w
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
        z_now = np.divide(z_fitted, dt, out=z_row)

        # Stage 3: final continuation with the martingale part Z.dW taken
        # out of the target (zero conditional mean, most of the variance),
        # written over the drift target, which stage 1 has read.
        controlled = np.subtract(continuation_target, np.einsum("md,md->m", z_now, d_w),
                                 out=targets[1])
        continuation, cont_fit = condexp_fit_eval(controlled, design)

        store.rough[i], store.z[i] = rough_fit.coefficients, z_fit.coefficients
        store.continuation[i] = cont_fit.coefficients
        residual_rms[i, 0] = cont_fit.residual_norm[0] / np.sqrt(m)
        residual_rms[i, 1] = rough_fit.residual_norm[1] / np.sqrt(m)
        residual_rms[i, 2:] = z_fit.residual_norm / np.sqrt(m)

        # the drift refinement and the reflection write Y's row in place
        reflected = store.y_row(i, y_now, continuation, rough[:, 1], z_now, w_now, barriers)
        if pushes is not None:
            pushes.put(i, *reflected)
        if not np.all(np.isfinite(y_now)):
            raise NonFiniteError(f"solver produced non-finite values at step {i}")
        for side, sup in excess.items():
            beyond = barriers[side] - y_now if side == "lower" else y_now - barriers[side]
            np.maximum(sup, beyond, out=sup)
        previous = design

    for i in range(n - 1, -1, -1):
        step(i)

    one_barrier = "projected" if np.isinf(level) else "penalized"
    meta = SolveMeta(
        scheme=("plain", one_barrier, "double")[len(sides)],
        seed=p.seed,
        n_paths=m,
        basis_size=previous.shape[1],
        picard_iters=picard_iters,
        regression=cfg,
        residual_rms=residual_rms,
        **{f"penetration_{side}": float(np.mean(sup ** 2)) for side, sup in excess.items()},
    )
    return SolutionEnsemble(store=store, pushes=pushes, meta=meta, obstacle_grid=grids)


def solve_bdsde(
    s: Scenario,
    p: NoisePaths,
    cfg: RegressionConfig | None = None,
    picard_iters: int = 2,
) -> SolutionEnsemble:
    """Solve the unreflected terminal-value equation; obstacles, if any, are
    ignored and both reflection processes come back identically zero.  The
    ensemble keeps the increments of ``p`` alive, to form Y and Z where
    they are read (``StepFits``); a ``hook`` driver must be a pure
    function, because each read of Y evaluates it again."""
    s = replace(s, obstacles=ObstacleSpec())
    return solve_backward(s, p, cfg or RegressionConfig(), picard_iters, _checked_grid(s, p))
