"""The backward sweep against the scheme written out once more, plainly:
whole W and B by np.cumsum, whole barrier arrays, each stage fitted by
np.linalg.lstsq on the ridge-augmented design, the Picard passes, the
implicit step in closed form and each side's K as the running sum of its
pushes.  The design is formed here from its span, which fixes the fitted
values whatever the column order."""
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdsde import (CoefficientSpec, Dimensions, ObstacleSpec, RegressionConfig, Scenario, TimeGrid,
                    generate_paths)
from rbdsde.bdsde_solver import _checked_grid, solve_backward


def _design(w, db, barriers, degree):
    """W monomials up to ``degree``, each dB component times those up to
    max(1, degree - 1) (none at degree 0), each barrier times those up to 2."""
    def monomials(k):
        return [np.prod(w ** np.array(e), axis=1)
                for e in itertools.product(range(k + 1), repeat=w.shape[1]) if sum(e) <= k]
    cols = monomials(degree) + [bar * m for bar in barriers for m in monomials(2)]
    if db is not None:
        cols += [c * m for c in db.T for m in monomials(max(1, degree - 1) if degree else 0)]
    return np.column_stack(cols)


def _fit(a, y, ridge):
    """Fitted values of min |a beta - y|^2 + ridge |beta|^2, y one or more columns."""
    stacked = np.vstack([a, np.sqrt(ridge) * np.eye(a.shape[1])])
    targets = np.concatenate([y, np.zeros((a.shape[1],) + y.shape[1:])])
    return a @ np.linalg.lstsq(stacked, targets, rcond=None)[0]


def _reference(sc, p, cfg, picard, level):
    m, n, d = sc.mc_paths, sc.grid.steps, sc.dims.d
    t, dt, rate, f = sc.grid.times, sc.grid.dt, level * sc.grid.dt, sc.driver.evaluate
    w = np.concatenate([np.zeros((m, 1, d)), np.cumsum(p.dW, axis=1)], axis=1)
    remaining = np.cumsum(p.dB[:, ::-1], axis=1)[:, ::-1]  # B_T - B_{t_i}
    bars = {side: np.column_stack([getattr(sc.obstacles, side).evaluate(t[i], w[:, i])
                                   for i in range(n + 1)]) for side in sc.obstacles.sides}
    y, z = np.empty((m, n + 1)), np.zeros((m, n + 1, d))
    pushes = {side: np.zeros((m, n)) for side in ("lower", "upper")}
    y[:, n] = sc.terminal.evaluate(t[n], w[:, n])
    for i in range(n - 1, -1, -1):
        state = (t[i + 1], w[:, i + 1], y[:, i + 1], z[:, i + 1])
        g = sc.noise_coeff.evaluate(*state).reshape(m, -1)
        target = y[:, i + 1] + np.sum(g * p.dB[:, i], axis=1)
        a = _design(w[:, i], remaining[:, i] if cfg.include_dB else None,
                    [bars[side][:, i] for side in sc.obstacles.shaped_sides()], cfg.degree_w)
        rough = _fit(a, np.column_stack([target, f(*state)]), cfg.ridge)
        z[:, i] = _fit(a, (target - rough[:, 0])[:, None] * p.dW[:, i], cfg.ridge) / dt
        cont = _fit(a, target - np.sum(z[:, i] * p.dW[:, i], axis=1), cfg.ridge)
        cand = cont + rough[:, 1] * dt
        for _ in range(picard):
            cand = cont + f(t[i], w[:, i], cand, z[:, i]) * dt
        y[:, i] = cand
        for side, sign in (("lower", 1.0), ("upper", -1.0)):
            if side in bars:
                bar = bars[side][:, i]
                hit = sign * (bar - cand) > 0
                pushed = bar if np.isinf(rate) else (cand + rate * bar) / (1 + rate)
                y[:, i] = np.where(hit, pushed, y[:, i])
                pushes[side][:, i] = np.where(hit, sign * (y[:, i] - cand), 0.0)
    k = {side: np.cumsum(np.concatenate([np.zeros((m, 1)), pushes[side]], axis=1), axis=1)
         for side in pushes}
    return y, z[:, :n], k


_SHAPED = {"lower": lambda t, w, y, z: -1.0 + 0.25 * np.minimum(np.abs(w[:, 0]), 2.0),
           "upper": lambda t, w, y, z: 1.0 - 0.25 * np.minimum(np.abs(w[:, 0]), 2.0)}
_coef = st.floats(-0.5, 0.5)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 2), l=st.integers(1, 2), degree=st.integers(0, 3), db=st.booleans(),
       barriers=st.tuples(*[st.sampled_from(["absent", "constant", "shaped"])] * 2),
       level=st.sampled_from([5.0, 50.0, np.inf]), picard=st.integers(0, 2), n=st.integers(1, 8),
       paths_per_column=st.integers(3, 6), drift=st.floats(-1.5, 1.5), a=st.tuples(*[_coef] * 6),
       seed=st.integers(0, 2**16))
def test_sweep_is_the_scheme(d, l, degree, db, barriers, level, picard, n, paths_per_column,
                             drift, a, seed):
    spec = {"absent": lambda side: None, "shaped": lambda side: CoefficientSpec.hook(_SHAPED[side]),
            "constant": lambda side: CoefficientSpec.constant(-0.8 if side == "lower" else 0.8)}
    obstacles = ObstacleSpec(*(spec[kind](side) for kind, side in zip(barriers, ("lower", "upper"))))
    cfg = RegressionConfig(degree_w=degree, include_dB=db)
    probe = _design(np.ones((1, d)), np.ones((1, l)) if db else None,
                    [np.ones(1)] * len(obstacles.shaped_sides()), degree)
    sc = Scenario(grid=TimeGrid(1.0, n), dims=Dimensions(d, l),
                  terminal=CoefficientSpec.clamp(-0.5, 0.5),
                  driver=CoefficientSpec.linear(a_y=a[0], a_z=a[1:1 + d], a_w=a[3], c=drift),
                  noise_coeff=CoefficientSpec.linear(a_y=a[4], a_w=a[5], c=0.2), obstacles=obstacles,
                  mc_paths=paths_per_column * probe.shape[1], seed=seed)
    p = generate_paths(sc)
    sol = solve_backward(sc, p, cfg, picard, _checked_grid(sc, p), level)
    y, z, k = _reference(sc, p, cfg, picard, level)
    for got, want in ((sol.Y, y), (sol.Z, z), (sol.K_plus, k["lower"]), (sol.K_minus, k["upper"])):
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-9 * max(1.0, np.max(np.abs(want)))
