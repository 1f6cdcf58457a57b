"""One-barrier penalization, projection limit, Skorohod machinery."""
import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdsde import (
    CoefficientSpec,
    Dimensions,
    ObstacleSpec,
    PenaltySchedule,
    SolutionEnsemble,
    SolveMeta,
    RegressionConfig,
    Scenario,
    TimeGrid,
    generate_paths,
    implicit_double_step,
    implicit_penalty_step,
    obstacle_on_grid,
    penetration_statistic,
    skorohod_residual,
    skorohod_sup_formula,
    solve_bdsde,
    solve_double,
    solve_penalized,
    solve_projected,
    solve_reflected,
)
from rbdsde.bdsde_solver import coefficient_steps
from rbdsde.diagnostics import pooled_se
from rbdsde.scenarios import constant_scenario, stopping_drift_scenario, two_barrier_scenario
from tests.hand_built import from_dense, pushes_of


def _bisect_penalty(a, s, n_dt):
    """Independent scalar oracle: root of r(y) = a + n_dt*(s-y)^+ - y."""
    lo, hi = min(a, s) - 1.0, max(a, s) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a + n_dt * max(s - mid, 0.0) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestImplicitPenaltyStep:

    def test_unconstrained_branch(self):
        assert implicit_penalty_step(5.0, 3.0, 1.0) == (5.0, 0.0)

    def test_constrained_fixed_point(self):
        y, dk = implicit_penalty_step(1.0, 3.0, 1.0)
        assert y == pytest.approx(2.0, abs=1e-12)
        assert dk == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(_bisect_penalty(1.0, 3.0, 1.0), abs=1e-9)

    def test_projection_limit(self):
        y, dk = implicit_penalty_step(1.0, 3.0, 1e6)
        assert abs(y - 3.0) < 1e-5
        assert abs(dk - 2.0) < 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_solves_equation_on_sampled_grid(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-5, 5, size=200)
        s = rng.uniform(-5, 5, size=200)
        for n_dt in rng.uniform(0, 100, size=3):
            y, dk = implicit_penalty_step(a, s, n_dt)
            assert np.max(np.abs(a + n_dt * np.maximum(s - y, 0.0) - y)) < 1e-10
            assert np.all(dk >= 0.0)
            assert np.allclose(dk, y - a, atol=1e-12)
            oracle = [_bisect_penalty(*args, n_dt) for args in zip(a[:20], s[:20])]
            assert np.allclose(y[:20], oracle, atol=1e-8)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            implicit_penalty_step(1.0, 2.0, -0.5)
        with pytest.raises(ValueError, match="rate must be one number >= 0"):
            implicit_double_step(np.array([0.0]), np.array([1.0]), np.inf, np.nan)


class TestSolvePenalized:

    def test_no_barrier_is_the_unreflected_sweep(self):
        sc = constant_scenario(paths=200, steps=4)
        bare = dataclasses.replace(sc, obstacles=ObstacleSpec())
        p = generate_paths(bare)
        pen = solve_penalized(bare, p, level=10.0)
        plain = solve_bdsde(sc, p)
        assert pen.meta.scheme == plain.meta.scheme == "plain"
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert np.array_equal(getattr(pen, name), getattr(plain, name))

    def test_inactive_penalty_matches_plain_solver_exactly(self):
        sc = constant_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        plain = solve_bdsde(sc, p)
        for level in (1.0, 1e6 / sc.grid.dt):
            pen = solve_penalized(sc, p, level=level)
            assert np.array_equal(pen.Y, plain.Y)
            assert np.array_equal(pen.Z, plain.Z)
            assert np.all(pen.K_plus == 0.0)

    def test_high_obstacle_forces_level(self, fast_cfg):
        # obstacle sits at 6 on the interior and drops to the terminal at T
        def high_until_terminal(t, w, y, z):
            return np.full(w.shape[0], 6.0 if t < 1.0 else 5.0)

        sc = dataclasses.replace(
            constant_scenario(paths=3000, steps=20),
            obstacles=ObstacleSpec(lower=CoefficientSpec.hook(high_until_terminal)),
        )
        p = generate_paths(sc)
        proj = solve_projected(sc, p, fast_cfg)
        assert np.min(proj.Y[:, :-1]) >= 6.0
        pen = solve_penalized(sc, p, fast_cfg, level=1e6 / sc.grid.dt)
        assert np.min(pen.Y[:, :-1]) >= 6.0 - 1e-4

    def test_terminal_violation_rejected(self):
        sc = constant_scenario(paths=100, steps=4)
        bad = dataclasses.replace(sc, obstacles=ObstacleSpec(lower=CoefficientSpec.constant(7.0)))
        p = generate_paths(bad)
        with pytest.raises(ValueError, match="S_T <= xi"):
            solve_penalized(bad, p, level=10.0)

    def test_k_plus_accumulates_forward(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_penalized(sc, p, fast_cfg, level=100.0)
        assert np.all(sol.K_plus[:, 0] == 0.0)
        assert np.all(np.diff(sol.K_plus, axis=1) >= 0.0)
        assert sol.K_plus[:, -1].mean() > 0.1


class TestProjectedLimit:

    def test_matches_penalized_at_huge_rate(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        proj = solve_projected(sc, p, fast_cfg)
        pen = solve_penalized(sc, p, fast_cfg, level=1e6 / sc.grid.dt)
        assert np.max(np.abs(proj.Y - pen.Y)) < 1e-5

    def test_infinite_level_is_the_projection(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        proj = solve_projected(sc, p, fast_cfg)
        pen = solve_penalized(sc, p, fast_cfg, level=np.inf)
        assert pen.meta.scheme == proj.meta.scheme == "projected"
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert np.array_equal(getattr(pen, name), getattr(proj, name))

    def test_non_binding_equals_plain_exactly(self):
        sc = constant_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        assert np.array_equal(solve_projected(sc, p).Y, solve_bdsde(sc, p).Y)

    def test_obstacle_dominated_after_projection(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        grids = obstacle_on_grid(sc, p)
        sol = solve_projected(sc, p, fast_cfg)
        assert np.all(sol.Y >= grids.lower - 1e-12)


class TestSolveReflected:

    def test_non_binding_single_level(self):
        sc = constant_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        sol, trace = solve_reflected(sc, p)
        assert len(trace.levels) == 1
        assert trace.levels[0].penetration_lower == 0.0
        assert trace.converged

    def test_penetration_strictly_decreasing(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        # a tolerance of 0 runs every level
        sched = PenaltySchedule.geometric(sc.grid.dt, count=4, penetration_tol=0.0)
        sol, trace = solve_reflected(sc, p, fast_cfg, schedule=sched)
        pens = [s.penetration_lower for s in trace.levels]
        assert len(pens) >= 3
        assert all(b < a for a, b in zip(pens, pens[1:]))

    def test_levels_monotone_in_y(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sched = PenaltySchedule.geometric(sc.grid.dt, count=4, penetration_tol=0.0)
        prev = None
        for level in sched.levels:
            sol = solve_penalized(sc, p, fast_cfg, level=level)
            if prev is not None:
                eps = 3.0 * pooled_se(prev, sol)
                assert np.mean(sol.Y < prev.Y - eps) <= 0.01
            prev = sol

    def test_exhausted_schedule_flags(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sched = PenaltySchedule(levels=(1.0,), penetration_tol=1e-15)
        sol, trace = solve_reflected(sc, p, fast_cfg, schedule=sched)
        assert not trace.converged

    def test_returns_the_last_level_sweep(self, fast_cfg):
        sc = stopping_drift_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        sched = PenaltySchedule.geometric(sc.grid.dt, count=3, penetration_tol=0.0)
        sol, trace = solve_reflected(sc, p, fast_cfg, schedule=sched)
        assert len(trace.levels) == 3
        last = solve_penalized(sc, p, fast_cfg, level=trace.levels[-1].level)
        assert sol.meta.scheme == last.meta.scheme == "penalized"
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert np.array_equal(getattr(sol, name), getattr(last, name))

    def test_obstacle_domination_after_convergence(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        grids = obstacle_on_grid(sc, p)
        sol, trace = solve_reflected(sc, p, fast_cfg)
        assert trace.converged
        eps = 3.0 * pooled_se(sol)
        assert np.mean(sol.Y < grids.lower - eps) <= 0.01


@pytest.mark.parametrize("solve", [solve_projected, solve_penalized, solve_reflected])
def test_one_barrier_solvers_reflect_a_declared_upper_barrier(solve):
    # a drift of 2 drives the solution through U = 2 unless the upper
    # barrier reflects it
    sc = two_barrier_scenario(paths=4000, steps=20, drift=2.0)
    p = generate_paths(sc)
    result = solve(sc, p)
    sol = result[0] if isinstance(result, tuple) else result
    assert sol.meta.scheme == "double"
    assert sol.K_minus[:, -1].mean() > 0.01
    assert sol.Y[:, 0].mean() < solve_bdsde(sc, p).Y[:, 0].mean() - 0.01


class TestLevelPolicy:
    """The solvers differ only in their level policy: each equals
    ``solve_double`` on its ladder for every barrier set, bit for bit, and
    with no barrier each is ``solve_bdsde``."""

    @settings(max_examples=50, deadline=None)
    @given(
        sides=st.sampled_from([(), ("lower",), ("upper",), ("lower", "upper")]),
        shaped=st.booleans(),
        gap=st.floats(0.0, 0.5),
        a_y=st.floats(-1.0, 1.0),
        drift=st.floats(-3.0, 3.0),
        beta=st.sampled_from([0.0, 0.3]),
        degree=st.integers(1, 3),
        include_db=st.booleans(),
        level=st.sampled_from([0.5, 4.0, 64.0]),
        levels=st.sampled_from([(4.0,), (4.0, 64.0), (4.0, 64.0, np.inf)]),
        tol=st.sampled_from([0.0, 1e-4]),
        seed=st.integers(0, 2**16),
    )
    def test_each_solver_is_solve_double_on_its_ladder(self, sides, shaped, gap, a_y, drift, beta,
                                                      degree, include_db, level, levels, tol, seed):
        # xi = clamp(W_T, -1, 1) lies between the barriers on every path
        barriers = ({"lower": CoefficientSpec.clamp(-2.0, -0.5), "upper": CoefficientSpec.clamp(0.5, 2.0)}
                    if shaped else {"lower": CoefficientSpec.constant(-1.0 - gap),
                                    "upper": CoefficientSpec.constant(1.0 + gap)})
        sc = Scenario(
            grid=TimeGrid(horizon=1.0, steps=6), dims=Dimensions(),
            terminal=CoefficientSpec.clamp(-1.0, 1.0),
            driver=CoefficientSpec.linear(a_y=a_y, a_z=(0.0,), c=drift),
            noise_coeff=CoefficientSpec.constant(beta),
            obstacles=ObstacleSpec(**{side: barriers[side] for side in sides}),
            mc_paths=300, seed=seed,
        )
        p = generate_paths(sc)
        cfg = RegressionConfig(degree_w=degree, include_dB=include_db)
        plain = solve_bdsde(sc, p, cfg)
        assert plain.meta.scheme == "plain"
        # each solver's ensemble and trace, and its ladder
        solved = [
            (solve_projected(sc, p, cfg), None, (np.inf,)),
            (solve_penalized(sc, p, cfg, level=level), None, (level,)),
            (*solve_reflected(sc, p, cfg, schedule=PenaltySchedule(levels, tol)), levels),
        ]
        for sol, trace, ladder in solved:
            ref, ref_trace = solve_double(sc, p, cfg, schedule=PenaltySchedule(ladder, tol))
            for other in (ref,) if sides else (ref, plain):
                for name in ("Y", "Z", "K_plus", "K_minus"):
                    assert np.array_equal(getattr(sol, name), getattr(other, name)), (ladder, name)
                assert sol.meta.scheme == other.meta.scheme
            if trace is not None:
                assert trace == ref_trace


def _traced_peak(solve):
    """Peak bytes traced while ``solve`` runs, and its result."""
    tracemalloc.start()
    try:
        result = solve()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_ladder_holds_one_ensemble_at_a_time():
    # every level runs: the tolerance is never met at a finite level
    sc = stopping_drift_scenario(paths=4000, steps=20, seed=3)
    p = generate_paths(sc)
    cfg = RegressionConfig(degree_w=3, include_dB=False)
    schedule = PenaltySchedule(levels=(1.0, 10.0, 100.0), penetration_tol=0.0)
    ladder_peak, (sol, trace) = _traced_peak(lambda: solve_reflected(sc, p, cfg, schedule=schedule))
    sweep_peak, _ = _traced_peak(lambda: solve_penalized(sc, p, cfg, level=1.0))
    ensemble = sol.store.nbytes + sol.pushes.nbytes
    assert len(trace.levels) == 3
    assert ladder_peak <= sweep_peak + ensemble / 2


def _hand_ensemble(y, k_plus, k_minus=None):
    """One path with the given Y, K+ and K- (zero unless given), stored as
    the signed increments dK+ - dK-, compacted into the store of pushes."""
    y = np.asarray(y, dtype=float)[None, :]
    dk = np.diff(np.asarray(k_plus, dtype=float)[None, :], axis=1)
    if k_minus is not None:
        dk = dk - np.diff(np.asarray(k_minus, dtype=float)[None, :], axis=1)
    n = y.shape[1] - 1
    meta = SolveMeta(
        scheme="hand", seed=0, n_paths=1, basis_size=1, picard_iters=0,
        regression=RegressionConfig(), residual_rms=np.zeros((n, 3)),
    )
    return from_dense(Y=y, Z=np.zeros((1, n, 1)), pushes=pushes_of(dk), meta=meta)


class TestSkorohodResidual:

    def test_zero_k_zero_residual(self):
        sol = _hand_ensemble([4.0, 3.0, 5.0], [0.0, 0.0, 0.0])
        obstacle = np.zeros((1, 3))
        assert skorohod_residual(sol, obstacle)[0] == 0.0

    def test_hand_built_increment_only_on_contact(self):
        # push happens where Y sits on the obstacle, so the residual vanishes
        sol = _hand_ensemble([3.0, 2.0, 2.5], [0.0, 0.0, 1.0])
        obstacle = np.array([[1.0, 2.0, 2.0]])
        assert skorohod_residual(sol, obstacle)[0] == 0.0

    def test_push_off_the_obstacle_is_positive(self):
        sol = _hand_ensemble([3.0, 2.0, 2.5], [0.0, 1.0, 1.0])
        obstacle = np.array([[1.0, 2.0, 2.0]])
        assert skorohod_residual(sol, obstacle)[0] == pytest.approx(2.0)

    def test_converged_run_residual_small(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        grids = obstacle_on_grid(sc, p)
        sol, _ = solve_reflected(sc, p, fast_cfg,
                                 schedule=PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-8))
        res = skorohod_residual(sol, grids.lower)
        tol = 5.0 * sc.grid.dt * sol.K_plus[:, -1].mean()
        assert abs(res.mean()) <= tol


class TestSkorohodSupFormula:

    def test_nonbinding_obstacle_formula_small(self, fast_cfg):
        sc = constant_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        sol = solve_projected(sc, p, fast_cfg)
        tail = skorohod_sup_formula(sol, sc, p)
        assert np.max(tail) < 1e-8

    def test_terminal_entry_zero_by_domination(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        tail = skorohod_sup_formula(sol, sc, p)
        # at u = T the argument is (xi - S_T)^- = 0
        grids = obstacle_on_grid(sc, p)
        direct = np.maximum(grids.lower[:, -1] - grids.xi, 0.0)
        assert np.all(direct == 0.0)
        assert np.all(tail >= direct[:, None] - 1e-12)

    def test_reconstructs_k_tail(self, fast_cfg):
        cfg = RegressionConfig(degree_w=7, include_dB=False)
        sc = stopping_drift_scenario(paths=10_000, steps=100)
        p = generate_paths(sc)
        sol, _ = solve_reflected(sc, p, cfg)
        tail = skorohod_sup_formula(sol, sc, p)
        stored = sol.K_plus[:, -1][:, None] - sol.K_plus
        deviation = np.abs(tail - stored).mean() / sol.K_plus[:, -1].mean()
        assert deviation <= 0.10

    def test_takes_z_dw_from_the_rows_it_reads(self, monkeypatch):
        # d = l = 2: Z_j . dW_j sums over two components, row by row here
        # and over the whole (M, N, d) Z in the formula it replaces
        sc = dataclasses.replace(
            stopping_drift_scenario(paths=3000, steps=12), dims=Dimensions(d=2, l=2),
            driver=CoefficientSpec.linear(a_y=-0.2, a_z=(0.3, -0.1), c=0.6),
            noise_coeff=CoefficientSpec.constant(0.2),
            obstacles=ObstacleSpec(lower=CoefficientSpec.clamp(-2.0, -0.9)))
        p = generate_paths(sc)
        sol = solve_penalized(sc, p, RegressionConfig(degree_w=2), level=50.0)
        whole = coefficient_steps(sol.rows(), sc, p) - np.einsum("mnd,mnd->mn", sol.Z, p.dW)
        rows = coefficient_steps(sol.rows(), sc, p, martingale=True)
        assert rows.tobytes() == whole.tobytes()

        def whole_z(self):
            raise AssertionError("the whole Z was formed")

        monkeypatch.setattr(SolutionEnsemble, "Z", property(whole_z))
        assert skorohod_sup_formula(sol, sc, p).shape == (sc.mc_paths, sc.grid.steps + 1)


class TestPenetrationStatistic:

    def test_zero_when_dominating(self):
        sol = _hand_ensemble([3.0, 2.0, 2.0], [0.0, 0.0, 0.0])
        assert penetration_statistic(sol, np.zeros((1, 3))) == 0.0

    def test_mean_sup_square(self):
        sol = _hand_ensemble([1.0, 2.0, 5.0], [0.0, 0.0, 0.0])
        obstacle = np.array([[1.5, 2.0, 2.0]])
        assert penetration_statistic(sol, obstacle) == pytest.approx(0.25)

    def test_reads_no_whole_k(self):
        # Y and the barrier are walked row by row; K+ is not formed
        sc = stopping_drift_scenario(paths=20_000, steps=20)
        p = generate_paths(sc)
        sol = solve_penalized(sc, p, RegressionConfig(degree_w=2, include_dB=False), level=50.0)
        lower = obstacle_on_grid(sc, p).lower
        tracemalloc.start()
        try:
            statistic = penetration_statistic(sol, lower)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert statistic == pytest.approx(sol.meta.penetration_lower) and statistic > 0.0
        assert peak < sol.Y.nbytes
