"""Two-barrier double penalization."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rbdsde import (
    CoefficientSpec,
    ObstacleSpec,
    PenaltySchedule,
    double_skorohod_residuals,
    generate_paths,
    implicit_double_step,
    obstacle_on_grid,
    solve_double,
    solve_penalized,
)
from rbdsde.diagnostics import pooled_se
from rbdsde.scenarios import stopping_drift_scenario, two_barrier_scenario
from tests.test_reflect_one import _hand_ensemble


def _bisect_double(a, l, u, m_dt, n_dt):
    lo, hi = min(a, l) - 1.0, max(a, u) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a + m_dt * max(l - mid, 0.0) - n_dt * max(mid - u, 0.0) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestImplicitDoubleStep:

    def test_interior_untouched(self):
        assert implicit_double_step(0.0, -1.0, 1.0, 5.0, 7.0) == (0.0, 0.0, 0.0)

    def test_lower_branch_fixed_point(self):
        y, dkp, dkm = implicit_double_step(-3.0, -1.0, 1.0, 1.0, 1.0)
        assert y == pytest.approx(-2.0, abs=1e-12)
        assert dkp == pytest.approx(1.0, abs=1e-12)
        assert dkm == 0.0
        assert y == pytest.approx(_bisect_double(-3.0, -1.0, 1.0, 1.0, 1.0), abs=1e-9)

    def test_clamp_limit(self):
        y, dkp, dkm = implicit_double_step(3.0, -1.0, 1.0, 1e6, 1e6)
        assert abs(y - 1.0) < 1e-5
        assert abs(dkm - 2.0) < 1e-5
        assert dkp == 0.0

    def test_barrier_crossing_rejected(self):
        with pytest.raises(ValueError, match="barrier crossing"):
            implicit_double_step(0.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equation_and_exclusivity_on_sampled_grid(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-6, 6, size=300)
        l = rng.uniform(-5, -0.5, size=300)
        u = rng.uniform(0.5, 5, size=300)
        m_dt = rng.uniform(0, 50, size=300)
        n_dt = rng.uniform(0, 50, size=300)
        y, dkp, dkm = implicit_double_step(a, l, u, m_dt, n_dt)
        resid = a + m_dt * np.maximum(l - y, 0.0) - n_dt * np.maximum(y - u, 0.0) - y
        assert np.max(np.abs(resid)) < 1e-10
        assert np.all(dkp * dkm == 0.0)
        oracle = [_bisect_double(*args) for args in zip(a[:15], l[:15], u[:15], m_dt[:15], n_dt[:15])]
        assert np.allclose(y[:15], oracle, atol=1e-8)


_N = 16
_values = hnp.arrays(np.float64, _N, elements=st.floats(-10, 10))
_gaps = hnp.arrays(np.float64, _N, elements=st.floats(1e-6, 10))
_rates = hnp.arrays(np.float64, _N, elements=st.floats(0, 1e3))
_rate = st.one_of(st.floats(0, 1e3), _rates)


class TestImplicitStepProperties:
    """The step against reference formulas written out here: the closed
    one-sided penalty solution and the projection."""

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values, m_dt=_rate)
    def test_absent_upper_is_the_one_sided_penalty(self, a, l, m_dt):
        y, dkp, dkm = implicit_double_step(a, l, np.inf, m_dt, 1.0)
        below = a < l
        assert np.array_equal(y, np.where(below, (a + m_dt * l) / (1 + m_dt), a))
        assert np.array_equal(dkp, np.where(below, y - a, 0.0))
        assert np.all(dkm == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values, n_dt=_rate)
    def test_infinite_rate_is_the_projection(self, a, l, n_dt):
        y, dkp, dkm = implicit_double_step(a, l, np.inf, np.inf, n_dt)
        assert np.array_equal(y, np.maximum(a, l))
        assert np.array_equal(dkp, np.maximum(l - a, 0.0))
        assert np.all(dkm == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values, gap=_gaps)
    def test_two_infinite_rates_clip_to_the_corridor(self, a, l, gap):
        y, dkp, dkm = implicit_double_step(a, l, l + gap, np.inf, np.inf)
        assert np.array_equal(y, np.minimum(np.maximum(a, l), l + gap))
        assert np.array_equal(dkp - dkm, y - a)

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values, gap=_gaps, m_dt=_rates, infinite=hnp.arrays(bool, _N))
    def test_per_entry_infinite_rates_project_those_entries(self, a, l, gap, m_dt, infinite):
        rates = np.where(infinite, np.inf, m_dt)
        y, _, _ = implicit_double_step(a, l, l + gap, rates, 1.0)
        finite_y, _, _ = implicit_double_step(a, l, l + gap, m_dt, 1.0)
        projected = np.where(a < l, l, finite_y)
        assert np.array_equal(y, np.where(infinite, projected, finite_y))

    @settings(max_examples=300, deadline=None)
    @given(a=_values, l=_values, gap=_gaps, m_dt=_rate, n_dt=_rate)
    def test_fixed_point_and_exclusive_pushes(self, a, l, gap, m_dt, n_dt):
        u = l + gap
        y, dkp, dkm = implicit_double_step(a, l, u, m_dt, n_dt)
        resid = a + m_dt * np.maximum(l - y, 0.0) - n_dt * np.maximum(y - u, 0.0) - y
        assert np.max(np.abs(resid)) <= 1e-10
        assert np.all(dkp * dkm == 0.0)


class TestSolveDouble:

    def test_requires_both_barriers(self):
        sc = stopping_drift_scenario(paths=100, steps=4)
        p = generate_paths(sc)
        with pytest.raises(ValueError, match="configuration error"):
            solve_double(sc, p)

    def test_far_upper_barrier_matches_one_barrier_solver(self, fast_cfg):
        sc = stopping_drift_scenario(paths=5000, steps=25)
        both = dataclasses.replace(
            sc,
            obstacles=ObstacleSpec(lower=sc.obstacles.lower,
                                   upper=CoefficientSpec.constant(1000.0)),
        )
        p = generate_paths(sc)
        level = 16.0 / sc.grid.dt
        one = solve_penalized(sc, p, fast_cfg, level=level)
        sched = PenaltySchedule(levels=(level,))
        two, _ = solve_double(both, p, fast_cfg, sched_m=sched, sched_n=sched)
        assert np.array_equal(one.Y, two.Y)
        assert np.array_equal(one.K_plus, two.K_plus)
        assert np.all(two.K_minus == 0.0)

    def test_corridor_band(self, fast_cfg):
        sc = two_barrier_scenario(paths=5000, steps=25)
        p = generate_paths(sc)
        sched = PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-12)
        sol, trace = solve_double(sc, p, fast_cfg, sched_m=sched, sched_n=sched)
        eps = 3.0 * pooled_se(sol)
        assert sol.Y.min() >= -2.0 - eps
        assert sol.Y.max() <= 2.0 + eps

    def test_exclusive_increments_and_monotone_k(self, fast_cfg):
        sc = two_barrier_scenario(paths=5000, steps=25, drift=2.0)
        p = generate_paths(sc)
        sol, _ = solve_double(sc, p, fast_cfg)
        dkp = np.diff(sol.K_plus, axis=1)
        dkm = np.diff(sol.K_minus, axis=1)
        assert np.all(dkp * dkm == 0.0)
        assert np.all(dkp >= 0.0) and np.all(dkm >= 0.0)
        assert np.all(sol.K_plus[:, 0] == 0.0) and np.all(sol.K_minus[:, 0] == 0.0)

    def test_symmetric_scenario_balances(self, fast_cfg):
        # sign-flip oracle: negating both noises maps the solution to -Y and
        # swaps the two reflection processes
        sc = two_barrier_scenario(paths=10_000, steps=25)
        p = generate_paths(sc)
        flipped = dataclasses.replace(
            p, dW=-p.dW, dB=-p.dB, W_state=-p.W_state, B_state=-p.B_state,
        )
        sol, _ = solve_double(sc, p, fast_cfg)
        mirrored, _ = solve_double(sc, flipped, fast_cfg)
        assert np.allclose(sol.Y, -mirrored.Y, atol=1e-9)
        assert np.allclose(sol.K_plus, mirrored.K_minus, atol=1e-9)
        se = 3.0 * pooled_se(sol) + 3.0 * sol.Y[:, 0].std() / np.sqrt(sc.mc_paths)
        assert abs(sol.Y[:, 0].mean()) <= se

    def test_penetration_traces_decrease(self, fast_cfg):
        sc = two_barrier_scenario(paths=5000, steps=25, drift=2.0)
        p = generate_paths(sc)
        sched = PenaltySchedule.geometric(sc.grid.dt, count=5, penetration_tol=1e-14)
        sol, trace = solve_double(sc, p, fast_cfg, sched_m=sched, sched_n=sched)
        uppers = [s.penetration_upper for s in trace.levels]
        assert len(uppers) == 5
        assert all(b < a for a, b in zip(uppers, uppers[1:]))

    def test_crossed_barriers_rejected(self):
        sc = two_barrier_scenario(paths=100, steps=4)
        bad = dataclasses.replace(
            sc,
            obstacles=ObstacleSpec(lower=CoefficientSpec.constant(2.0),
                                   upper=CoefficientSpec.constant(1.0)),
        )
        p = generate_paths(bad)
        with pytest.raises(ValueError, match="barrier crossing"):
            solve_double(bad, p)

    def test_mismatched_schedule_lengths_clamp(self, fast_cfg):
        sc = two_barrier_scenario(paths=3000, steps=10, drift=2.0)
        p = generate_paths(sc)
        sched_m = PenaltySchedule(levels=(10.0,), penetration_tol=1e-14)
        sched_n = PenaltySchedule(levels=(10.0, 40.0, 160.0), penetration_tol=1e-14)
        sol, trace = solve_double(sc, p, fast_cfg, sched_m=sched_m, sched_n=sched_n)
        assert len(trace.levels) == 3
        assert trace.levels[-1].level_lower == 10.0
        assert trace.levels[-1].level_upper == 160.0

    def test_continuity_statistic_shrinks_with_dt(self, fast_cfg):
        stats = {}
        for steps in (50, 100):
            sc = two_barrier_scenario(paths=5000, steps=steps, drift=2.0)
            p = generate_paths(sc)
            sched = PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-8)
            sol, _ = solve_double(sc, p, fast_cfg, sched_m=sched, sched_n=sched)
            stats[steps] = np.median(np.max(np.abs(np.diff(sol.Y, axis=1)), axis=1))
        ratio = stats[50] / stats[100]
        assert 1.15 <= ratio <= 1.6


class TestDoubleSkorohodResiduals:

    def test_zero_processes(self):
        sol = _hand_ensemble([1.0, 0.5, 0.0], [0.0, 0.0, 0.0])
        lower = np.full((1, 3), -2.0)
        upper = np.full((1, 3), 2.0)
        lres, ures = double_skorohod_residuals(sol, lower, upper)
        assert lres[0] == 0.0 and ures[0] == 0.0

    def test_hand_built_upper_contact(self):
        # Y rides the upper barrier where K_minus increases
        sol = _hand_ensemble([2.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        sol = dataclasses.replace(sol, K_minus=np.array([[0.0, 1.0, 1.0]]))
        lower = np.full((1, 3), -3.0)
        upper = np.array([[2.0, 1.0, 1.0]])
        lres, ures = double_skorohod_residuals(sol, lower, upper)
        assert ures[0] == 0.0

    def test_converged_residuals_within_tolerance(self, fast_cfg):
        sc = two_barrier_scenario(paths=5000, steps=25, drift=2.0)
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        sched = PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-12)
        sol, _ = solve_double(sc, p, fast_cfg, sched_m=sched, sched_n=sched)
        lres, ures = double_skorohod_residuals(sol, grids.lower, grids.upper)
        assert abs(lres.mean()) <= max(5.0 * sc.grid.dt * sol.K_plus[:, -1].mean(), 1e-10)
        assert abs(ures.mean()) <= max(5.0 * sc.grid.dt * sol.K_minus[:, -1].mean(), 1e-10)
