"""Two-barrier double penalization."""
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rbdsde import (
    CoefficientSpec,
    Dimensions,
    ObstacleGrid,
    ObstacleSpec,
    PenalizationTrace,
    PenaltySchedule,
    RegressionConfig,
    Scenario,
    SignedPushes,
    SolutionEnsemble,
    SolveMeta,
    TimeGrid,
    double_skorohod_residuals,
    generate_paths,
    implicit_double_step,
    obstacle_on_grid,
    solve_bdsde,
    solve_double,
    solve_penalized,
    solve_reflected,
)
from rbdsde.bdsde_solver import _reflect
from rbdsde.diagnostics import pooled_se
from rbdsde.reflect_one import penetration_statistic
from rbdsde.reflect_two import _LAW_SLACK, LevelStat, _next_level, _walk_rows
from rbdsde.scenarios import (
    constant_g_scenario,
    constant_scenario,
    stopping_drift_scenario,
    stopping_put_scenario,
    two_barrier_scenario,
)
from tests import test_bdsde_solver
from tests.hand_built import from_dense
from tests.test_reflect_one import _hand_ensemble


def _bisect_double(a, l, u, rate):
    lo, hi = min(a, l) - 1.0, max(a, u) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if a + rate * max(l - mid, 0.0) - rate * max(mid - u, 0.0) - mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestImplicitDoubleStep:

    def test_interior_untouched(self):
        assert implicit_double_step(0.0, -1.0, 1.0, 5.0) == (0.0, 0.0, 0.0)

    def test_lower_branch_fixed_point(self):
        y, dkp, dkm = implicit_double_step(-3.0, -1.0, 1.0, 1.0)
        assert y == pytest.approx(-2.0, abs=1e-12)
        assert dkp == pytest.approx(1.0, abs=1e-12)
        assert dkm == 0.0
        assert y == pytest.approx(_bisect_double(-3.0, -1.0, 1.0, 1.0), abs=1e-9)

    def test_clamp_limit(self):
        y, dkp, dkm = implicit_double_step(3.0, -1.0, 1.0, 1e6)
        assert abs(y - 1.0) < 1e-5
        assert abs(dkm - 2.0) < 1e-5
        assert dkp == 0.0

    def test_barrier_crossing_rejected(self):
        with pytest.raises(ValueError, match="barrier crossing"):
            implicit_double_step(0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("infinity", [np.inf, -np.inf])
    @pytest.mark.parametrize("rate", [0.0, 2.0, np.inf])
    def test_both_barriers_at_one_infinity_cross(self, infinity, rate):
        # an absent side is the infinity given, so a lower barrier at +inf
        # meets the absent upper one, and an upper at -inf the absent lower
        with pytest.raises(ValueError, match="barrier crossing"):
            implicit_double_step(np.zeros(3), infinity, infinity, rate)

    @pytest.mark.parametrize("rate", [np.array([1.0, 2.0]), np.array([1.0]), -0.5, -np.inf,
                                      np.nan, np.float64(np.nan)])
    def test_rate_that_is_not_one_number_at_least_zero_rejected(self, rate):
        with pytest.raises(ValueError, match="penalty rate must be one number >= 0"):
            implicit_double_step(np.zeros(2), np.full(2, -1.0), np.ones(2), rate)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_equation_and_exclusivity_on_sampled_grid(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-6, 6, size=300)
        l = rng.uniform(-5, -0.5, size=300)
        u = rng.uniform(0.5, 5, size=300)
        for rate in rng.uniform(0, 50, size=3):
            y, dkp, dkm = implicit_double_step(a, l, u, rate)
            resid = a + rate * np.maximum(l - y, 0.0) - rate * np.maximum(y - u, 0.0) - y
            assert np.max(np.abs(resid)) < 1e-10
            assert np.all(dkp * dkm == 0.0)
            oracle = [_bisect_double(*args, rate) for args in zip(a[:15], l[:15], u[:15])]
            assert np.allclose(y[:15], oracle, atol=1e-8)


_N = 16
_values = hnp.arrays(np.float64, _N, elements=st.floats(-10, 10))
_gaps = hnp.arrays(np.float64, _N, elements=st.floats(1e-6, 10))
_rate = st.floats(0, 1e3)
_shifts = hnp.arrays(np.float64, _N, elements=st.floats(0, 10))
_fractions = hnp.arrays(np.float64, _N, elements=st.floats(0, 0.5))


class TestImplicitStepProperties:
    """The step against reference formulas written out here: the closed
    one-sided penalty solution and the projection."""

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values, rate=_rate)
    def test_absent_upper_is_the_one_sided_penalty(self, a, l, rate):
        y, dkp, dkm = implicit_double_step(a, l, np.inf, rate)
        below = a < l
        assert np.array_equal(y, np.where(below, np.maximum((a + rate * l) / (1 + rate), a), a))
        assert np.array_equal(dkp, np.where(below, y - a, 0.0))
        assert np.all(dkm == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values)
    def test_infinite_rate_is_the_projection(self, a, l):
        y, dkp, dkm = implicit_double_step(a, l, np.inf, np.inf)
        assert np.array_equal(y, np.maximum(a, l))
        assert np.array_equal(dkp, np.maximum(l - a, 0.0))
        assert np.all(dkm == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values, gap=_gaps)
    def test_two_infinite_rates_clip_to_the_corridor(self, a, l, gap):
        y, dkp, dkm = implicit_double_step(a, l, l + gap, np.inf)
        assert np.array_equal(y, np.minimum(np.maximum(a, l), l + gap))
        assert np.array_equal(dkp - dkm, y - a)

    @settings(max_examples=300, deadline=None)
    @given(a=_values, l=_values, gap=_gaps, rate=_rate)
    def test_fixed_point_and_exclusive_pushes(self, a, l, gap, rate):
        u = l + gap
        y, dkp, dkm = implicit_double_step(a, l, u, rate)
        resid = a + rate * np.maximum(l - y, 0.0) - rate * np.maximum(y - u, 0.0) - y
        assert np.max(np.abs(resid)) <= 1e-10
        assert np.all(dkp * dkm == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(a=_values, l=_values, gap=_gaps, rate=_rate, da=_shifts, dl=_fractions, du=_shifts,
           dr=_rate)
    def test_monotone_in_every_argument(self, a, l, gap, rate, da, dl, du, dr):
        # y rises with a and either barrier; a larger rate pushes y up where
        # a is below the lower barrier and down where it is above the upper
        # one.  The shifted lower barrier stays below the upper one.
        u = l + gap
        y, _, _ = implicit_double_step(a, l, u, rate)
        tol = 1e-12  # rounding of values up to 30
        for shifted in (implicit_double_step(a + da, l, u, rate),
                        implicit_double_step(a, l + dl * gap, u, rate),
                        implicit_double_step(a, l, u + du, rate)):
            assert np.all(shifted[0] >= y - tol)
        stiffer = implicit_double_step(a, l, u, rate + dr)[0]
        assert np.all(stiffer[a < l] >= y[a < l] - tol)
        assert np.all(stiffer[a > u] <= y[a > u] + tol)


def _full_array_step(a, l, u, rate):
    """Reference: the step computed on every entry with np.where, the
    arithmetic of the sweep before it touched only the paths that hit.  A
    push that rounds past the candidate is clamped to it: y never moves
    away from the barrier that pushes it."""

    def toward(x, barrier, hit, clamp):
        pushed = barrier if np.isinf(rate) else clamp((x + rate * barrier) / (1.0 + rate), x)
        return np.where(hit, pushed, x)

    y, dk_plus, dk_minus = a, np.zeros_like(a), np.zeros_like(a)
    if l is not None:
        y = toward(a, l, a < l, np.maximum)
        dk_plus = y - a
    if u is not None:
        pushed = toward(y, u, a > u, np.minimum)
        dk_minus = y - pushed
        y = pushed
    return y, dk_plus, dk_minus


class TestSweepKernel:

    @settings(max_examples=300, deadline=None)
    @given(a=_values, l=_values, gap=_gaps, ties=hnp.arrays(np.int8, _N, elements=st.integers(0, 2)),
           rate=st.one_of(_rate, st.just(np.inf)),
           sides=st.sampled_from(["both", "lower", "upper", "none"]))
    def test_public_step_is_the_sweep_kernel(self, a, l, gap, ties, rate, sides):
        u = l + gap
        a = np.select([ties == 1, ties == 2], [l, u], a)  # ties a == L and a == U
        lower = None if sides in ("upper", "none") else l
        upper = None if sides in ("lower", "none") else u
        public = implicit_double_step(a, -np.inf if lower is None else lower,
                                      np.inf if upper is None else upper, rate)
        # the sweep's call: the candidate row is solved in place and the
        # pushes of the paths in contact come back in path order
        row, dk = a.copy(), np.zeros(_N)
        contact, push = _reflect(row, lower, upper, rate)
        dk[contact] = push
        kernel = row, np.maximum(dk, 0.0), np.maximum(-dk, 0.0)
        reference = _full_array_step(a, lower, upper, rate)
        for got, swept, want in zip(public, kernel, reference):
            assert got.tobytes() == swept.tobytes() == want.tobytes()


class TestPushDirection:
    """At a small rate the rate-weighted mean of a candidate a few ulps
    beyond a barrier can round past the candidate; the push is clamped to
    zero there, so it never points away from its barrier."""

    _RATE = 0.02

    def _near(self, side):
        barrier = np.random.default_rng(0).uniform(-5.0, 5.0, 200_000)
        outward = -np.inf if side == "lower" else np.inf
        return barrier, np.nextafter(np.nextafter(barrier, outward), outward)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_public_step(self, side):
        barrier, a = self._near(side)
        if side == "lower":
            y, push, other = implicit_double_step(a, barrier, np.inf, self._RATE)
            assert np.all(y >= a) and np.all(y <= barrier)
        else:
            y, other, push = implicit_double_step(a, -np.inf, barrier, self._RATE)
            assert np.all(y <= a) and np.all(y >= barrier)
        assert np.all(push >= 0.0) and not np.any(other)
        assert np.array_equal(np.abs(y - a), push)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_sweep_kernel(self, side):
        barrier, a = self._near(side)
        row, dk = a.copy(), np.zeros(a.size)
        if side == "lower":
            contact, push = _reflect(row, barrier, None, self._RATE)
            dk[contact] = push
            assert np.all(dk >= 0.0) and np.all(row >= a)
        else:
            contact, push = _reflect(row, None, barrier, self._RATE)
            dk[contact] = push
            assert np.all(dk <= 0.0) and np.all(row <= a)
        # every candidate lies beyond its barrier
        assert np.all(contact)
        assert np.array_equal(row - a, dk)


def _penetration(excess):
    """Mean over paths of sup_i ((excess)^+)^2, over the whole (M, N+1) array."""
    return float(np.mean(np.max(np.maximum(excess, 0.0), axis=1) ** 2))


def _bit_equal(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def _independent_stat(sol, grids, level, two):
    """The LevelStat of a sweep measured on its arrays."""
    return LevelStat(
        level=level, penetration_lower=penetration_statistic(sol, grids.lower),
        penetration_upper=_penetration(sol.Y - grids.upper) if two else 0.0,
        mean_k_plus_T=float(sol.K_plus[:, -1].mean()),
        mean_k_minus_T=float(sol.K_minus[:, -1].mean()),
    )


def _counting_cholesky(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(1)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


class TestLadderSharing:
    """Every level of a ladder reuses the first level's design factors and
    reports the penetration its sweep kept: the results are those of
    independent sweeps at the same levels, bit for bit."""

    _LEVELS = (1.0, 10.0, 100.0)

    def _check(self, monkeypatch, sc, cfg, ladder, independent):
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        two = grids.upper is not None
        schedule = PenaltySchedule(levels=self._LEVELS, penetration_tol=0.0)
        calls = _counting_cholesky(monkeypatch)
        sol, trace = ladder(sc, p, cfg, schedule)
        assert len(calls) == sc.grid.steps
        del calls[:]
        sweeps = [independent(sc, p, cfg, level) for level in self._LEVELS]
        assert len(calls) == len(self._LEVELS) * sc.grid.steps

        assert not trace.converged and len(trace.levels) == len(self._LEVELS)
        for stat, own, level in zip(trace.levels, sweeps, self._LEVELS):
            assert repr(stat) == repr(_independent_stat(own, grids, level, two))
        last = sweeps[-1]
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert _bit_equal(getattr(sol, name), getattr(last, name)), name
        assert _bit_equal(sol.meta.residual_rms, last.meta.residual_rms)

    def test_one_barrier_ladder_on_a_shaped_barrier(self, monkeypatch, fast_cfg):
        sc = stopping_drift_scenario(paths=3000, steps=12, seed=5)
        assert sc.obstacles.shaped_sides() == ("lower",)
        self._check(monkeypatch, sc, fast_cfg,
                    lambda sc, p, cfg, schedule: solve_reflected(sc, p, cfg, schedule=schedule),
                    lambda sc, p, cfg, level: solve_penalized(sc, p, cfg, level=level))

    def test_corridor_ladder(self, monkeypatch, fast_cfg):
        sc = two_barrier_scenario(paths=3000, steps=12, drift=2.0)

        def one_level(sc, p, cfg, level):
            return solve_double(sc, p, cfg, schedule=PenaltySchedule(levels=(level,)))[0]

        self._check(monkeypatch, sc, fast_cfg,
                    lambda sc, p, cfg, schedule: solve_double(sc, p, cfg, schedule=schedule),
                    one_level)


_WALKED = {
    "stopping_drift": lambda: stopping_drift_scenario(paths=2000, steps=12, seed=5),
    "two_barrier": lambda: two_barrier_scenario(paths=2000, steps=12, drift=2.0),
    "stopping_put": lambda: stopping_put_scenario(paths=2000, steps=12),
    "constant": lambda: constant_scenario(paths=500, steps=12),
}


@pytest.fixture(scope="module", params=sorted(_WALKED))
def level_walk(request, fast_cfg):
    """A scenario, its paths and one independent ``solve_penalized`` sweep
    at each level of its default ladder, in order."""
    sc = _WALKED[request.param]()
    p = generate_paths(sc)
    levels = PenaltySchedule.geometric(sc.grid.dt).levels
    return sc, p, {level: solve_penalized(sc, p, fast_cfg, level=level) for level in levels}


def _meets(sol, tol):
    return sol.meta.penetration_lower <= tol and sol.meta.penetration_upper <= tol


class TestLadderSkipsLevels:
    """The ladder runs only the levels the decay law of the implicit step
    says can converge, and returns the sweep of the level it stops at, bit
    for bit: never an earlier level than a level-by-level walk would."""

    @pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 0.0])
    def test_stops_at_the_walks_first_converged_level_or_later(self, level_walk, fast_cfg, tol):
        sc, p, walk = level_walk
        levels = tuple(walk)
        first = next((level for level in levels if _meets(walk[level], tol)), None)
        sol, trace = solve_double(sc, p, fast_cfg,
                                  schedule=PenaltySchedule(levels, penetration_tol=tol))
        run = [stat.level for stat in trace.levels]
        assert run[0] == levels[0]
        assert all(a < b for a, b in zip(run, run[1:])) and set(run) <= set(levels)
        assert trace.converged == (first is not None)
        assert run[-1] == levels[-1] if first is None else run[-1] >= first
        if tol == 0.0:
            # every level runs, up to the first that converges
            assert run == list(levels[:len(run)])
            assert first is None or run[-1] == first
        for stat in trace.levels:
            own = walk[stat.level]
            assert repr(stat) == repr(LevelStat(
                level=stat.level, penetration_lower=own.meta.penetration_lower,
                penetration_upper=own.meta.penetration_upper,
                mean_k_plus_T=float(own.k_terminal("lower").mean()),
                mean_k_minus_T=float(own.k_terminal("upper").mean())))
        last = walk[run[-1]]
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert _bit_equal(getattr(sol, name), getattr(last, name)), name

    def test_law_can_skip_the_first_level_that_converges(self, fast_cfg):
        # at rates level * dt well below 1 the pushes raise the candidates
        # with the level much faster than the law allows: from r = 0.03 it
        # over-estimates the penetration at r = 1 by more than C
        sc = stopping_drift_scenario(paths=2000, steps=12, seed=5)
        p = generate_paths(sc)
        rates = (0.03, 1.0, 3.0)
        levels = tuple(r / sc.grid.dt for r in rates)
        tol = 1e-2
        walk = [solve_penalized(sc, p, fast_cfg, level=level) for level in levels]
        assert [_meets(sol, tol) for sol in walk] == [False, True, True]
        start = walk[0].meta.penetration_lower
        assert start * ((1 + rates[0]) / (1 + rates[1])) ** 2 > _LAW_SLACK * tol

        sol, trace = solve_double(sc, p, fast_cfg,
                                  schedule=PenaltySchedule(levels, penetration_tol=tol))
        assert [stat.level for stat in trace.levels] == [levels[0], levels[2]]
        assert trace.converged
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert _bit_equal(getattr(sol, name), getattr(walk[2], name)), name

    def test_zero_tolerance_predicts_no_level(self):
        # the infinite level, the projection, has a predicted penetration of
        # 0, which meets a tolerance of 0: still the next level runs
        levels = (1.0, 10.0, np.inf)
        assert _next_level(levels, 0, (0.5, 0.0), 0.0, 0.1) == 1
        assert _next_level(levels, 0, (0.5, 0.0), 1e-9, 0.1) == 2


class TestSweepPenetration:

    def test_one_barrier_sweep_reports_the_statistic(self, fast_cfg):
        sc = stopping_drift_scenario(paths=3000, steps=12, seed=5)
        p = generate_paths(sc)
        sol = solve_penalized(sc, p, fast_cfg, level=1.0)
        grids = obstacle_on_grid(sc, p)
        assert sol.meta.penetration_lower > 0.0
        assert _bit_equal(sol.meta.penetration_lower, penetration_statistic(sol, grids.lower))
        assert sol.meta.penetration_upper == 0.0

    def test_corridor_sweep_reports_both_sides(self, fast_cfg):
        sc = two_barrier_scenario(paths=3000, steps=12, drift=2.0)
        p = generate_paths(sc)
        sol, _ = solve_double(sc, p, fast_cfg, schedule=PenaltySchedule(levels=(1.0,)))
        grids = obstacle_on_grid(sc, p)
        assert sol.meta.penetration_upper > 0.0
        assert _bit_equal(sol.meta.penetration_lower, penetration_statistic(sol, grids.lower))
        assert _bit_equal(sol.meta.penetration_upper, _penetration(sol.Y - grids.upper))

    def test_unreflected_sweep_reports_zero(self):
        sc = two_barrier_scenario(paths=500, steps=6, drift=2.0)
        sol = solve_bdsde(sc, generate_paths(sc))
        assert sol.meta.penetration_lower == sol.meta.penetration_upper == 0.0


class TestSolveDouble:

    def test_ladder_forms_no_whole_k(self, monkeypatch):
        # every level runs; each reads only K_T of its sweep
        sc = two_barrier_scenario(paths=20_000, steps=20, width=0.8, drift=0.6)
        p = generate_paths(sc)
        p.dB  # G is zero, so B is drawn on its first read: here, not in the ladder's peak
        cfg = RegressionConfig(degree_w=1, include_dB=True)
        schedule = PenaltySchedule(levels=(1.0, 10.0, 100.0), penetration_tol=0.0)
        formed = []
        form = SolutionEnsemble.k

        def counted(sol, side):
            formed.append(side)
            return form(sol, side)

        monkeypatch.setattr(SolutionEnsemble, "k", counted)
        tracemalloc.start()
        try:
            sol, trace = solve_double(sc, p, cfg, schedule=schedule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace.levels) == 3 and formed == []
        last = trace.levels[-1]
        assert last.mean_k_plus_T == float(sol.K_plus[:, -1].mean()) > 0.0
        assert last.mean_k_minus_T == float(sol.K_minus[:, -1].mean()) > 0.0
        # beside the fits' coefficients: the pushes' store, one design, a
        # step's working rows, xi and the sweep's row of Y
        row = sc.mc_paths * 8
        held = peak - sol.store.nbytes
        step_rows = test_bdsde_solver.TestWorkingSet.STEP_ROWS
        assert held < sol.pushes.nbytes + (sol.meta.basis_size + step_rows + 2) * row

    def test_lower_only_is_the_one_barrier_ladder(self, fast_cfg):
        sc = stopping_drift_scenario(paths=1000, steps=8)
        p = generate_paths(sc)
        sol, trace = solve_double(sc, p, fast_cfg)
        ref, ref_trace = solve_reflected(sc, p, fast_cfg)
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert _bit_equal(getattr(sol, name), getattr(ref, name)), name
        assert repr(trace) == repr(ref_trace)
        assert sol.meta.scheme == "penalized"

    def test_no_barrier_is_one_unreflected_sweep(self):
        sc = constant_g_scenario(paths=500, steps=6)
        p = generate_paths(sc)
        sol, trace = solve_double(sc, p)
        ref = solve_bdsde(sc, p)
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert _bit_equal(getattr(sol, name), getattr(ref, name)), name
        assert trace == PenalizationTrace(levels=(), converged=True)
        assert sol.meta.scheme == "plain"

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
        two, _ = solve_double(both, p, fast_cfg, schedule=sched)
        assert np.array_equal(one.Y, two.Y)
        assert np.array_equal(one.K_plus, two.K_plus)
        assert np.all(two.K_minus == 0.0)

    def test_corridor_band(self, fast_cfg):
        sc = two_barrier_scenario(paths=5000, steps=25)
        p = generate_paths(sc)
        sched = PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-12)
        sol, trace = solve_double(sc, p, fast_cfg, schedule=sched)
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
        flipped = dataclasses.replace(p, dW=-p.dW, dB=-p.dB)
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
        sol, trace = solve_double(sc, p, fast_cfg, schedule=sched)
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

    def test_continuity_statistic_shrinks_with_dt(self, fast_cfg):
        stats = {}
        for steps in (50, 100):
            sc = two_barrier_scenario(paths=5000, steps=steps, drift=2.0)
            p = generate_paths(sc)
            sched = PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-8)
            sol, _ = solve_double(sc, p, fast_cfg, schedule=sched)
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
        sol = _hand_ensemble([2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0])
        lower = np.full((1, 3), -3.0)
        upper = np.array([[2.0, 1.0, 1.0]])
        lres, ures = double_skorohod_residuals(sol, lower, upper)
        assert ures[0] == 0.0

    def test_a_barrier_given_as_infinity_sums_to_zero(self, fast_cfg):
        # the lower barrier of an upper-only corridor passed as -inf: its
        # excess is -inf at every path the upper barrier pushed
        sc = two_barrier_scenario(paths=3000, steps=12, drift=2.0)
        upper_only = dataclasses.replace(sc, obstacles=ObstacleSpec(upper=sc.obstacles.upper))
        p = generate_paths(upper_only)
        sol, _ = solve_double(upper_only, p, fast_cfg)
        upper = obstacle_on_grid(upper_only, p).upper
        assert np.any(sol.K_minus[:, -1] > 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lres, ures = double_skorohod_residuals(sol, np.full(sol.shape, -np.inf), upper)
        assert np.all(lres == 0.0)
        assert np.all(np.isfinite(ures))

    def test_converged_residuals_within_tolerance(self, fast_cfg):
        sc = two_barrier_scenario(paths=5000, steps=25, drift=2.0)
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        sched = PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-12)
        sol, _ = solve_double(sc, p, fast_cfg, schedule=sched)
        lres, ures = double_skorohod_residuals(sol, grids.lower, grids.upper)
        assert abs(lres.mean()) <= max(5.0 * sc.grid.dt * sol.K_plus[:, -1].mean(), 1e-10)
        assert abs(ures.mean()) <= max(5.0 * sc.grid.dt * sol.K_minus[:, -1].mean(), 1e-10)


def _time_major(a):
    """``a`` laid out as the solver lays out its arrays, each time column
    contiguous."""
    return np.ascontiguousarray(a.T).T


class TestWalkRows:
    """The walk's backward pass over Y's rows and forward pass over K's rows
    give the bits of the whole-array formulas on time-major arrays."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 6), n=st.integers(1, 9),
           sides=st.sampled_from([("lower",), ("upper",), ("lower", "upper")]))
    def test_walk_equals_the_whole_array_formulas(self, seed, m, n, sides):
        rng = np.random.default_rng(seed)
        barriers = {"lower": rng.normal(-1.0, 0.3, (m, n + 1)),
                    "upper": rng.normal(1.0, 0.3, (m, n + 1))}
        y = rng.normal(0.0, 1.0, (m, n + 1))
        # some paths sit exactly on a barrier
        on = rng.random((m, n + 1)) < 0.3
        y[on] = np.where(rng.random((m, n + 1)) < 0.5, barriers["lower"], barriers["upper"])[on]
        y = _time_major(y)
        # per step, the paths in contact and their signed pushes: pushes of
        # either sign, so one side reads paths only the other side pushed,
        # and +0.0, a push that rounded to zero, held at a contact path
        pushes = SignedPushes(m, n)
        for j in range(n):
            contact = rng.random(m) < 0.5
            signs = rng.choice([-1.0, 0.0, 1.0], np.count_nonzero(contact))
            pushes.put(j, contact, signs * rng.exponential(0.1, signs.size) + 0.0)
        # a side missing from the grid is absent: its K is zero and only K is checked
        grid = ObstacleGrid(xi=y[:, -1].copy(), **{side: _time_major(barriers[side])
                                                    for side in sides})
        meta = SolveMeta(scheme="hand", seed=0, n_paths=m, basis_size=1, picard_iters=0,
                         regression=RegressionConfig(), residual_rms=np.zeros((n, 3)))
        sol = from_dense(y, np.zeros((m, n, 1)), pushes, meta, grid)
        slack = 0.2
        walks = _walk_rows(sol, grid, ("lower", "upper"), slack)

        for side, walk in walks.items():
            k = sol.k(side)
            dk = np.diff(k, axis=1)
            if side in sides:
                excess = grid.excess(side, sol.Y)
                positive = np.maximum(excess, 0.0)
                want = (-np.sum(excess[:, :-1] * dk, axis=1),
                        np.mean(np.square(positive), axis=0), np.count_nonzero(excess > slack))
            else:
                assert not np.any(k)
                want = (np.negative(np.zeros(m)), np.zeros(n + 1), 0)
            flat, mean_sq, above = want
            assert walk.flat_off.tobytes() == flat.tobytes()
            assert walk.mean_sq_excess.tobytes() == mean_sq.tobytes()
            assert walk.above_slack == above
            assert walk.mean_k.tobytes() == k.mean(axis=0).tobytes()
            assert walk.k_nondecreasing_from_zero is bool(np.all(k[:, 0] == 0.0)
                                                          and np.all(dk >= 0.0))

    def test_a_push_of_plus_zero_off_the_barrier_adds_nothing(self):
        # a path in contact whose push rounded to +0.0 while Y lies above L:
        # the dense product there is (L - Y) * 0.0 = -0.0, and the sum stays +0.0
        meta = SolveMeta(scheme="hand", seed=0, n_paths=2, basis_size=1, picard_iters=0,
                         regression=RegressionConfig(), residual_rms=np.zeros((2, 3)))
        y = _time_major(np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 1.0]]))
        pushes = SignedPushes(2, 2)
        pushes.put(0, np.array([True, True]), np.array([0.0, -1.0]))
        pushes.put(1, np.array([True, False]), np.array([0.0]))
        grid = ObstacleGrid(xi=y[:, -1].copy(), lower=_time_major(np.zeros((2, 3))))
        sol = from_dense(y, np.zeros((2, 2, 1)), pushes, meta, grid)
        walks = _walk_rows(sol, grid)
        assert walks["lower"].flat_off.tobytes() == np.negative(np.zeros(2)).tobytes()
        # the upper side has no barrier, so path 1's push of -1 is no K-
        assert not np.any(walks["upper"].mean_k)
        assert walks["upper"].flat_off.tobytes() == np.negative(np.zeros(2)).tobytes()

    def test_each_step_is_unpacked_once(self, monkeypatch):
        # both passes read each step's pushed paths, unpacked from its
        # contact bits once: the forward pass hands them to each side's k_rows
        sc = two_barrier_scenario(paths=3000, steps=12, width=0.8, drift=0.6)
        sol, _ = solve_double(sc, generate_paths(sc), RegressionConfig(degree_w=1))
        unpacked = []
        paths = SignedPushes.paths

        def counted(store, j):
            unpacked.append(j)
            return paths(store, j)

        monkeypatch.setattr(SignedPushes, "paths", counted)
        walks = _walk_rows(sol, sol.obstacle_grid, ("lower", "upper"), on_row=lambda *row: None)
        assert sorted(unpacked) == list(range(sc.grid.steps))
        monkeypatch.undo()
        for side, walk in walks.items():
            assert walk.mean_k.tobytes() == sol.k(side).mean(axis=0).tobytes(), side
            assert np.any(walk.mean_k), side


def _negated(spec):
    """The coefficient (t, w, y, z) -> -spec(t, w, -y, -z)."""
    def fn(t, w, y, z):
        return -spec.evaluate(t, w, None if y is None else -y, None if z is None else -z)

    return CoefficientSpec.hook(fn, lip_const=spec.lip_const, alpha=spec.alpha)


def _mirror(s):
    """The upper-barrier problem that Y -> -Y maps a lower-barrier problem
    to: xi -> -xi, f(y, z) -> -f(-y, -z), g(y, z) -> -g(-y, -z), L -> -U.  A
    constant barrier stays constant, so it adds no basis column on either
    side."""
    lower = s.obstacles.lower
    upper = (CoefficientSpec.constant(-lower.param("value")) if lower.kind == "constant"
             else _negated(lower))
    return dataclasses.replace(
        s, terminal=_negated(s.terminal), driver=_negated(s.driver),
        noise_coeff=_negated(s.noise_coeff), obstacles=ObstacleSpec(upper=upper))


class TestMirror:
    """An upper barrier alone is the mirror of a lower one: the sweep gives
    -Y, -Z and K- = K+ exactly (an exact zero may differ in sign), and the
    ladder takes the same levels with the same penetrations."""

    @settings(max_examples=40, deadline=None)
    @given(
        shaped=st.booleans(),
        height=st.floats(-0.5, 0.0),
        a_y=st.floats(-1.0, 1.0),
        cost=st.floats(0.0, 2.0),
        beta=st.sampled_from([0.0, 0.3]),
        degree=st.integers(1, 4),
        include_db=st.booleans(),
        levels=st.sampled_from([(4.0,), (4.0, 64.0), (4.0, 64.0, math.inf)]),
        seed=st.integers(0, 2**16),
    )
    def test_upper_only_solve_is_the_mirrored_lower_solve(self, shaped, height, a_y, cost, beta,
                                                          degree, include_db, levels, seed):
        barrier = CoefficientSpec.payoff_neg_part() if shaped else CoefficientSpec.constant(height)
        sc = Scenario(
            grid=TimeGrid(horizon=1.0, steps=6), dims=Dimensions(),
            terminal=CoefficientSpec.payoff_neg_part(),
            driver=CoefficientSpec.linear(a_y=a_y, a_z=(0.0,), c=-cost),
            noise_coeff=CoefficientSpec.constant(beta),
            obstacles=ObstacleSpec(lower=barrier), mc_paths=300, seed=seed,
        )
        p = generate_paths(sc)
        cfg = RegressionConfig(degree_w=degree, include_dB=include_db)
        schedule = PenaltySchedule(levels=levels, penetration_tol=0.0)
        low, low_trace = solve_reflected(sc, p, cfg, schedule=schedule)
        up, up_trace = solve_double(_mirror(sc), p, cfg, schedule=schedule)

        assert np.array_equal(up.Y, -low.Y)
        assert np.array_equal(up.Z, -low.Z)
        assert np.array_equal(up.K_minus, low.K_plus)
        assert not np.any(up.K_plus)
        assert up.meta.scheme == low.meta.scheme
        assert up_trace.converged == low_trace.converged
        assert len(up_trace.levels) == len(low_trace.levels)
        for u, l in zip(up_trace.levels, low_trace.levels):
            assert (u.penetration_upper, u.penetration_lower) == (l.penetration_lower, 0.0)
            assert (u.mean_k_minus_T, u.mean_k_plus_T) == (l.mean_k_plus_T, 0.0)
