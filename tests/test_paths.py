"""Noise-path generation and obstacle grids."""
import dataclasses
import json
import logging
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rbdsde import (
    CoefficientSpec,
    Dimensions,
    NoisePaths,
    ObstacleGrid,
    ObstacleSpec,
    PenaltySchedule,
    RegressionConfig,
    apriori_statistic,
    check_comparison,
    generate_paths,
    obstacle_on_grid,
    skorohod_sup_formula,
    solve_bdsde,
    solve_double,
    solve_penalized,
    solve_projected,
    solve_reflected,
    stopping_rule_value,
)
from rbdsde import cli
from rbdsde.bdsde_solver import _checked_grid, solve_backward
from rbdsde.model import ConfigError
from rbdsde import paths as paths_module
from rbdsde.oracles import FixedRule, HittingRule
from rbdsde.paths import coarsen, worker_count
from rbdsde.scenarios import (
    constant_g_scenario,
    constant_scenario,
    stopping_drift_scenario,
    stopping_put_scenario,
    two_barrier_scenario,
)


def _tiny_scenario(**kw):
    sc = constant_scenario(paths=kw.pop("paths", 2), steps=kw.pop("steps", 1), seed=kw.pop("seed", 42))
    return dataclasses.replace(sc, **kw) if kw else sc


class TestWorkerCount:

    def test_integer_setting_is_used_silently(self, monkeypatch, caplog):
        monkeypatch.setenv("RBDSDE_THREADS", "3")
        with caplog.at_level(logging.WARNING, logger="rbdsde.paths"):
            assert worker_count() == 3
        assert not caplog.records

    def test_non_integer_setting_warns_and_uses_one(self, monkeypatch, caplog):
        monkeypatch.setenv("RBDSDE_THREADS", "four")
        with caplog.at_level(logging.WARNING, logger="rbdsde.paths"):
            assert worker_count() == 1
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "'four'" in caplog.records[0].getMessage()


class TestGeneratePaths:

    def test_bit_reproducible(self):
        sc = _tiny_scenario(seed=42)
        p1 = generate_paths(sc)
        p2 = generate_paths(sc)
        assert np.array_equal(p1.dW, p2.dW)
        assert np.array_equal(p1.dB, p2.dB)

    def test_shapes(self):
        sc = constant_scenario(paths=37, steps=5)
        p = generate_paths(sc)
        assert p.dW.shape == (37, 5, 1)
        assert p.dB.shape == (37, 5, 1)
        assert p.W_state.shape == (37, 6, 1)

    def test_seed_changes_output(self):
        a = generate_paths(constant_scenario(paths=100, steps=3, seed=1))
        b = generate_paths(constant_scenario(paths=100, steps=3, seed=2))
        assert not np.array_equal(a.dW, b.dW)

    def test_gaussian_moments(self):
        # law-of-large-numbers oracle: mean within 4 sigma, variance within 5%
        sc = constant_scenario(paths=100_000, steps=1)
        p = generate_paths(sc)
        dt = sc.grid.dt
        increments = p.dW[:, 0, 0]
        assert abs(increments.mean()) <= 4.0 * np.sqrt(dt / sc.mc_paths)
        assert abs(increments.var() / dt - 1.0) <= 0.05

    def test_streams_independent(self):
        sc = constant_scenario(paths=100_000, steps=1)
        p = generate_paths(sc)
        corr = np.corrcoef(p.dW[:, 0, 0], p.dB[:, 0, 0])[0, 1]
        assert abs(corr) <= 0.02

    def test_cumulative_consistency_exact(self):
        sc = constant_scenario(paths=500, steps=17)
        p = generate_paths(sc)
        for i in range(sc.grid.steps):
            assert np.array_equal(p.W_state[:, i + 1], p.W_state[:, i] + p.dW[:, i])
            assert np.array_equal(p.B_state[:, i + 1], p.B_state[:, i] + p.dB[:, i])
        assert np.all(p.W_state[:, 0] == 0.0)

    def test_states_are_the_cumsum_of_increments(self):
        # M is not a multiple of the 4096-path block
        increments = np.random.default_rng(5).normal(size=(9, 5001, 2))
        expected = np.zeros((10, 5001, 2))
        np.cumsum(increments, axis=0, out=expected[1:])
        assert paths_module._cumulative(increments).tobytes() == expected.tobytes()

    def test_block_boundary_determinism(self, monkeypatch):
        # Paths are drawn in blocks of 4096 from per-block streams, so any
        # ensemble is a prefix of a larger one, on either side of a block
        # boundary and for any worker count, also with more workers than
        # blocks and draw buffers.  A short switch interval interleaves the
        # fills, so two of them sharing a buffer would show.
        monkeypatch.setenv("RBDSDE_THREADS", "1")
        full = generate_paths(constant_scenario(paths=8197, steps=2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in ("1", "2", "3", "5"):
                monkeypatch.setenv("RBDSDE_THREADS", threads)
                for m in (2, 4095, 4096, 4097, 8191, 8192, 8197):
                    p = generate_paths(constant_scenario(paths=m, steps=2))
                    assert np.array_equal(p.dW, full.dW[:m]), (threads, m)
                    assert np.array_equal(p.dB, full.dB[:m]), (threads, m)
        finally:
            sys.setswitchinterval(interval)


class TestTimeMajorLayout:
    """Paths and grids are stored time first and indexed path first."""

    @staticmethod
    def _row_major_fill(sc):
        # block b of 4096 paths draws W from Philox sub-stream 2b and B from 2b + 1
        m, n = sc.mc_paths, sc.grid.steps
        key = np.uint64(sc.seed)
        refs = np.empty((m, n, sc.dims.d)), np.empty((m, n, sc.dims.l))
        for block, start in enumerate(range(0, m, 4096)):
            stop = min(start + 4096, m)
            for stream, ref in enumerate(refs, start=2 * block):
                rng = np.random.Generator(np.random.Philox(key=key).jumped(stream))
                ref[start:stop] = rng.standard_normal((stop - start,) + ref.shape[1:]) * np.sqrt(sc.grid.dt)
        return refs

    @pytest.mark.parametrize("threads", ["1", "2", "3", "5"])
    @pytest.mark.parametrize("m", [4095, 4097])
    def test_increments_equal_a_row_major_fill(self, monkeypatch, m, threads):
        monkeypatch.setenv("RBDSDE_THREADS", threads)
        sc = dataclasses.replace(constant_scenario(paths=m, steps=3, seed=11), dims=Dimensions(d=2, l=3))
        p = generate_paths(sc)
        ref_w, ref_b = self._row_major_fill(sc)
        assert np.array_equal(p.dW, ref_w)
        assert np.array_equal(p.dB, ref_b)

    def test_public_shapes_and_contiguous_time_slices(self):
        sc = dataclasses.replace(stopping_drift_scenario(paths=300, steps=7), dims=Dimensions(d=2, l=3))
        p = generate_paths(sc)
        assert p.dW.shape == (300, 7, 2) and p.dB.shape == (300, 7, 3)
        assert p.W_state.shape == (300, 8, 2) and p.B_state.shape == (300, 8, 3)
        grids = obstacle_on_grid(sc, p)
        assert grids.lower.shape == (300, 8) and grids.xi.shape == (300,)
        for i in range(8):
            assert p.W_state[:, i, :].flags.c_contiguous
            assert p.B_state[:, i, :].flags.c_contiguous
            assert grids.lower[:, i].flags.c_contiguous
        for i in range(7):
            assert p.dW[:, i, :].flags.c_contiguous and p.dB[:, i, :].flags.c_contiguous

    def test_coarsened_paths_keep_the_layout(self):
        p = coarsen(generate_paths(constant_scenario(paths=50, steps=6)), 3)
        assert p.dW.shape == (50, 2, 1) and p.W_state.shape == (50, 3, 1)
        assert all(p.W_state[:, i, :].flags.c_contiguous for i in range(3))
        assert all(p.dB[:, i, :].flags.c_contiguous for i in range(2))


class TestCoarsen:

    @pytest.fixture(scope="class")
    def fine(self):
        return generate_paths(constant_scenario(paths=300, steps=12, seed=3))

    def test_factor_one_is_bit_identical(self, fine):
        same = coarsen(fine, 1)
        for name in ("dW", "dB", "W_state", "B_state"):
            assert np.array_equal(getattr(same, name), getattr(fine, name)), name
        assert same.seed == fine.seed

    @pytest.mark.parametrize("k", [2, 3, 4, 6, 12])
    def test_coarse_states_are_every_kth_fine_state(self, fine, k):
        coarse = coarsen(fine, k)
        assert coarse.dW.shape == (300, 12 // k, 1)
        assert np.max(np.abs(coarse.B_state[:, -1] - fine.B_state[:, -1])) <= 1e-12
        assert np.max(np.abs(coarse.W_state - fine.W_state[:, ::k])) <= 1e-12
        assert np.max(np.abs(coarse.B_state - fine.B_state[:, ::k])) <= 1e-12

    @pytest.mark.parametrize("k", [0, 5, 7, 24])
    def test_factor_not_dividing_the_steps_raises(self, fine, k):
        with pytest.raises(ValueError, match="does not divide"):
            coarsen(fine, k)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_constant_g_is_exact_on_every_coarsening(self, k):
        # Y_0 = 0.3 B_T on any grid, so the coarse solves differ by rounding only
        sc = constant_g_scenario(paths=2000, steps=24)
        p = generate_paths(sc)
        coarse = dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, steps=24 // k))
        sol = solve_bdsde(coarse, coarsen(p, k))
        assert np.max(np.abs(sol.Y[:, 0] - 0.3 * p.B_state[:, -1, 0])) <= 1e-8


class TestStoredArrays:
    """Paths and grids hold only what their readers need: the state of B is
    summed when it is read, and a constant barrier is one stored value."""

    def test_noise_paths_store_no_state_array(self):
        assert {f.name for f in dataclasses.fields(NoisePaths)} == {"dW", "dB", "seed"}

    def test_b_state_is_the_forward_running_sum_of_db(self):
        sc = dataclasses.replace(constant_scenario(paths=5001, steps=9, seed=5), dims=Dimensions(l=2))
        p = generate_paths(sc)
        expected = np.zeros((5001, 10, 2))
        for i in range(9):
            expected[:, i + 1] = expected[:, i] + p.dB[:, i]
        b_state = p.B_state
        assert b_state.shape == expected.shape and b_state.tobytes() == expected.tobytes()
        assert all(b_state[:, i, :].flags.c_contiguous for i in range(10))

    def test_constant_corridor_is_held_as_read_only_views(self):
        m, n = 4000, 20
        sc = two_barrier_scenario(paths=m, steps=n)
        p = generate_paths(sc)
        tracemalloc.start()
        try:
            grids = obstacle_on_grid(sc, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for values, value in ((grids.lower, -2.0), (grids.upper, 2.0)):
            assert values.shape == (m, n + 1) and np.all(values == value)
            assert not values.flags.writeable and values.strides[1] == 0
        # xi is one row; the two barriers together take less than another
        assert peak < 2 * m * 8

    def test_ladder_on_a_shaped_barrier_holds_no_barrier_array(self):
        # 40 steps, so a stored (M, N+1) barrier would take 41 rows of M numbers
        sc = stopping_drift_scenario(paths=20_000, steps=40)
        p = generate_paths(sc)
        schedule = PenaltySchedule.geometric(sc.grid.dt, count=2)
        tracemalloc.start()
        try:
            sol, _ = solve_reflected(sc, p, RegressionConfig(degree_w=4, include_dB=False),
                                     schedule=schedule)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        results = sol.store.nbytes + sol.pushes.nbytes
        row = sc.mc_paths * 8
        # beside the results, a solve holds one design, its step's working
        # rows, xi, the step's barrier row and the running penetration
        assert peak - results < (sol.meta.basis_size + 20) * row
        # and the returned ensemble keeps xi and what evaluates the barrier
        assert kept - results < 2 * row

    @pytest.mark.parametrize("level", [50.0, np.inf])
    def test_sweep_on_views_equals_sweep_on_copies(self, level):
        sc = two_barrier_scenario(paths=3000, steps=20, width=0.8, drift=0.6)
        p = generate_paths(sc)
        views = _checked_grid(sc, p)
        copies = ObstacleGrid(xi=views.xi, lower=np.array(views.lower), upper=np.array(views.upper))
        cfg = RegressionConfig(degree_w=1, include_dB=True)
        on_views, on_copies = (solve_backward(sc, p, cfg, 2, grids, level) for grids in (views, copies))
        # the drift pushes onto the upper barrier, the noise onto the lower
        assert np.any(on_views.K_plus) and np.any(on_views.K_minus)
        for name in ("Y", "Z", "K_plus", "K_minus"):
            assert getattr(on_views, name).tobytes() == getattr(on_copies, name).tobytes(), name


class TestObstacleOnGrid:

    def test_constant_obstacle_and_terminal(self):
        sc = constant_scenario(paths=50, steps=4)
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        assert np.all(grids.lower == -10.0)
        assert np.all(grids.xi == 5.0)
        assert grids.flag_messages() == []

    def test_same_function_matches_terminal_exactly(self):
        sc = stopping_put_scenario(paths=200, steps=6)
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        assert np.array_equal(grids.lower[:, -1], grids.xi)
        assert grids.flag_messages() == []

    def test_crossed_barriers_flag_everywhere(self):
        sc = two_barrier_scenario(paths=30, steps=5)
        bad = dataclasses.replace(
            sc,
            obstacles=ObstacleSpec(
                lower=CoefficientSpec.constant(2.0),
                upper=CoefficientSpec.constant(1.0),
            ),
        )
        grids = obstacle_on_grid(bad, generate_paths(bad))
        assert grids.flag_messages()[-1] == "barrier crossing: L >= U at sampled interior points"

    def test_terminal_violation_flagged(self):
        sc = constant_scenario(paths=30, steps=5)
        bad = dataclasses.replace(sc, obstacles=ObstacleSpec(lower=CoefficientSpec.constant(7.0)))
        grids = obstacle_on_grid(bad, generate_paths(bad))
        assert grids.flag_messages() == ["S_T <= xi violated on 30 paths"]

    @pytest.mark.parametrize("side, value", [("lower", -np.inf), ("lower", np.inf),
                                             ("upper", -np.inf), ("upper", np.inf)])
    def test_infinite_barrier_fails_its_condition_in_every_solver(self, side, value):
        sc = two_barrier_scenario(paths=200, steps=5)
        bad = dataclasses.replace(sc, obstacles=dataclasses.replace(
            sc.obstacles, **{side: CoefficientSpec.constant(value)}))
        p = generate_paths(bad)
        symbol = "L" if side == "lower" else "U"
        message = f"-inf < {symbol} < inf violated on 200 paths"
        assert obstacle_on_grid(bad, p).flag_messages()[0] == message
        for solve in (solve_penalized, solve_projected, solve_reflected, solve_double):
            with pytest.raises(ConfigError, match=message):
                solve(bad, p)
        # the unreflected solve never evaluates a barrier
        assert np.array_equal(solve_bdsde(bad, p).Y, solve_bdsde(sc, p).Y)

    def test_dimension_mismatch(self):
        sc = constant_scenario(paths=30, steps=5)
        p = generate_paths(sc)
        other = constant_scenario(paths=31, steps=5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            obstacle_on_grid(other, p)


def _filled(spec, times, w_state):
    """A barrier's (M, N+1) values filled whole, one evaluation per grid
    time: the reference every formed row must equal bit for bit."""
    out = np.empty((len(times), w_state.shape[0]))
    for i in range(len(times)):
        out[i] = spec.evaluate(times[i], w_state[:, i, :])
    return out.T


_BARRIERS = {
    "zero": CoefficientSpec.zero(),
    "constant": CoefficientSpec.constant(-0.25),
    "linear": CoefficientSpec.linear(a_w=0.5, c=-0.1),
    "payoff_put": CoefficientSpec.payoff_put(0.3),
    "payoff_neg_part": CoefficientSpec.payoff_neg_part(),
    "exponential": CoefficientSpec.exponential(0.4),
    "clamp": CoefficientSpec.clamp(-0.5, 0.5),
    "hook": CoefficientSpec.hook(lambda t, w, y, z: np.sin(3.0 * t + w[:, 1]) * w[:, 0]),
}


def _on_w(fn):
    """A barrier hook of t and the first component of W_t."""
    return CoefficientSpec.hook(lambda t, w, y, z: fn(t, w[:, 0]))


# (lower, upper, a message the case must raise); xi = W_T and T = 1
_FLAG_CASES = {
    "non_finite": (_on_w(lambda t, w: np.where(w > 1.0, np.nan, w - 3.0)),
                   _on_w(lambda t, w: np.where(w < -1.0, np.inf, w + 3.0)),
                   "-inf < U < inf"),
    "non_finite_lower_only": (_on_w(lambda t, w: np.where(w > 0.5, -np.inf, w - 3.0)), None,
                              "-inf < L < inf"),
    "lower_above_xi": (_on_w(lambda t, w: w - 1.0 + (t == 1.0) * (w > 0.0) * 1.1),
                       _on_w(lambda t, w: w + 1.0), "S_T <= xi"),
    "upper_below_xi": (_on_w(lambda t, w: w - 1.0),
                       _on_w(lambda t, w: w + 1.0 - (t == 1.0) * (w < 0.0) * 1.1), "xi <= U_T"),
    "interior_crossing": (_on_w(lambda t, w: w - 1.0),
                          _on_w(lambda t, w: np.where((abs(t - 0.5) < 0.01) & (w > 0.5),
                                                      w - 2.0, w + 1.0)),
                          "barrier crossing"),
    # L_T >= U_T is no crossing: only S_T <= xi fails
    "horizon_crossing": (_on_w(lambda t, w: np.where(t == 1.0, w + 0.5, w - 1.0)),
                         _on_w(lambda t, w: np.where(t == 1.0, w + 0.2, w + 1.0)), "S_T <= xi"),
}


def _whole_array_messages(xi, lower, upper):
    """The per-path conditions read from whole (M, N+1) barrier arrays."""
    per_path = [("-inf < xi < inf", ~np.isfinite(xi))]
    per_path += [(f"-inf < {symbol} < inf", ~np.all(np.isfinite(values), axis=1))
                 for symbol, values in (("L", lower), ("U", upper)) if values is not None]
    if lower is not None:
        per_path.append(("S_T <= xi", lower[:, -1] > xi))
    if upper is not None:
        per_path.append(("xi <= U_T", xi > upper[:, -1]))
    msgs = [f"{condition} violated on {int(np.count_nonzero(bad))} paths"
            for condition, bad in per_path if np.any(bad)]
    if lower is not None and upper is not None and np.any(lower[:, :-1] >= upper[:, :-1]):
        msgs.append("barrier crossing: L >= U at sampled interior points")
    return msgs


class TestBarrierRows:
    """A barrier that is not constant is evaluated one time row where it
    is read, with the bits of the barrier filled whole."""

    @pytest.mark.parametrize("kind", sorted(_BARRIERS))
    def test_rows_equal_the_filled_barrier(self, kind):
        spec = _BARRIERS[kind]
        sc = dataclasses.replace(two_barrier_scenario(paths=500, steps=6), dims=Dimensions(d=2),
                                 obstacles=ObstacleSpec(lower=spec, upper=spec))
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        filled = _filled(spec, sc.grid.times, p.W_state)
        for side in ("lower", "upper"):
            for i in range(sc.grid.steps + 1):
                assert grids.row(side, i).tobytes() == filled[:, i].tobytes(), (side, i)
            assert getattr(grids, side).tobytes() == filled.tobytes(), side
        with pytest.raises(dataclasses.FrozenInstanceError):
            grids.lower = filled

    def test_a_spec_needs_the_grid_times_and_w(self):
        spec = CoefficientSpec.payoff_put(0.3)
        with pytest.raises(ValueError, match="needs the grid times and W's rows"):
            ObstacleGrid(xi=np.zeros(3), lower=spec)
        # a grid of arrays keeps neither, and its barriers cannot be swapped
        grid = ObstacleGrid(xi=np.zeros(3), upper=np.ones((3, 2)), times=np.arange(2.0))
        assert grid.sides == ("upper",) and grid.times is None and grid.w is None
        with pytest.raises(TypeError):
            grid.held["lower"] = np.zeros((3, 2))

    def test_whole_barrier_is_formed_on_every_read(self):
        sc = stopping_drift_scenario(paths=200, steps=4)
        grids = obstacle_on_grid(sc, generate_paths(sc))
        first, second = grids.lower, grids.lower
        assert first is not second and first.tobytes() == second.tobytes()

    @pytest.mark.parametrize("steps", [50, 1])  # one step keeps a single mark of W
    def test_whole_barrier_equals_its_stacked_rows(self, steps):
        sc = stopping_drift_scenario(paths=300, steps=steps)
        p = generate_paths(sc)
        assert len(p._w.marks) == (8 if steps == 50 else 1)
        grid = ObstacleGrid(xi=np.zeros(300), lower=CoefficientSpec.payoff_put(0.3),
                            upper=CoefficientSpec.clamp(-0.5, 0.5), times=sc.grid.times, w=p._w)
        for side in ("lower", "upper"):
            rows = np.stack([grid.row(side, i) for i in range(steps + 1)], axis=1)
            assert getattr(grid, side).tobytes() == rows.tobytes(), side

    @pytest.mark.parametrize("case", sorted(_FLAG_CASES))
    def test_row_wise_flags_equal_the_whole_array_formulas(self, case):
        lower, upper, expected = _FLAG_CASES[case]
        sc = dataclasses.replace(two_barrier_scenario(paths=400, steps=6),
                                 terminal=CoefficientSpec.linear(a_w=1.0),
                                 obstacles=ObstacleSpec(lower=lower, upper=upper))
        grids = obstacle_on_grid(sc, generate_paths(sc))
        msgs = grids.flag_messages()
        assert msgs == _whole_array_messages(grids.xi, grids.lower, grids.upper)
        assert any(msg.startswith(expected) for msg in msgs), msgs
        with pytest.raises(ConfigError):
            grids.check_flags()


def _reference_messages(xi, lower, upper):
    """The per-path conditions, counted path by path."""
    msgs = []
    bad = sum(not np.isfinite(x) for x in xi)
    if bad:
        msgs.append(f"-inf < xi < inf violated on {bad} paths")
    for symbol, values in (("L", lower), ("U", upper)):
        if values is not None:
            bad = sum(not all(np.isfinite(v) for v in values[k]) for k in range(len(xi)))
            if bad:
                msgs.append(f"-inf < {symbol} < inf violated on {bad} paths")
    if lower is not None:
        bad = sum(lower[k, -1] > xi[k] for k in range(len(xi)))
        if bad:
            msgs.append(f"S_T <= xi violated on {bad} paths")
    if upper is not None:
        bad = sum(xi[k] > upper[k, -1] for k in range(len(xi)))
        if bad:
            msgs.append(f"xi <= U_T violated on {bad} paths")
    if lower is not None and upper is not None:
        n = lower.shape[1] - 1
        if any(lower[k, i] >= upper[k, i] for k in range(len(xi)) for i in range(n)):
            msgs.append("barrier crossing: L >= U at sampled interior points")
    return msgs


@st.composite
def _grids(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    # few distinct values, so ties and violations are both common
    values = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
    barrier_values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, -np.inf, np.inf, np.nan])
    xi = draw(hnp.arrays(float, (m,), elements=values | barrier_values))
    lower, upper = (draw(st.none() | hnp.arrays(float, (m, n + 1), elements=barrier_values))
                    for _ in range(2))
    return xi, lower, upper


@settings(max_examples=200, deadline=None)
@given(_grids())
def test_flag_messages_match_reference(grid):
    xi, lower, upper = grid
    assert ObstacleGrid(xi=xi, lower=lower, upper=upper).flag_messages() == \
        _reference_messages(xi, lower, upper)


class TestSolvedGridConsumers:
    """Post-solve diagnostics read the solver's checked grid."""

    @pytest.fixture(scope="class")
    def solved(self):
        sc = stopping_drift_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        sol, _ = solve_reflected(sc, p)
        return sc, p, sol

    def test_consumers_do_not_evaluate_the_grid(self, solved, monkeypatch):
        sc, p, sol = solved
        evaluated = []
        original = paths_module._eval_on_grid

        def counting(spec, times, w_state):
            evaluated.append(spec)
            return original(spec, times, w_state)

        monkeypatch.setattr(paths_module, "_eval_on_grid", counting)
        skorohod_sup_formula(sol, sc, p)
        stopping_rule_value(sol, sc, p, FixedRule(index=0))
        apriori_statistic(sol, sc)
        assert evaluated == []

    def test_consumers_read_the_solved_grid_not_the_scenario(self, solved):
        sc, p, sol = solved
        swapped = dataclasses.replace(sc, obstacles=ObstacleSpec(lower=CoefficientSpec.payoff_put(0.5)))
        results = [(skorohod_sup_formula(sol, scenario, p).tobytes(),
                    stopping_rule_value(sol, scenario, p, HittingRule(epsilon=1e-3)),
                    stopping_rule_value(sol, scenario, p, FixedRule(index=3)),
                    apriori_statistic(sol, scenario))
                   for scenario in (sc, swapped)]
        assert results[0] == results[1]

    def test_ensembles_without_a_lower_grid_raise(self, solved):
        sc, p, sol = solved
        unreflected = solve_bdsde(sc, p)
        hand_built = dataclasses.replace(sol, obstacle_grid=None)
        for ensemble in (unreflected, hand_built):
            with pytest.raises(ValueError, match="obstacle grid has no lower obstacle"):
                skorohod_sup_formula(ensemble, sc, p)
            with pytest.raises(ValueError, match="stopping rules need a lower obstacle"):
                stopping_rule_value(ensemble, sc, p, FixedRule(index=0))
        with pytest.raises(ValueError, match="obstacle grid"):
            apriori_statistic(hand_built, sc)
        # both one-barrier representations ignore K-, so a corridor is refused
        corridor = two_barrier_scenario(paths=2000, steps=10, width=0.5)
        corridor_paths = generate_paths(corridor)
        two_barrier, _ = solve_double(corridor, corridor_paths)
        with pytest.raises(ValueError, match="sup formula ignores K- of an upper obstacle"):
            skorohod_sup_formula(two_barrier, corridor, corridor_paths)
        with pytest.raises(ValueError, match="stopping rules ignore K- of an upper obstacle"):
            stopping_rule_value(two_barrier, corridor, corridor_paths, FixedRule(index=0))


def _running_sum_rows(increments):
    """W_0 = 0, W_1 = dW_0, W_{i+1} = W_i + dW_i: the forward running sum
    of (N, M, d) increments, one (M, d) row per grid time."""
    rows = [np.zeros(increments.shape[1:])]
    for j, increment in enumerate(increments):
        rows.append(increment.copy() if j == 0 else rows[-1] + increment)
    return rows


class TestWRows:
    """W is kept as a few rows of its running sum; every other row is formed
    from the kept one below it with the running sum's own adds."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 64), d=st.integers(1, 3), m=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_every_row_is_the_forward_running_sum(self, n, d, m, seed):
        increments = np.random.default_rng(seed).normal(scale=0.1, size=(n, m, d))
        p = NoisePaths(dW=increments.transpose(1, 0, 2), dB=np.zeros((m, n, 1)), seed=seed)
        mirrored = dataclasses.replace(p, dW=-p.dW, dB=-p.dB)
        out = np.empty((m, d))
        for i, expected in enumerate(_running_sum_rows(increments)):
            row = p.w_row(i)
            assert row.shape == (m, d) and row.tobytes() == expected.tobytes(), i
            assert p.w_row(i, out=out) is out and out.tobytes() == expected.tobytes(), i
            # W_0 is +0.0 on both paths; every later row is the exact negative
            flipped = mirrored.w_row(i)
            assert flipped.tobytes() == (-expected).tobytes() if i else np.all(flipped == 0.0), i
            if not row.flags.writeable:  # a kept row, handed out as it is held
                with pytest.raises(ValueError):
                    row[...] = 0.0
        marks = p._w.marks
        assert len(marks) == -(-n // math.isqrt(n + 1))
        with pytest.raises(ValueError):
            marks[...] = 0.0
        with pytest.raises(IndexError):
            p.w_row(n + 1)
        with pytest.raises(IndexError):
            p.w_row(-1)

    def test_generation_holds_the_increments_and_the_kept_rows(self):
        # no (M, N+1, d) state: the traced peak stays below dW, dB, the
        # draw buffers, the kept rows of W and one more row together
        m, n = 20_000, 50
        sc = constant_scenario(paths=m, steps=n)
        tracemalloc.start()
        try:
            generate_paths(sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        workers = min(worker_count(), -(-m // 4096))
        kept = -(-n // math.isqrt(n + 1))
        assert kept == 8
        assert peak < 8 * (2 * n * m + workers * 4096 * n + kept * m + m)


_PUT = {"kind": "payoff_put", "params": {"strike": 0.5}}


def _put_config(driver: float) -> dict:
    return {
        "horizon": 1.0, "steps": 12, "paths": 2000, "seed": 42, "dims": {"d": 1, "l": 1},
        "terminal": _PUT,
        "driver": {"kind": "constant", "params": {"value": driver}},
        "noise": {"kind": "constant", "params": {"value": 0.2}},
        "obstacle": {"lower": _PUT, "upper": "absent"},
        "penalty": {"geometric": {"base": 4.0, "count": 7}, "tol": 1e-4},
        "regression": {"degree_w": 2, "include_dB": True, "ridge": 1e-10},
        "picard_iters": 2,
    }


class TestNoWholeW:
    """No library path forms the whole (M, N+1, d) state of W."""

    @pytest.fixture(autouse=True)
    def whole_w_raises(self, monkeypatch):
        def whole(_):
            raise AssertionError("the whole state of W was formed")

        monkeypatch.setattr(NoisePaths, "W_state", property(whole))

    def test_solvers_and_diagnostics(self):
        put = CoefficientSpec.payoff_put(0.5)
        sc = dataclasses.replace(stopping_drift_scenario(paths=2000, steps=10), terminal=put,
                                 obstacles=ObstacleSpec(lower=put))
        p = generate_paths(sc)
        solve_bdsde(sc, p)
        sol, _ = solve_reflected(sc, p)
        corridor = two_barrier_scenario(paths=2000, steps=10)
        solve_double(corridor, generate_paths(corridor))
        skorohod_sup_formula(sol, sc, p)
        apriori_statistic(sol, sc)
        for rule in (FixedRule(index=3), HittingRule(epsilon=1e-3)):
            stopping_rule_value(sol, sc, p, rule)
        lower, _ = solve_reflected(dataclasses.replace(sc, driver=CoefficientSpec.constant(-1.0)), p)
        assert check_comparison(lower, sol, p).passed
        coarse = dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, steps=5))
        solve_reflected(coarse, coarsen(p, 2))

    def test_cli_commands(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(_put_config(-0.5)))
        b.write_text(json.dumps(_put_config(0.0)))
        assert cli.main(["run", str(a), "--out", str(tmp_path / "run")]) == 0
        assert cli.main(["compare", str(a), str(b), "--out", str(tmp_path / "compare")]) == 0
        assert cli.main(["convergence", str(a), "--grid-refinement",
                         "--out", str(tmp_path / "convergence")]) == 0


def _g0_corridor_config() -> dict:
    return {
        "horizon": 1.0, "steps": 10, "paths": 5000, "seed": 42, "dims": {"d": 1, "l": 1},
        "terminal": {"kind": "clamp", "params": {"lo": -1.0, "hi": 1.0}},
        "driver": {"kind": "constant", "params": {"value": 1.0}},
        "noise": {"kind": "zero", "params": {}},
        "obstacle": {"lower": {"kind": "constant", "params": {"value": -1.0}},
                     "upper": {"kind": "constant", "params": {"value": 1.0}}},
        "penalty": {"geometric": {"base": 4.0, "count": 7}, "tol": 1e-4},
        "regression": {"degree_w": 1, "include_dB": False, "ridge": 1e-10},
        "picard_iters": 2,
    }


class TestBDrawnOnRead:
    """With the zero G, the paths hold B as a draw not yet made: nothing
    but a read of dB draws it, and that read has an eager draw's bits."""

    def test_solves_without_noise_or_db_columns_draw_no_b(self, tmp_path, block_fills):
        cfg = RegressionConfig(degree_w=2, include_dB=False)
        sc = stopping_drift_scenario(paths=5000, steps=8)
        corridor = two_barrier_scenario(paths=5000, steps=8, width=0.8, drift=0.6)
        for scenario, solve in ((sc, solve_reflected), (corridor, solve_double)):
            p = generate_paths(scenario)
            sol, _ = solve(scenario, p, cfg)
            assert sol.Y.shape == (5000, 9) and p.dB_shape == (5000, 8, 1)
            assert isinstance(p._b, paths_module._Undrawn)
        config = tmp_path / "g0.json"
        config.write_text(json.dumps(_g0_corridor_config()))
        assert cli.main(["run", str(config), "--out", str(tmp_path / "run")]) == 0
        # two blocks of W per solve and none of B
        assert block_fills == [0] * 6

    @pytest.mark.parametrize("threads", ["1", "2", "4"])
    def test_first_read_equals_an_eager_draw(self, monkeypatch, threads, block_fills):
        sc = dataclasses.replace(stopping_drift_scenario(paths=8197, steps=4, seed=9),
                                 dims=Dimensions(l=2))
        monkeypatch.setenv("RBDSDE_THREADS", "1")
        eager = generate_paths(dataclasses.replace(sc, noise_coeff=CoefficientSpec.constant(0.2)))
        monkeypatch.setenv("RBDSDE_THREADS", threads)
        reads = {"dB": lambda p: p.dB, "B_state": lambda p: p.B_state,
                 "coarse dB": lambda p: coarsen(p, 2).dB}
        for name, read in reads.items():
            block_fills.clear()
            lazy = generate_paths(sc)
            assert lazy.dW.tobytes() == eager.dW.tobytes() and block_fills == [0, 0, 0]
            first = read(lazy)
            assert first.tobytes() == read(eager).tobytes(), name
            # three blocks of B, drawn once: a second read of the paths draws
            # nothing, and a second coarsening draws the fine B again
            assert block_fills == [0, 0, 0, 1, 1, 1], name
            assert read(lazy).tobytes() == first.tobytes(), name
            assert block_fills == [0, 0, 0, 1, 1, 1] + [1, 1, 1] * (name == "coarse dB"), name
        # the drawn B keeps the layout and is read-only
        lazy = generate_paths(sc)
        assert lazy.dB.strides == eager.dB.strides and not lazy.dB.flags.writeable

    def test_coarsening_leaves_b_undrawn(self, block_fills):
        fine = generate_paths(stopping_drift_scenario(paths=300, steps=12, seed=3))
        eager = coarsen(coarsen(generate_paths(constant_g_scenario(paths=300, steps=12, seed=3)), 2), 3)
        block_fills.clear()
        coarse = coarsen(coarsen(fine, 2), 3)
        assert coarse.dB_shape == (300, 2, 1) and block_fills == []
        assert coarse.dB.tobytes() == eager.dB.tobytes() and block_fills == [1]
        assert isinstance(fine._b, paths_module._Undrawn)
        assert coarse.dB.strides == eager.dB.strides and not coarse.dB.flags.writeable

    def test_a_noise_coefficient_draws_b_with_w(self, block_fills):
        p = generate_paths(constant_g_scenario(paths=5000, steps=4))
        assert sorted(block_fills) == [0, 0, 1, 1] and isinstance(p._b, np.ndarray)
