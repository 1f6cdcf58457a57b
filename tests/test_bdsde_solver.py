"""Unreflected backward solver."""
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rbdsde
from rbdsde import (
    CoefficientSpec,
    Dimensions,
    ObstacleSpec,
    RegressionConfig,
    check_comparison,
    generate_paths,
    obstacle_on_grid,
    solve_bdsde,
    solve_reflected,
)
from rbdsde import bdsde_solver
from rbdsde.bdsde_solver import _checked_grid, _noise_matrix, solve_backward
from rbdsde.diagnostics import z_se_per_step
from rbdsde.scenarios import (
    constant_g_scenario,
    constant_scenario,
    linear_drift_scenario,
    shift_terminal,
    stopping_drift_scenario,
    two_barrier_scenario,
)
from tests.hand_built import from_dense


class TestConstantPropagation:

    def test_constant_exact(self):
        sc = constant_scenario(paths=4000, steps=20)
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p)
        assert np.max(np.abs(sol.Y - 5.0)) < 1e-10
        assert np.all(sol.K_plus == 0.0) and np.all(sol.K_minus == 0.0)

    def test_z_is_regression_noise(self):
        sc = constant_scenario(paths=4000, steps=20)
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p)
        se = z_se_per_step(sol, sc.grid.dt)
        # the 1e-11 floor covers pure rounding noise when both sides are ~0
        for i in range(sc.grid.steps):
            rms = np.sqrt(np.mean(sol.Z[:, i, 0] ** 2))
            assert rms <= 4.0 * se[i, 0] + 1e-11

    def test_terminal_layer_exact(self):
        sc = constant_scenario(paths=500, steps=5)
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        sol = solve_bdsde(sc, p)
        assert np.array_equal(sol.Y[:, -1], grids.xi)


class TestLinearDrift:

    def test_matches_exponential_growth(self):
        sc = linear_drift_scenario(paths=4000, steps=64)
        sol = solve_bdsde(sc, generate_paths(sc))
        assert sol.Y[:, 0].mean() == pytest.approx(math.exp(0.5), rel=0.01)

    def test_grid_refinement_monotone(self):
        # deterministic here (constant targets), so strict decrease holds
        errors = []
        for steps in (16, 32, 64):
            sc = linear_drift_scenario(paths=1000, steps=steps)
            sol = solve_bdsde(sc, generate_paths(sc))
            errors.append(abs(sol.Y[:, 0].mean() - math.exp(0.5)))
        assert errors[0] > errors[1] > errors[2]


class TestBackwardIntegral:

    def test_constant_g_reproduces_backward_integral(self):
        sc = constant_g_scenario(paths=5000, steps=20)
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p)
        target = 0.3 * (p.B_state[:, -1, 0] - p.B_state[:, 0, 0])
        assert np.corrcoef(sol.Y[:, 0], target)[0, 1] >= 0.99
        assert sol.Y[:, 0].var() == pytest.approx(0.09, rel=0.10)

    def test_without_db_the_integral_is_lost(self):
        sc = constant_g_scenario(paths=5000, steps=20)
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p, RegressionConfig(include_dB=False))
        target = 0.3 * (p.B_state[:, -1, 0] - p.B_state[:, 0, 0])
        assert sol.Y[:, 0].var() < 0.2 * target.var()


class TestMultiDimensional:

    def test_constant_exact_in_two_dims(self):
        sc = dataclasses.replace(
            constant_scenario(paths=3000, steps=10),
            dims=Dimensions(d=2, l=2),
        )
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p)
        assert sol.Z.shape == (3000, 10, 2)
        assert np.max(np.abs(sol.Y - 5.0)) < 1e-10

    def test_vector_noise_carries_both_components(self):
        sc = dataclasses.replace(
            constant_g_scenario(paths=4000, steps=10),
            dims=Dimensions(d=1, l=2),
            noise_coeff=CoefficientSpec.constant([0.3, 0.1]),
        )
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p)
        target = 0.3 * p.B_state[:, -1, 0] + 0.1 * p.B_state[:, -1, 1]
        assert np.corrcoef(sol.Y[:, 0], target)[0, 1] >= 0.99
        assert sol.Y[:, 0].var() == pytest.approx(0.09 + 0.01, rel=0.15)


    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_shared_noise_coefficient_gives_the_products_of_a_full_matrix(self, l):
        # a coefficient returned as one M vector serves all l components
        rng = np.random.default_rng(l)
        g, w, d_b = rng.normal(size=4097), rng.normal(size=(4097, 1)), rng.normal(size=(4097, l))
        spec = CoefficientSpec.hook(lambda t, w, y, z: g)
        matrix = _noise_matrix(spec, 0.0, w, g, np.zeros((4097, 1)), l)
        full = np.repeat(g[:, None], l, axis=1)
        assert np.array_equal(matrix, full)
        assert (np.einsum("ml,ml->m", matrix, d_b).tobytes()
                == np.einsum("ml,ml->m", full, d_b).tobytes())
        if l == 1:
            assert np.shares_memory(matrix, g) and not matrix.flags.writeable


# -0.5 max(x, 0): -0.0 wherever x <= 0
_NEGATED_CALL = CoefficientSpec.hook(lambda t, w, y, z: -0.5 * np.maximum(w[:, 0], 0.0))
_NEGATED_Y_CALL = CoefficientSpec.hook(lambda t, w, y, z: -0.5 * np.maximum(y, 0.0))


class TestZeroNoise:
    """For the zero G the backward term G . dB is the number 0.0: no dB is
    read, so B is not drawn, and every bit of the einsum path is kept."""

    def test_zero_term_has_the_einsum_bits(self):
        # rows holding -0.0 beside negative dB, where 0.0 * dB is -0.0
        y = np.array([-0.0, -0.0, 0.0, -0.0, 1.5, -2.0])
        m = y.size
        sc = constant_scenario(paths=m, steps=1)
        p = rbdsde.NoisePaths(dW=np.zeros((m, 1, 1)), seed=0,
                              dB=np.array([-0.3, -1e-300, -0.2, 0.4, -0.5, 0.1]).reshape(m, 1, 1))
        w, z = np.zeros((m, 1)), np.zeros((m, 1))
        term = bdsde_solver._noise_increments(sc, 0.0, w, y, z, p, 0)
        einsum = np.einsum("ml,ml->m", _noise_matrix(sc.noise_coeff, 0.0, w, y, z, 1), p.dB[:, 0, :])
        assert term == 0.0 and not np.signbit(term)
        # the sweep's continuation target
        assert (np.add(y, term, out=np.empty(m)).tobytes()
                == np.add(y, einsum, out=np.empty(m)).tobytes())
        # a row of coefficient_steps
        by_term, by_einsum = y.copy(), y.copy()
        by_term += term
        by_einsum += einsum
        assert by_term.tobytes() == by_einsum.tobytes()

    def test_sweep_and_coefficient_steps_keep_the_einsum_bits(self, block_fills):
        # xi and the driver hold -0.0 on about half the paths; a hook G of
        # zeros takes the einsum path, and draws B with W
        sc = dataclasses.replace(stopping_drift_scenario(paths=3000, steps=8),
                                 terminal=_NEGATED_CALL, driver=_NEGATED_Y_CALL,
                                 obstacles=ObstacleSpec())
        by_einsum = dataclasses.replace(
            sc, noise_coeff=CoefficientSpec.hook(lambda t, w, y, z: np.zeros(len(w))))
        cfg = RegressionConfig(degree_w=2, include_dB=False)
        eager = generate_paths(by_einsum)
        assert np.any(eager.dB < 0.0)
        block_fills.clear()
        lazy = generate_paths(sc)
        sols = {"zero": solve_bdsde(sc, lazy, cfg), "einsum": solve_bdsde(by_einsum, eager, cfg)}
        assert np.any(np.signbit(sols["zero"].obstacle_grid.xi) & (sols["zero"].obstacle_grid.xi == 0))
        for name in ("Y", "Z"):
            assert getattr(sols["zero"], name).tobytes() == getattr(sols["einsum"], name).tobytes()
        for lag, martingale in ((0, False), (1, False), (1, True)):
            steps = [bdsde_solver.coefficient_steps(sol.rows(), scenario, paths, lag, martingale)
                     for sol, scenario, paths in ((sols["zero"], sc, lazy),
                                                  (sols["einsum"], by_einsum, eager))]
            assert steps[0].tobytes() == steps[1].tobytes(), (lag, martingale)
        assert block_fills == [0]

    def test_db_columns_draw_b_in_the_solve(self, block_fills):
        sc = two_barrier_scenario(paths=5000, steps=8, width=0.8, drift=0.6)
        cfg = RegressionConfig(degree_w=1, include_dB=True)
        drawn = generate_paths(sc)
        drawn.dB
        lazy = generate_paths(sc)
        block_fills.clear()
        sol = solve_bdsde(sc, lazy, cfg)
        assert block_fills == [1, 1] and sol.store.db is lazy.dB
        assert lazy.dB.tobytes() == drawn.dB.tobytes()
        assert sol.Y.tobytes() == solve_bdsde(sc, drawn, cfg).Y.tobytes()

    def test_a_noise_coefficient_reads_the_b_drawn_with_w(self, block_fills):
        sc = constant_g_scenario(paths=5000, steps=8)
        p = generate_paths(sc)
        assert sorted(block_fills) == [0, 0, 1, 1]
        sol = solve_bdsde(sc, p, RegressionConfig(include_dB=True))
        # the sweep reads the B drawn with W, and draws no other
        assert len(block_fills) == 4 and sol.store.db is p.dB
        assert np.corrcoef(sol.Y[:, 0], p.B_state[:, -1, 0])[0, 1] >= 0.99


class TestComparisonInvariant:

    def test_shifted_terminal_dominates(self, fast_cfg):
        sc = dataclasses.replace(
            linear_drift_scenario(paths=5000, steps=32),
            terminal=CoefficientSpec.payoff_neg_part(),
        )
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p, fast_cfg)
        sol_up = solve_bdsde(shift_terminal(sc, 0.5), p, fast_cfg)
        result = check_comparison(sol, sol_up, p)
        assert result.passed
        assert result.violation_fraction <= 0.01


class TestLayout:

    @pytest.mark.parametrize("solve", ["bdsde", "reflected"])
    def test_public_shapes_and_contiguous_time_slices(self, solve):
        sc = dataclasses.replace(stopping_drift_scenario(paths=500, steps=6),
                                 dims=Dimensions(d=2, l=1))
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p) if solve == "bdsde" else solve_reflected(sc, p)[0]
        assert sol.Y.shape == sol.K_plus.shape == sol.K_minus.shape == (500, 7)
        assert sol.Z.shape == (500, 6, 2)
        for i in range(7):
            assert sol.Y[:, i].flags.c_contiguous
            assert sol.K_plus[:, i].flags.c_contiguous and sol.K_minus[:, i].flags.c_contiguous
        for i in range(6):
            assert sol.Z[:, i, :].flags.c_contiguous

    @pytest.mark.parametrize("solve", ["bdsde", "reflected"])
    def test_k_of_an_absent_side_is_an_exact_zero(self, solve):
        sc = stopping_drift_scenario(paths=500, steps=6)
        p = generate_paths(sc)
        if solve == "bdsde":
            sol = solve_bdsde(sc, p)
            absent = (sol.K_plus, sol.K_minus)
        else:
            sol = solve_reflected(sc, p)[0]
            assert sol.K_plus[:, -1].max() > 0.0
            absent = (sol.K_minus,)
        for k in absent:
            assert k.shape == (500, 7)
            assert np.all(k == 0.0) and not np.any(np.signbit(k))
            assert all(k[:, i].flags.c_contiguous for i in range(7))

    @pytest.mark.parametrize("level", [50.0, np.inf], ids=["penalized", "projected"])
    @pytest.mark.parametrize("sides", ["lower", "upper", "both"])
    def test_k_formed_on_read_is_the_cumsum_of_the_pushes(self, sides, level):
        if sides == "lower":
            sc = stopping_drift_scenario(paths=1000, steps=8)
        else:
            # the drift pushes onto the upper barrier, the noise onto the lower
            sc = two_barrier_scenario(paths=1000, steps=8, width=0.8, drift=0.6)
            if sides == "upper":
                sc = dataclasses.replace(sc, obstacles=ObstacleSpec(upper=sc.obstacles.upper))
        p = generate_paths(sc)
        sol = solve_backward(sc, p, RegressionConfig(degree_w=2), 2, _checked_grid(sc, p), level)
        assert sol.dK.shape == (1000, 8)
        assert all(sol.dK[:, j].flags.c_contiguous for j in range(8))
        signs = {"lower": 1.0, "upper": -1.0}
        for side in ("lower", "upper"):
            pushes = np.maximum(signs[side] * sol.dK, 0.0)
            assert np.any(pushes) == (side in sol.obstacle_grid.sides), side
            whole = np.cumsum(np.concatenate([np.zeros((1000, 1)), pushes], axis=1), axis=1)
            k = sol.k(side)
            assert k.tobytes() == whole.tobytes(), side
            assert all(k[:, i].flags.c_contiguous for i in range(9))
            assert sol.k_terminal(side).tobytes() == whole[:, -1].tobytes(), side
            # one buffer, which each step's adds overwrite, ending at K_T
            rows = list(sol.k_rows(side))
            assert len(rows) == 9 and all(row is rows[0] for row in rows), side
            assert rows[-1].tobytes() == sol.k_terminal(side).tobytes(), side
        assert sol.K_plus.tobytes() == sol.k("lower").tobytes()
        assert sol.K_minus.tobytes() == sol.k("upper").tobytes()


def _z_corridor():
    """A corridor in d = l = 2 with a shaped lower barrier, dB columns and a
    driver of Z, solved at level 50: every input of a step's basis."""
    sc = dataclasses.replace(
        two_barrier_scenario(paths=3000, steps=6, width=0.8, drift=0.6),
        dims=Dimensions(d=2, l=2),
        driver=CoefficientSpec.linear(a_y=-0.2, a_z=(0.3, -0.1), c=0.6),
        noise_coeff=CoefficientSpec.constant(0.2),
        obstacles=ObstacleSpec(lower=CoefficientSpec.clamp(-2.0, -0.9),
                               upper=CoefficientSpec.constant(0.8)))
    return sc, RegressionConfig(degree_w=2, include_dB=True), 50.0


class TestZStore:
    """Z is held as each step's z-fit coefficients and formed where it is
    read, by the sweep's basis walk and fitted-rows product."""

    @pytest.mark.parametrize("case", ["constant_g", "corridor"])
    def test_every_read_has_the_sweep_bits(self, monkeypatch, case):
        if case == "constant_g":
            # 5000 paths: the last of the path blocks is a partial one
            sc = constant_g_scenario(paths=5000, steps=6, beta=0.3)
            cfg, level = RegressionConfig(degree_w=4, include_dB=True), np.inf
        else:
            sc, cfg, level = _z_corridor()
        p = generate_paths(sc)
        fitted = []
        fit = bdsde_solver.condexp_fit_eval

        def recording(targets, design):
            result = fit(targets, design)
            fitted.append(result[0].copy())
            return result

        monkeypatch.setattr(bdsde_solver, "condexp_fit_eval", recording)
        sol = solve_backward(sc, p, cfg, 2, _checked_grid(sc, p), level)
        monkeypatch.undo()
        n, dt = sc.grid.steps, sc.grid.dt
        # each step fits rough, Z and continuation in turn, from the last step back
        swept = {n - 1 - k: np.divide(z, dt) for k, z in enumerate(fitted[1::3])}
        z = sol.Z
        assert z.shape == (sc.mc_paths, n, sc.dims.d)
        read = [i for i, row in sol.z_rows()
                if row.tobytes() == swept[i].tobytes() == z[:, i, :].tobytes()]
        assert read == list(range(n - 1, -1, -1))

    def test_the_paths_a_store_keeps_are_read_only(self):
        sc, cfg, level = _z_corridor()
        p = generate_paths(sc)
        sol = solve_backward(sc, p, cfg, 2, _checked_grid(sc, p), level)
        for kept in (p.dW, p.dB, sol.store.w.increments, sol.store.db):
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0, 0] = 1.0

    def test_store_keeps_the_coefficients_and_what_forms_the_basis(self):
        sc, cfg, level = _z_corridor()
        p = generate_paths(sc)
        sol = solve_backward(sc, p, cfg, 2, _checked_grid(sc, p), level)
        store, b = sol.store, sol.meta.basis_size
        for fits, shape in ((store.rough, (b, 2)), (store.z, (b, sc.dims.d)),
                            (store.continuation, (b,))):
            assert len(fits) == sc.grid.steps and all(beta.shape == shape for beta in fits)
        assert store.w is p._w and store.db is p.dB and store.shaped == ("lower",)
        # and what the Y step reads besides the fits
        assert store.driver is sc.driver and store.rate == level * sc.grid.dt and store.picard == 2
        assert store.times.tobytes() == sc.grid.times.tobytes() and store.dt == sc.grid.dt
        # without dB columns the store does not keep dB alive
        plain = solve_bdsde(sc, p, RegressionConfig(degree_w=2, include_dB=False))
        assert plain.store.db is None and plain.store.shaped == ()

    def test_hand_built_dense_z_reads_back(self):
        sc = constant_g_scenario(paths=200, steps=4)
        sol = solve_bdsde(sc, generate_paths(sc))
        dense = from_dense(sol.Y, sol.Z, sol.pushes, sol.meta)
        assert dense.Z.tobytes() == sol.Z.tobytes()
        assert dense.Y.tobytes() == sol.Y.tobytes() and dense.shape == sol.shape
        assert dense.store.nbytes == sol.Y.nbytes + sol.Z.nbytes
        with pytest.raises(ValueError, match="Z shape inconsistent with Y"):
            from_dense(sol.Y, sol.Z[:, 1:], sol.pushes, sol.meta)


class TestYStore:
    """Y is held as each step's fit coefficients and formed where it is
    read, by the sweep's basis walk, fitted-rows products, Picard passes
    and reflection."""

    @pytest.mark.parametrize("case", ["ladder_level", "corridor", "no_picard"])
    def test_every_read_has_the_sweep_bits(self, monkeypatch, case):
        if case == "ladder_level":
            # one level of a lower-barrier ladder, which factors its designs
            sc, picard = stopping_drift_scenario(paths=5000, steps=6), 2
            cfg = RegressionConfig(degree_w=3, include_dB=False)
            schedule = rbdsde.PenaltySchedule(levels=(50.0,), penetration_tol=0.0)
        else:
            # a driver of Y and Z, so the Picard passes read both rows
            sc, cfg, level = _z_corridor()
            picard = 2 if case == "corridor" else 0
        p = generate_paths(sc)
        swept = []
        reflect = bdsde_solver._reflect

        def recording(y, *args):
            result = reflect(y, *args)
            swept.append(y.tobytes())
            return result

        monkeypatch.setattr(bdsde_solver, "_reflect", recording)
        if case == "ladder_level":
            sol, _ = solve_reflected(sc, p, cfg, picard, schedule)
        else:
            sol = solve_backward(sc, p, cfg, picard, _checked_grid(sc, p), level)
        monkeypatch.undo()
        n = sc.grid.steps
        # each step reflects the row it solved, from the last step back
        assert len(swept) == n
        y, z = sol.Y, sol.Z
        assert y.shape == sol.shape == (sc.mc_paths, n + 1)
        assert y[:, n].tobytes() == sol.obstacle_grid.xi.tobytes()
        read = []
        for i, y_i, z_i in sol.rows():
            if i == n:
                assert y_i.tobytes() == y[:, n].tobytes() and z_i is None
            elif y_i.tobytes() == swept[n - 1 - i] == y[:, i].tobytes():
                read.append(i)
                assert z_i.tobytes() == z[:, i, :].tobytes()
        assert read == list(range(n - 1, -1, -1))


class TestWorkingSet:
    """A sweep holds one step's work at a time."""

    # M-rows a step may hold beside its design: the sweep's running rows,
    # the step's targets, fitted rows and residuals, and its rows of the
    # drift and of Z
    STEP_ROWS = 16

    def test_traced_peak_is_one_design_and_a_few_rows(self):
        sc = constant_g_scenario(paths=20_000, steps=10, beta=0.3)
        p = generate_paths(sc)
        grids = _checked_grid(sc, p)
        tracemalloc.start()
        try:
            sol = solve_backward(sc, p, RegressionConfig(degree_w=4, include_dB=True), 2, grids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # without a barrier nothing can push, and no store is allocated
        assert sol.pushes is None
        assert sol.dK.shape == (sc.mc_paths, sc.grid.steps) and not np.any(sol.dK)
        held = peak - sol.store.nbytes
        # a design of 9 columns; a sweep that builds each basis while it
        # still holds the last step's design and rows reads about 30 rows
        assert sol.meta.basis_size == 9
        assert held < (sol.meta.basis_size + self.STEP_ROWS) * sc.mc_paths * 8

    def test_corridor_holds_only_the_pushes(self):
        # K+ and K- are formed where they are read: the sweep keeps the
        # signed push of each path and step a barrier pushed, and one
        # contact bit per path and step, but no running sum or dense dK
        sc = two_barrier_scenario(paths=20_000, steps=20, width=0.8, drift=0.6)
        p = generate_paths(sc)
        p.dB  # G is zero, so B is drawn on its first read: here, not in the sweep's peak
        grids = _checked_grid(sc, p)
        tracemalloc.start()
        try:
            sol = solve_backward(sc, p, RegressionConfig(degree_w=1, include_dB=True), 2, grids, 50.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        dk = sol.dK
        assert np.any(dk > 0.0) and np.any(dk < 0.0)
        m, n = dk.shape
        pushed = np.count_nonzero(dk)
        assert sol.pushes.nbytes == pushed * 8 + n * m // 8
        # the corridor pushes about 3.5 % of its path-steps, so the store
        # holds about a twentieth of a dense (M, N) array
        assert pushed < 0.05 * m * n
        assert sol.pushes.nbytes < 0.1 * m * n * 8
        row = m * 8
        held = peak - sol.store.nbytes
        assert held < sol.pushes.nbytes + (sol.meta.basis_size + self.STEP_ROWS) * row

    def test_sweep_holds_no_whole_z(self):
        # 30 steps, so a stored (M, N, d) Z would take 30 rows of M numbers:
        # the sweep keeps one row of Z and each step's B x d coefficients
        sc = constant_g_scenario(paths=20_000, steps=30, beta=0.3)
        p = generate_paths(sc)
        grids = _checked_grid(sc, p)
        tracemalloc.start()
        try:
            sol = solve_backward(sc, p, RegressionConfig(degree_w=4, include_dB=True), 2, grids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        b, n = sol.meta.basis_size, sc.grid.steps
        assert sol.store.nbytes == n * b * (2 + sc.dims.d + 1) * 8
        assert peak - sol.store.nbytes < (b + self.STEP_ROWS) * sc.mc_paths * 8

    def test_sweep_holds_no_whole_y(self):
        # 30 steps, so a stored (M, N+1) Y would take 31 rows of M numbers:
        # a reflected sweep keeps one row of Y, each step's fit coefficients
        # and the pushes
        sc = stopping_drift_scenario(paths=20_000, steps=30)
        p = generate_paths(sc)
        grids = _checked_grid(sc, p)
        tracemalloc.start()
        try:
            sol = solve_backward(sc, p, RegressionConfig(degree_w=4, include_dB=False), 2, grids, 50.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.any(sol.dK > 0.0)
        stores = sol.store.nbytes + sol.pushes.nbytes
        assert peak - stores < (sol.meta.basis_size + self.STEP_ROWS) * sc.mc_paths * 8

    def test_a_read_of_y_holds_y_and_a_few_rows(self):
        sc = two_barrier_scenario(paths=20_000, steps=10, width=0.8, drift=0.6)
        p = generate_paths(sc)
        sol = solve_backward(sc, p, RegressionConfig(degree_w=1, include_dB=True), 2,
                             _checked_grid(sc, p), 50.0)
        tracemalloc.start()
        try:
            y = sol.Y
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # W's row, B_T - B_{t_i}, Z's, Y's and the continuation's rows, the
        # step's barrier rows, one block's basis and the reflection's rows
        assert peak - y.nbytes < 8 * sc.mc_paths * 8

    def test_a_read_of_z_holds_a_few_rows(self):
        sc = constant_g_scenario(paths=20_000, steps=10, beta=0.3)
        sol = solve_bdsde(sc, generate_paths(sc), RegressionConfig(degree_w=4, include_dB=True))
        tracemalloc.start()
        try:
            for _ in sol.z_rows():
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # W's row, B_T - B_{t_i}, Z's row and one block's basis, not 9 rows
        assert peak < 4 * sc.mc_paths * 8

    @pytest.mark.parametrize("driver, state_only", [
        (CoefficientSpec.linear(a_w=0.5, c=0.1), True),
        (CoefficientSpec.linear(a_y=-0.5, a_w=0.5, c=0.1), False),
    ], ids=["state_only", "y_dependent"])
    def test_picard_iterations_stop_where_the_driver_ignores_y(self, monkeypatch, driver, state_only):
        sc = dataclasses.replace(stopping_drift_scenario(paths=2000, steps=8), driver=driver)
        p = generate_paths(sc)
        calls = []
        evaluate = CoefficientSpec.evaluate

        def counted(spec, *args, **kwargs):
            calls.append(spec is sc.driver)
            return evaluate(spec, *args, **kwargs)

        monkeypatch.setattr(CoefficientSpec, "evaluate", counted)
        solved = {}
        for iters in (0, 1, 3):
            calls.clear()
            solved[iters] = solve_bdsde(sc, p, picard_iters=iters)
            # one evaluation at t_{i+1} per step, then one per iteration run
            runs = min(iters, 1) if state_only else iters
            assert sum(calls) == sc.grid.steps * (1 + runs), iters
        if state_only:
            # every iteration after the first recomputes the same row
            assert solved[1].Y.tobytes() == solved[3].Y.tobytes()
        else:
            assert not np.array_equal(solved[1].Y, solved[3].Y)


# One sweep of the 9-column bdsde_db basis on 60k paths, hashed: Y and Z of
# a fit with one target row and of fits with several.
_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from rbdsde import RegressionConfig, generate_paths, solve_bdsde
from rbdsde.scenarios import constant_g_scenario
sc = constant_g_scenario(paths=60_000, steps=3, beta=0.3)
sol = solve_bdsde(sc, generate_paths(sc), RegressionConfig(degree_w=4, include_dB=True))
assert sol.meta.basis_size == 9
print(hashlib.sha256(np.ascontiguousarray(sol.Y).tobytes() + np.ascontiguousarray(sol.Z).tobytes()).hexdigest())
"""


def test_bits_do_not_depend_on_blas_threads():
    # BLAS threads may split a matrix-vector product's sum over the paths,
    # which would round it differently for each thread count
    src = str(Path(rbdsde.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests


class TestFailureModes:

    def test_underdetermined_basis(self):
        sc = constant_scenario(paths=4, steps=2)
        p = generate_paths(sc)
        with pytest.raises(ValueError, match="underdetermined basis"):
            solve_bdsde(sc, p)

    def test_path_shape_mismatch(self):
        p = generate_paths(constant_scenario(paths=100, steps=4))
        other = constant_scenario(paths=100, steps=5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            solve_bdsde(other, p)

    def test_non_finite_values_abort_with_step_index(self):
        # superlinear growth overflows the recursion to inf within a few steps
        def explosive(t, w, y, z):
            with np.errstate(over="ignore"):
                return (np.abs(y) + 10.0) ** 3

        sc = dataclasses.replace(
            constant_scenario(paths=200, steps=10),
            driver=CoefficientSpec.hook(explosive),
        )
        p = generate_paths(sc)
        with pytest.raises(RuntimeError, match=r"non-finite values at step \d"):
            solve_bdsde(sc, p)

    @pytest.mark.parametrize("call, message", [
        # G of l + 1 components for l = 1
        (lambda sc, p: solve_bdsde(dataclasses.replace(sc, noise_coeff=CoefficientSpec.hook(
            lambda t, w, y, z: np.zeros((w.shape[0], 2)))), p),
         "noise coefficient returned 2 components, expected 1"),
        (lambda sc, p: solve_backward(sc, p, RegressionConfig(), 0, _checked_grid(sc, p), np.nan),
         "penalty rate must be >= 0"),
        # paths drawn with l = 2 for a scenario with l = 1: dW fits, dB does not
        (lambda sc, p: obstacle_on_grid(sc, generate_paths(dataclasses.replace(
            sc, dims=Dimensions(d=1, l=2)))), "dimension mismatch"),
        (lambda sc, p: rbdsde.dp_stopping_value(sc, lattice_steps=0),
         "lattice_steps must be >= 1"),
    ], ids=["noise_columns", "nan_level", "db_columns", "no_lattice_steps"])
    def test_argument_outside_its_domain_raises(self, call, message):
        sc = constant_scenario(paths=100, steps=4)
        with pytest.raises(ValueError, match=message):
            call(sc, generate_paths(sc))

    def test_meta_records_setup(self):
        sc = constant_scenario(paths=1000, steps=8, seed=9)
        cfg = RegressionConfig(degree_w=2)
        sol = solve_bdsde(sc, generate_paths(sc), cfg, picard_iters=3)
        assert sol.meta.scheme == "plain"
        assert sol.meta.seed == 9
        assert sol.meta.picard_iters == 3
        assert sol.meta.regression == cfg
        assert sol.meta.residual_rms.shape == (8, 3)
