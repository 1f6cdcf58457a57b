"""Noise-path generation and obstacle grids."""
import dataclasses
import logging

import numpy as np
import pytest

from rbdsde import CoefficientSpec, ObstacleSpec, generate_paths, obstacle_on_grid
from rbdsde.paths import worker_count
from rbdsde.scenarios import constant_scenario, stopping_put_scenario, two_barrier_scenario


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

    def test_block_boundary_determinism(self):
        # block size is an internal constant; crossing it must not matter
        sc = constant_scenario(paths=4096 + 123, steps=2)
        p1 = generate_paths(sc)
        p2 = generate_paths(sc)
        assert np.array_equal(p1.dW, p2.dW)


class TestObstacleOnGrid:

    def test_constant_obstacle_and_terminal(self):
        sc = constant_scenario(paths=50, steps=4)
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        assert np.all(grids.lower == -10.0)
        assert np.all(grids.xi == 5.0)
        assert not grids.any_flag

    def test_same_function_matches_terminal_exactly(self):
        sc = stopping_put_scenario(paths=200, steps=6)
        p = generate_paths(sc)
        grids = obstacle_on_grid(sc, p)
        assert np.array_equal(grids.lower[:, -1], grids.xi)
        assert not grids.any_flag

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
        assert np.all(grids.ordering_bad)

    def test_terminal_violation_flagged(self):
        sc = constant_scenario(paths=30, steps=5)
        bad = dataclasses.replace(sc, obstacles=ObstacleSpec(lower=CoefficientSpec.constant(7.0)))
        grids = obstacle_on_grid(bad, generate_paths(bad))
        assert np.all(grids.lower_terminal_bad)

    def test_dimension_mismatch(self):
        sc = constant_scenario(paths=30, steps=5)
        p = generate_paths(sc)
        other = constant_scenario(paths=31, steps=5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            obstacle_on_grid(other, p)
