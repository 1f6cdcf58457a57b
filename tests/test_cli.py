"""CLI config loading, commands, exit codes, output determinism."""
import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rbdsde
from rbdsde import CoefficientSpec, RegressionConfig, bdsde_solver, reflect_one, reflect_two
from rbdsde import cli
from rbdsde import paths as paths_module
from rbdsde.cli import ConfigError, load_config, main
from rbdsde.model import CATALOG_KINDS
from tests.hand_built import from_dense


def _base_config(**overrides):
    cfg = {
        "horizon": 1.0,
        "steps": 20,
        "paths": 4000,
        "seed": 42,
        "dims": {"d": 1, "l": 1},
        "terminal": {"kind": "constant", "params": {"value": 5.0}},
        "driver": {"kind": "zero", "params": {}},
        "noise": {"kind": "zero", "params": {}},
        "obstacle": {"lower": {"kind": "constant", "params": {"value": -10.0}},
                     "upper": "absent"},
        "penalty": {"geometric": {"base": 4.0, "count": 7}, "tol": 1e-4},
        "regression": {"degree_w": 3, "include_dB": True, "ridge": 1e-10},
        "picard_iters": 2,
    }
    cfg.update(overrides)
    return cfg


def _corridor_config(**overrides):
    """A corridor [-1, 1] that both barriers bind: clamped terminal, drift 1,
    backward noise 0.2 and a degree-1 basis."""
    cfg = _base_config(
        steps=50, paths=6000,
        terminal={"kind": "clamp", "params": {"lo": -1.0, "hi": 1.0}},
        driver={"kind": "constant", "params": {"value": 1.0}},
        noise={"kind": "constant", "params": {"value": 0.2}},
        obstacle={"lower": {"kind": "constant", "params": {"value": -1.0}},
                  "upper": {"kind": "constant", "params": {"value": 1.0}}},
        regression={"degree_w": 1, "include_dB": True, "ridge": 1e-10},
    )
    cfg.update(overrides)
    return cfg


def _dumps(cfg) -> str:
    # strict JSON has no Infinity token; 1e999 parses to the same float
    return json.dumps(cfg).replace("Infinity", "1e999")


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(_dumps(cfg))
    return str(path)


class TestLoadConfig:

    def test_round_trip(self, tmp_path):
        spec = load_config(_write(tmp_path, "c.json", _base_config()))
        assert spec.scenario.mc_paths == 4000
        assert spec.scenario.obstacles.sides == ("lower",)
        assert spec.schedule.levels[0] == pytest.approx(20.0)

    def test_unknown_top_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key 'spam'"):
            load_config(_write(tmp_path, "c.json", _base_config(spam=1)))

    def test_unknown_nested_key_with_path(self, tmp_path):
        cfg = _base_config()
        cfg["obstacle"]["lower"]["params"]["typo"] = 3
        with pytest.raises(ConfigError, match="config.obstacle.lower.params"):
            load_config(_write(tmp_path, "c.json", cfg))

    def test_missing_key(self, tmp_path):
        cfg = _base_config()
        del cfg["picard_iters"]
        with pytest.raises(ConfigError, match="missing key 'picard_iters'"):
            load_config(_write(tmp_path, "c.json", cfg))

    def test_hook_is_library_only(self, tmp_path):
        cfg = _base_config(terminal={"kind": "hook", "params": {}})
        with pytest.raises(ConfigError, match="library-only"):
            load_config(_write(tmp_path, "c.json", cfg))

    def test_levels_and_geometric_exclusive(self, tmp_path):
        cfg = _base_config()
        cfg["penalty"] = {"levels": [1.0], "geometric": {"base": 4, "count": 2}, "tol": 1e-4}
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(_write(tmp_path, "c.json", cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")


class TestRunCommand:

    def test_constant_scenario_summary(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _base_config())
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["Y0_mean"] - 5.0) < 1e-10
        assert summary["converged"] is True
        assert summary["diagnostics"]["terminal_exact"] is True
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 22  # header + N+1 rows
        assert lines[0].startswith("t,Y_mean,Y_se,Z_mean_0")

    def test_alpha_validation_exit_2(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["noise"] = {"kind": "zero", "params": {}, "alpha": 1.2}
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        assert "alpha out of (0,1)" in capsys.readouterr().err

    def test_unknown_key_exit_2(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _base_config(spam=1))
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2

    def test_under_resourced_schedule_exit_3(self, tmp_path):
        cfg = _base_config(
            paths=3000,
            terminal={"kind": "payoff_neg_part", "params": {}},
            driver={"kind": "constant", "params": {"value": -1.0}},
            obstacle={"lower": {"kind": "payoff_neg_part", "params": {}}, "upper": "absent"},
        )
        cfg["penalty"] = {"levels": [1.0], "tol": 1e-15}
        cfg_path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main(["run", cfg_path, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False

    def test_two_barrier_run_evaluates_each_barrier_once(self, tmp_path, monkeypatch):
        cfg = _base_config(paths=2000, steps=10, obstacle={
            "lower": {"kind": "constant", "params": {"value": -10.0}},
            "upper": {"kind": "constant", "params": {"value": 10.0}}})
        evaluated = []
        original = paths_module._eval_on_grid

        def counting(spec, times, w_state):
            evaluated.append(spec.param("value"))
            return original(spec, times, w_state)

        monkeypatch.setattr(paths_module, "_eval_on_grid", counting)
        assert main(["run", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]) == 0
        assert sorted(evaluated) == [-10.0, 10.0]

    def test_non_finite_solution_exits_2_without_traceback(self, tmp_path):
        # Run in a subprocess: the overflow warnings are errors under pytest.
        cfg = _base_config(paths=500, steps=10, driver={"kind": "linear", "params": {"a_y": 1e200}},
                           obstacle={"lower": "absent", "upper": "absent"})
        out = tmp_path / "o"
        src = str(Path(rbdsde.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "rbdsde.cli", "run", _write(tmp_path, "c.json", cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "validation: solver produced non-finite values at step 9" in proc.stderr
        summary = json.loads((out / "summary.json").read_text())
        assert summary == {"status": "validation_failed",
                           "errors": ["solver produced non-finite values at step 9"]}

    def test_corridor_timeseries_has_each_sides_penetration(self, tmp_path, monkeypatch):
        solved = []
        solve = cli.solve_double

        def keep(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(cli, "solve_double", keep)
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, "c.json", _corridor_config()), "--out", str(out)]) == 0
        with (out / "timeseries.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["penetration_lower", "penetration_upper"]
        columns = np.array([[float(v) for v in row[-2:]] for row in rows[1:]])
        sol, _ = solved[0]
        grids = sol.obstacle_grid
        # per step, the mean over paths of ((L - Y)^+)^2 and ((Y - U)^+)^2
        for column, excess in zip(columns.T, (grids.lower - sol.Y, sol.Y - grids.upper)):
            np.testing.assert_allclose(column, np.mean(np.maximum(excess, 0.0) ** 2, axis=0),
                                       rtol=1e-12, atol=0.0)
        assert columns[:, 1].max() > 0.0

    @pytest.mark.parametrize("upper", [{"kind": "constant", "params": {"value": 1.0}}, "absent"],
                             ids=["corridor", "lower_only"])
    def test_upper_domination_verdict_exactly_with_an_upper_barrier(self, tmp_path, upper):
        cfg = _corridor_config(paths=2000)
        cfg["obstacle"]["upper"] = upper
        out = tmp_path / "o"
        assert main(["run", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        verdicts = json.loads((out / "summary.json").read_text())["diagnostics"]
        assert "obstacle_domination" in verdicts
        assert ("obstacle_domination_upper" in verdicts) == (upper != "absent")

    @pytest.mark.parametrize("config", [_base_config, _corridor_config],
                             ids=["one_barrier", "corridor"])
    def test_rerun_byte_identical(self, tmp_path, config):
        cfg_path = _write(tmp_path, "c.json", config())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", cfg_path, "--out", str(out1)]) == 0
        assert main(["run", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
        a = json.loads((out1 / "summary.json").read_text())
        b = json.loads((out2 / "summary.json").read_text())
        a["meta"].pop("timestamp")
        b["meta"].pop("timestamp")
        assert a == b


class TestCompareCommand:

    @staticmethod
    def _stopping(**overrides):
        cfg = _base_config(
            paths=5000,
            steps=25,
            terminal={"kind": "payoff_neg_part", "params": {}},
            driver={"kind": "constant", "params": {"value": -1.0}},
            obstacle={"lower": {"kind": "payoff_neg_part", "params": {}}, "upper": "absent"},
            regression={"degree_w": 5, "include_dB": False, "ridge": 1e-10},
        )
        cfg["penalty"] = {"geometric": {"base": 4.0, "count": 7}, "tol": 1e-9}
        cfg.update(overrides)
        return cfg

    def test_ordered_pair_passes(self, tmp_path):
        a = _write(tmp_path, "a.json", self._stopping())
        b = _write(tmp_path, "b.json",
                   self._stopping(driver={"kind": "constant", "params": {"value": -0.5}}))
        out = tmp_path / "o"
        assert main(["compare", a, b, "--out", str(out)]) == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert payload["pass"] is True
        assert payload["dk_pass"] is True
        assert "dk_pass_upper" not in payload

    def test_swapped_pair_fails(self, tmp_path):
        a = _write(tmp_path, "a.json", self._stopping())
        b = _write(tmp_path, "b.json",
                   self._stopping(driver={"kind": "constant", "params": {"value": -0.5}}))
        assert main(["compare", b, a, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("order, code", [("ordered", 0), ("swapped", 1)])
    def test_corridors_check_the_upper_push(self, tmp_path, order, code):
        # the terminal clamp(W_T, -1, 0.5) lies below clamp(W_T, -1, 1), so
        # the upper barrier pushes its solution down at least as much
        low, high = (_write(tmp_path, f"{name}.json", _corridor_config(
            paths=4000, steps=20, terminal={"kind": "clamp", "params": {"lo": -1.0, "hi": hi}}))
            for name, hi in (("low", 0.5), ("high", 1.0)))
        configs = [low, high] if order == "ordered" else [high, low]
        out = tmp_path / "o"
        assert main(["compare", *configs, "--out", str(out)]) == code
        payload = json.loads((out / "comparison.json").read_text())
        assert {"dk_pass", "dk_violation_fraction"} < set(payload)
        fraction = payload["dk_violation_fraction_upper"]
        assert payload["dk_pass_upper"] is (order == "ordered")
        assert fraction == 0.0 if order == "ordered" else fraction > 0.01

    @pytest.mark.parametrize("added_to", ["a", "b"])
    def test_a_barrier_of_one_config_keeps_the_shared_check(self, tmp_path, added_to):
        # the README config against its driver -0.5 variant: adding a barrier
        # that never binds to either config leaves the shared lower check as it is
        base = _readme_config(paths=4000, steps=24)
        configs = {"a": base, "b": {**base, "driver": {"kind": "constant", "params": {"value": -0.5}}}}
        payloads = {}
        for case in ("shared", "added"):
            if case == "added":
                configs[added_to] = {**configs[added_to], "obstacle": {
                    **base["obstacle"], "upper": {"kind": "constant", "params": {"value": 100.0}}}}
            paths = [_write(tmp_path, f"{case}_{name}.json", cfg) for name, cfg in configs.items()]
            out = tmp_path / case
            assert main(["compare", *paths, "--out", str(out)]) == 0
            payloads[case] = json.loads((out / "comparison.json").read_text())
        assert payloads["added"]["dk_pass"] is True
        assert payloads["added"]["dk_violation_fraction"] == 0.0
        assert payloads["added"] == payloads["shared"]

    def test_mismatched_frames_exit_2(self, tmp_path):
        a = _write(tmp_path, "a.json", self._stopping())
        b = _write(tmp_path, "b.json", self._stopping(seed=7))
        assert main(["compare", a, b, "--out", str(tmp_path / "o")]) == 2


class TestConvergenceCommand:

    def test_non_binding_single_row(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _base_config())
        out = tmp_path / "o"
        assert main(["convergence", cfg_path, "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[2] == "0"  # penetration exactly zero

    def test_grid_refinement_rows(self, tmp_path):
        cfg = TestCompareCommand._stopping(steps=24)
        cfg_path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main(["convergence", cfg_path, "--out", str(out), "--grid-refinement"]) == 0
        rows = [r.split(",") for r in (out / "convergence.csv").read_text().splitlines()[1:]]
        penalty_rows = [r for r in rows if r[0] == "penalty"]
        grid_rows = [r for r in rows if r[0] == "grid"]
        pens = [float(r[2]) for r in penalty_rows]
        assert all(b < a for a, b in zip(pens, pens[1:]))
        assert len(grid_rows) == 3
        # continuity statistic shrinks as the grid refines
        stats = [float(r[7]) for r in grid_rows]
        assert stats[0] > stats[1] > stats[2]

    def test_grid_refinement_solves_the_run_paths_on_its_ladder(self, tmp_path, monkeypatch):
        draws, ladders = [], []
        generate, solve = cli.generate_paths, cli.solve_double

        def counted_generate(*args, **kwargs):
            draws.append(args)
            return generate(*args, **kwargs)

        def recorded_solve(*args, **kwargs):
            ladders.append(kwargs["schedule"])
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_paths", counted_generate)
        monkeypatch.setattr(cli, "solve_double", recorded_solve)
        cfg = TestCompareCommand._stopping(steps=24, paths=2000)
        cfg["penalty"] = {"levels": [10.0, 1000.0, 100000.0], "tol": 1e-9}
        cfg_path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main(["convergence", cfg_path, "--out", str(out), "--grid-refinement"]) in (0, 3)
        rows = [r.split(",") for r in (out / "convergence.csv").read_text().splitlines()[1:]]

        assert len(draws) == 1
        assert len(ladders) == 3
        assert all(s.levels == (10.0, 1000.0, 100000.0) for s in ladders)
        last_penalty = [r for r in rows if r[0] == "penalty"][-1]
        (finest,) = [r for r in rows if r[:2] == ["grid", "24"]]
        assert finest[4:6] == last_penalty[4:6]

    def test_grid_refinement_rejects_steps_not_divisible_by_4(self, tmp_path, capsys, monkeypatch):
        sweeps = []
        sweep = bdsde_solver.solve_backward

        def counted(*args, **kwargs):
            sweeps.append(args)
            return sweep(*args, **kwargs)

        for module in (bdsde_solver, reflect_one, reflect_two):
            monkeypatch.setattr(module, "solve_backward", counted)
        cfg_path = _write(tmp_path, "c.json", TestCompareCommand._stopping(steps=25))
        out = tmp_path / "o"
        assert main(["convergence", cfg_path, "--out", str(out), "--grid-refinement"]) == 2
        assert "validation: grid refinement needs a step count divisible by 4" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()
        assert sweeps == []

    def test_requires_obstacle(self, tmp_path):
        cfg = _base_config(obstacle={"lower": "absent", "upper": "absent"})
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main(["convergence", cfg_path, "--out", str(tmp_path / "o")]) == 2


# A lower barrier W_t - 0.5 under the terminal W_T with a running cost 1,
# which binds on [0, 0.5].  Every coefficient is constant or linear, so the
# problem's mirror under Y -> -Y (xi -> -xi, f -> -f, g -> -g, L -> -U) is a
# config too.
_LOWER = {"kind": "linear", "params": {"a_w": 1.0, "c": -0.5}}
_BARRIER_SETS = {
    "none": {"lower": "absent", "upper": "absent"},
    "lower": {"lower": _LOWER, "upper": "absent"},
    "both": {"lower": _LOWER, "upper": {"kind": "linear", "params": {"a_w": 1.0, "c": 1.5}}},
}


def _linear_config(barriers):
    return _base_config(
        paths=2000, steps=10,
        terminal={"kind": "linear", "params": {"a_w": 1.0}},
        driver={"kind": "constant", "params": {"value": -1.0}},
        noise={"kind": "constant", "params": {"value": 0.2}},
        obstacle=_BARRIER_SETS[barriers],
        regression={"degree_w": 2, "include_dB": True, "ridge": 1e-10},
    )


def _mirrored_config():
    """The upper-barrier mirror of ``_linear_config("lower")``."""
    cfg = _linear_config("lower")
    cfg.update(
        terminal={"kind": "linear", "params": {"a_w": -1.0}},
        driver={"kind": "constant", "params": {"value": 1.0}},
        noise={"kind": "constant", "params": {"value": -0.2}},
        obstacle={"lower": "absent", "upper": {"kind": "linear", "params": {"a_w": -1.0, "c": 0.5}}},
    )
    return cfg


class TestBarrierSets:
    """Every barrier set goes through one ``solve_double`` call, and an upper
    barrier alone is the mirror of a lower one."""

    @pytest.mark.parametrize("barriers", ["none", "lower", "upper", "both"])
    def test_one_solve_double_call_gives_the_library_solve(self, tmp_path, monkeypatch, barriers):
        solved = []
        solve = cli.solve_double

        def keep(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(cli, "solve_double", keep)
        cfg = _mirrored_config() if barriers == "upper" else _linear_config(barriers)
        assert main(["run", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(solved) == 1
        (sol, _), = solved

        # the upper-only run is checked against the lower-only solve it mirrors
        spec = load_config(_write(tmp_path, "r.json",
                                  _linear_config("lower" if barriers == "upper" else barriers)))
        sc = spec.scenario
        args = (sc, rbdsde.generate_paths(sc), spec.regression, spec.picard_iters)
        if barriers == "none":
            ref = rbdsde.solve_bdsde(*args)
        elif barriers == "both":
            ref, _ = rbdsde.solve_double(*args, spec.schedule)
        else:
            ref, _ = rbdsde.solve_reflected(*args, schedule=spec.schedule)
        if barriers == "upper":
            assert np.array_equal(sol.Y, -ref.Y) and np.array_equal(sol.Z, -ref.Z)
            assert np.array_equal(sol.K_minus, ref.K_plus) and not np.any(sol.K_plus)
        else:
            for name in ("Y", "Z", "K_plus", "K_minus"):
                assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("barriers", ["lower", "upper", "both"])
    def test_row_wise_checks_equal_the_whole_array_formulas(self, tmp_path, barriers):
        # every barrier binds: the lower of the linear config, its mirror, the corridor
        cfg = {"lower": _linear_config("lower"), "upper": _mirrored_config(),
               "both": _corridor_config(paths=2000)}[barriers]
        path = _write(tmp_path, "c.json", cfg)
        spec = load_config(path)
        sol, _ = cli._solve_for_config(spec, cli._prepare(spec))
        out = tmp_path / "o"
        assert main(["run", path, "--out", str(out)]) == 0
        verdicts = json.loads((out / "summary.json").read_text())["diagnostics"]
        with (out / "timeseries.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        grids, dt = sol.obstacle_grid, spec.scenario.grid.dt
        se = rbdsde.regression_se(sol)
        walks = reflect_two._walk_rows(sol, grids, grids.sides, 3.0 * se)
        for side in grids.sides:
            walk = walks[side]
            # the (M, N+1) formulas that the walk over time rows replaces
            k = sol.k(side)
            excess = grids.excess(side, sol.Y)
            flat = -np.sum(excess[:, :-1] * np.diff(k, axis=1), axis=1)
            positive = np.maximum(excess, 0.0)
            assert walk.flat_off.tobytes() == flat.tobytes()
            assert walk.above_slack == np.count_nonzero(excess > 3.0 * se)
            assert walk.mean_sq_excess.tobytes() == np.mean(np.square(positive), axis=0).tobytes()
            assert walk.mean_sq_excess.max() > 0.0
            # run's verdicts and penetration column are read off the walk
            suffix = cli._SUFFIX[side]
            skorohod = verdicts["skorohod" + suffix]
            assert skorohod["mean_abs_residual"] == float(np.abs(flat).mean()) > 0.0
            assert skorohod["tolerance"] == 5.0 * dt * float(k[:, -1].mean())
            assert (verdicts["obstacle_domination" + suffix]["violation_fraction"]
                    == float(np.mean(excess > 3.0 * se)))
            assert ([float(row["penetration_" + side]) for row in rows]
                    == np.mean(np.square(positive), axis=0).tolist())

    def test_row_wise_k_check_equals_the_whole_array_formula(self, monkeypatch):
        def whole(k):
            return bool(np.all(k[:, 0] == 0.0) and np.all(np.diff(k, axis=1) >= 0))

        rng = np.random.default_rng(3)
        grown = np.cumsum(np.abs(rng.normal(size=(6, 8))), axis=1)
        grown[:, 0] = 0.0
        cases = [grown, np.zeros((6, 8))]
        for index, value in (((2, 5), 0.0), ((1, 0), 1e-300), ((0, 3), np.nan), ((4, 7), np.inf),
                             ((3, 0), -0.0)):
            k = grown.copy()
            k[index] = value
            cases.append(k)
        verdicts = [whole(k) for k in cases]
        assert True in verdicts and False in verdicts
        meta = rbdsde.SolveMeta(scheme="hand", seed=0, n_paths=6, basis_size=1, picard_iters=0,
                                regression=rbdsde.RegressionConfig(),
                                residual_rms=np.zeros((7, 3)))
        for k, verdict in zip(cases, verdicts):
            # the time-major layout of the solver's K, with and without a barrier
            k = np.ascontiguousarray(k.T).T
            y = np.zeros_like(k)
            sol = from_dense(y, np.zeros((6, 7, 1)), None, meta)
            monkeypatch.setattr(rbdsde.SolutionEnsemble, "k_rows", lambda sol, side, pushed=None: iter(k.T))
            grid = rbdsde.ObstacleGrid(xi=y[:, -1], lower=np.full_like(k, -1.0))
            no_barrier = rbdsde.ObstacleGrid(xi=y[:, -1])
            walk = reflect_two._walk_rows(sol, no_barrier, ("lower",))["lower"]
            assert walk.k_nondecreasing_from_zero is verdict
            walk = reflect_two._walk_rows(sol, grid, ("lower",))["lower"]
            assert walk.k_nondecreasing_from_zero is verdict

    def test_k_check_reads_the_side_without_a_barrier(self, tmp_path, monkeypatch):
        form = rbdsde.SolutionEnsemble.k_rows

        def falling_k_minus(sol, side, pushed=None):
            for j, row in enumerate(form(sol, side, pushed)):
                if side == "upper" and j == 3:
                    row = row.copy()
                    row[0] = 1.0  # K- rises at step 3 and falls back at step 4
                yield row

        path = _write(tmp_path, "c.json", _linear_config("lower"))
        verdict = {}
        for name, former in (("kept", form), ("corrupted", falling_k_minus)):
            monkeypatch.setattr(rbdsde.SolutionEnsemble, "k_rows", former)
            assert main(["run", path, "--out", str(tmp_path / name)]) == 0
            summary = json.loads((tmp_path / name / "summary.json").read_text())
            assert "skorohod_upper" not in summary["diagnostics"]
            verdict[name] = summary["diagnostics"]["k_nondecreasing_from_zero"]
        assert verdict == {"kept": True, "corrupted": False}

    def test_upper_only_run_is_the_mirrored_lower_run(self, tmp_path):
        runs = {}
        for name, cfg in (("lower", _linear_config("lower")), ("upper", _mirrored_config())):
            out = tmp_path / name
            assert main(["run", _write(tmp_path, f"{name}.json", cfg), "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            with (out / "timeseries.csv").open() as fh:
                rows = list(csv.DictReader(fh))
            runs[name] = summary, rows
        (lower, lower_rows), (upper, upper_rows) = runs["lower"], runs["upper"]

        verdicts = upper["diagnostics"]
        assert set(verdicts) == {"terminal_exact", "k_nondecreasing_from_zero",
                                 "skorohod_upper", "obstacle_domination_upper"}
        assert verdicts["skorohod_upper"] == lower["diagnostics"]["skorohod"]
        assert verdicts["obstacle_domination_upper"] == lower["diagnostics"]["obstacle_domination"]
        assert (upper["Y0_mean"], upper["Y0_se"]) == (-lower["Y0_mean"], lower["Y0_se"])
        assert (upper["mean_K_minus_T"], upper["mean_K_plus_T"]) == (lower["mean_K_plus_T"], 0.0)
        assert upper["meta"]["scheme"] == lower["meta"]["scheme"] == "penalized"
        assert [(s["penetration_upper"], s["mean_k_minus_T"]) for s in upper["penetration_trace"]] == \
            [(s["penetration_lower"], s["mean_k_plus_T"]) for s in lower["penetration_trace"]]
        for up, low in zip(upper_rows, lower_rows):
            assert float(up["Y_mean"]) == -float(low["Y_mean"])
            assert (up["K_minus_mean"], up["penetration_upper"]) == \
                (low["K_plus_mean"], low["penetration_lower"])

    def test_upper_only_convergence(self, tmp_path):
        tables = {}
        for name, cfg in (("lower", _linear_config("lower")), ("upper", _mirrored_config())):
            out = tmp_path / name
            code = main(["convergence", _write(tmp_path, f"{name}.json", cfg), "--out", str(out)])
            assert code in (0, 3)
            with (out / "convergence.csv").open() as fh:
                tables[name] = code, list(csv.DictReader(fh))
        (code_l, lower), (code_u, upper) = tables["lower"], tables["upper"]
        assert code_u == code_l
        assert [(r["penetration_upper"], r["K_minus_T_mean"]) for r in upper] == \
            [(r["penetration_lower"], r["K_plus_T_mean"]) for r in lower]

    def test_upper_only_oracle_check_is_supported(self, tmp_path):
        # the lattice clamps at U: a barrier above the constant terminal 5 never binds
        cfg = _base_config(obstacle={"lower": "absent",
                                     "upper": {"kind": "constant", "params": {"value": 10.0}}})
        out = tmp_path / "o"
        assert main(["oracle-check", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["dp_value"] == 5.0 and payload["relative_gap"] < 1e-10


class TestOracleCheckCommand:

    def test_constant_case_gap_zero(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _base_config())
        out = tmp_path / "o"
        assert main(["oracle-check", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["pass"] is True
        assert payload["relative_gap"] < 1e-10

    def test_stopping_scenario_gap_within_two_percent(self, tmp_path):
        cfg = _base_config(
            paths=20_000,
            steps=50,
            terminal={"kind": "payoff_neg_part", "params": {}},
            obstacle={"lower": {"kind": "payoff_neg_part", "params": {}}, "upper": "absent"},
            regression={"degree_w": 5, "include_dB": False, "ridge": 1e-10},
        )
        cfg["penalty"] = {"geometric": {"base": 4.0, "count": 7}, "tol": 1e-9}
        cfg_path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main(["oracle-check", cfg_path, "--out", str(out)]) == 0
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["relative_gap"] <= 0.02

    @pytest.mark.parametrize("lower, upper", [(-1.0, 1.0), (-0.2, 0.6)])
    def test_corridor_is_checked_against_the_lattice(self, tmp_path, lower, upper):
        # g = 0 with both barriers: an exit 0 or 1 with a verdict, not 4
        cfg = _base_config(
            terminal={"kind": "clamp", "params": {"lo": lower, "hi": upper}},
            driver={"kind": "constant", "params": {"value": 0.5}},
            obstacle={"lower": {"kind": "constant", "params": {"value": lower}},
                      "upper": {"kind": "constant", "params": {"value": upper}}},
            regression={"degree_w": 3, "include_dB": False, "ridge": 1e-10},
        )
        out = tmp_path / "o"
        code = main(["oracle-check", _write(tmp_path, "c.json", cfg), "--out", str(out)])
        payload = json.loads((out / "oracle.json").read_text())
        assert code == (0 if payload["pass"] else 1)
        assert payload["pass"] == (payload["relative_gap"] <= 0.02)

    def test_crossing_barriers_are_unsupported_exit_4(self, tmp_path, capsys):
        # exp(W) reaches the upper barrier 3 at lattice nodes with W >= log 3
        cfg = _base_config(
            terminal={"kind": "constant", "params": {"value": 2.0}},
            obstacle={"lower": {"kind": "exponential", "params": {"scale": 1.0}},
                      "upper": {"kind": "constant", "params": {"value": 3.0}}})
        out = tmp_path / "o"
        assert main(["oracle-check", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 4
        assert "barriers cross (L >= U) at lattice nodes" in capsys.readouterr().err
        assert json.loads((out / "oracle.json").read_text()) == {"status": "unsupported"}

    def test_nonzero_g_unsupported_exit_4(self, tmp_path, capsys):
        cfg = _base_config()
        cfg["noise"] = {"kind": "constant", "params": {"value": 0.3}}
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main(["oracle-check", cfg_path, "--out", str(tmp_path / "o")]) == 4
        assert "oracle unsupported" in capsys.readouterr().err


# Lower barrier exp(W) over a constant terminal of 7.4: the static probe
# passes, but S_T > xi on the paths where W_T > log 7.4.
_PER_PATH_FAILURE = {
    "paths": 2000,
    "steps": 10,
    "terminal": {"kind": "constant", "params": {"value": 7.4}},
    "obstacle": {"lower": {"kind": "exponential", "params": {"scale": 1.0}}, "upper": "absent"},
}


_INVALID = ("summary.json", {"status": "validation_failed"})

# A list-valued constant where a coefficient gives one value per path, or a
# noise list of other than l values; each names the coefficient.
_LISTED = [
    ({"terminal": {"kind": "constant", "params": {"value": [5.0, 6.0]}}},
     "validation: terminal gives one value per path, got a list of 2\n"),
    ({"obstacle": {"lower": {"kind": "constant", "params": {"value": [-10.0, -9.0]}},
                   "upper": "absent"}},
     "validation: lower obstacle gives one value per path, got a list of 2\n"),
    ({"driver": {"kind": "constant", "params": {"value": [0.0, 1.0]}}},
     "validation: driver gives one value per path, got a list of 2\n"),
    ({"noise": {"kind": "constant", "params": {"value": [0.1, 0.2]}}},
     "validation: noise gives 1 or l=1 values per path, got a list of 2\n"),
]

# N + 1 grid times that no float64 array can hold, and a step of T / N that
# rounds to zero
_HUGE_STEPS = {"steps": 9223372036854775807}
_TINY_HORIZON = {"horizon": 5e-324, "steps": 2}


@pytest.mark.parametrize("command, overrides, code, written, stderr", [
    ("compare", _PER_PATH_FAILURE, 2, None, "S_T <= xi violated"),
    ("convergence", _PER_PATH_FAILURE, 2, None, "S_T <= xi violated"),
    ("oracle-check", _PER_PATH_FAILURE, 2, None, "S_T <= xi violated"),
    ("run", {"paths": 3, "regression": {"degree_w": 1, "include_dB": True, "ridge": 1e-10}}, 2,
     ("summary.json", {"status": "validation_failed"}), "underdetermined basis"),
    ("oracle-check", {"driver": {"kind": "exponential", "params": {"scale": 1.0}}}, 4,
     ("oracle.json", {"status": "unsupported"}), "oracle unsupported"),
    ("run", {"dims": 5}, 2, _INVALID, "config.dims: expected an object"),
    ("run", {"regression": 3}, 2, _INVALID, "config.regression: expected an object"),
    ("run", {"steps": math.inf}, 2, _INVALID, "cannot convert float infinity to integer"),
    ("run", {"paths": math.inf}, 2, _INVALID, "cannot convert float infinity to integer"),
    ("run", {"seed": -math.inf}, 2, _INVALID, "cannot convert float infinity to integer"),
    ("run", {"picard_iters": math.inf}, 2, _INVALID, "cannot convert float infinity to integer"),
    ("run", {"dims": {"d": math.inf, "l": 1}}, 2, _INVALID, "cannot convert float infinity"),
    ("run", {"regression": {"degree_w": math.inf}}, 2, _INVALID, "cannot convert float infinity"),
    ("run", {"penalty": {"geometric": {"base": 4.0, "count": math.inf}, "tol": 1e-4}}, 2,
     _INVALID, "config.penalty: cannot convert float infinity"),
    ("run", {"penalty": {"geometric": {"base": 1e200, "count": 7}, "tol": 1e-4}}, 2,
     _INVALID, "config.penalty:"),
    ("run", {"paths": 200, "steps": 4, "dims": {"d": 1000, "l": 1}}, 2, _INVALID,
     "underdetermined basis: 168170002 columns but only 200 samples"),
    # about 364 TiB per increment array: the allocation fails at once
    ("run", {"paths": 1e12, "steps": 50}, 2, _INVALID, "validation: Unable to allocate"),
    # values of the wrong JSON type are rejected, not coerced
    ("run", {"steps": 2.7}, 2, _INVALID, "validation: config: steps must be an integer, got 2.7"),
    ("run", {"paths": 4000.9}, 2, _INVALID, "validation: config: paths must be an integer"),
    ("run", {"seed": True}, 2, _INVALID, "validation: config: seed must be an integer, got True"),
    ("run", {"steps": "20"}, 2, _INVALID, "validation: config: steps must be an integer, got '20'"),
    ("run", {"regression": {"include_dB": "false"}}, 2, _INVALID,
     "validation: config: include_dB must be true or false, got 'false'"),
    ("run", {"penalty": {"levels": "123", "tol": 1e-4}}, 2, _INVALID,
     "validation: config.penalty: levels must be a list, got '123'"),
    ("run", {"terminal": {"kind": "constant", "params": {"value": True}}}, 2, _INVALID,
     "validation: config.terminal.params: value must be a number, got True"),
    ("run", {"terminal": {"kind": "constant", "params": {"value": "5"}}}, 2, _INVALID,
     "validation: config.terminal.params: value must be a number, got '5'"),
    ("run", {"driver": {"kind": "zero", "params": {}, "lip_const": None}}, 2, _INVALID,
     "validation: config.driver: lip_const must be a number, got None"),
    ("run", {"regression": {"ridge": math.nan}}, 2, _INVALID,
     "validation: config: ridge must be a number, got nan"),
    ("run", {"penalty": {"geometric": {"base": 4.0, "count": 7}, "tol": math.nan}}, 2, _INVALID,
     "validation: config.penalty: tol must be a number, got nan"),
    ("run", {"penalty": {"geometric": {"base": math.nan, "count": 7}, "tol": 1e-4}}, 2, _INVALID,
     "validation: config.penalty: base must be a number, got nan"),
    ("run", {"regression": {"ridge": math.inf}}, 2, _INVALID, "ridge must be"),
    ("run", _HUGE_STEPS, 2, _INVALID, "validation: config: steps must be < 1152921504606846975"),
    ("compare", _HUGE_STEPS, 2, None, "validation: config: steps must be < 1152921504606846975"),
    ("convergence", _HUGE_STEPS, 2, None,
     "validation: config: steps must be < 1152921504606846975"),
    ("oracle-check", _HUGE_STEPS, 2, None,
     "validation: config: steps must be < 1152921504606846975"),
    ("run", _TINY_HORIZON, 2, _INVALID, "validation: config: horizon / steps must be > 0"),
    ("compare", _TINY_HORIZON, 2, None, "validation: config: horizon / steps must be > 0"),
    ("convergence", _TINY_HORIZON, 2, None, "validation: config: horizon / steps must be > 0"),
    ("oracle-check", _TINY_HORIZON, 2, None, "validation: config: horizon / steps must be > 0"),
    ("run", {"horizon": 10**400}, 2, _INVALID,
     "validation: config: int too large to convert to float"),
    ("run", {"picard_iters": -1}, 2, _INVALID, "validation: config: picard_iters must be >= 0"),
    ("run", {"regression": {"degree_w": -1}}, 2, _INVALID,
     "validation: config: degree_w must be >= 0"),
    ("run", {"driver": {"kind": "linear", "params": {"a_z": [1.0, 1.0]}}}, 2, _INVALID,
     "validation: driver a_z has 2 entries but d=1"),
    ("run", {"driver": {"kind": "zero", "params": {}, "lip_const": -1.0}}, 2, _INVALID,
     "validation: driver declares a negative lip_const"),
    ("run", {"terminal": {"kind": "clamp", "params": {"lo": 1.0, "hi": 1.0}}}, 2, _INVALID,
     "validation: config.terminal.params: clamp needs lo < hi"),
    ("run", {"penalty": {"levels": [], "tol": 1e-4}}, 2, _INVALID,
     "validation: config.penalty: schedule needs at least one level"),
    *(("run", overrides, 2, _INVALID, line) for overrides, line in _LISTED),
])
def test_failures_exit_with_contract_code(tmp_path, capsys, command, overrides, code, written, stderr):
    cfg_path = _write(tmp_path, "c.json", _base_config(**overrides))
    configs = [cfg_path, cfg_path] if command == "compare" else [cfg_path]
    out = tmp_path / "o"
    assert main([command, *configs, "--out", str(out)]) == code
    assert stderr in capsys.readouterr().err
    if written is not None:
        name, expected = written
        payload = json.loads((out / name).read_text())
        assert {key: payload[key] for key in expected} == expected


@pytest.mark.parametrize("paths, regression, obstacle, columns", [
    # a corridor of constant barriers: 4 W monomials, dB and dB*w, dB*w^2
    (5, {"degree_w": 3, "include_dB": True, "ridge": 1e-10},
     {"lower": {"kind": "constant", "params": {"value": -10.0}},
      "upper": {"kind": "constant", "params": {"value": 10.0}}}, 7),
    # a shaped lower barrier adds itself times 1, w and w^2 to {1, w, dB, w*dB}
    (6, {"degree_w": 1, "include_dB": True, "ridge": 1e-10},
     {"lower": {"kind": "payoff_neg_part", "params": {}}, "upper": "absent"}, 7),
])
def test_underdetermined_basis_exits_before_drawing_paths(tmp_path, capsys, monkeypatch, paths,
                                                          regression, obstacle, columns):
    draws = []
    generate = cli.generate_paths

    def counted(*args, **kwargs):
        draws.append(args)
        return generate(*args, **kwargs)

    monkeypatch.setattr(cli, "generate_paths", counted)
    cfg = _base_config(paths=paths, regression=regression, obstacle=obstacle,
                       terminal={"kind": "payoff_neg_part", "params": {}})
    assert main(["run", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]) == 2
    assert (f"validation: underdetermined basis: {columns} columns but only {paths} samples"
            in capsys.readouterr().err)
    assert draws == []


@pytest.mark.parametrize("overrides, line", _LISTED)
def test_list_valued_coefficient_exits_before_drawing_paths(tmp_path, capsys, monkeypatch,
                                                            overrides, line):
    draws = []
    monkeypatch.setattr(cli, "generate_paths", lambda *args: draws.append(args))
    cfg = _base_config(paths=300, **overrides)
    assert main(["run", _write(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == line
    assert draws == []


def test_underdetermined_basis_exits_before_the_probe_grid(tmp_path, capsys):
    # validation's (4d + 1) x d probe grid, evaluated by each coefficient,
    # held tens of MB here before the closed-form column count refused it
    cfg = _base_config(paths=200, steps=4, dims={"d": 1000, "l": 1})
    cfg_path = _write(tmp_path, "c.json", cfg)
    tracemalloc.start()
    try:
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "underdetermined basis: 168170002 columns" in capsys.readouterr().err
    assert peak < 5e6


# Every parameter of each loadable kind, and the ones its constructor requires.
_FULL_PARAMS = {
    "zero": {},
    "constant": {"value": 2.5},
    "linear": {"a_y": 0.5, "a_z": [0.25], "a_w": 1.5, "c": -1.0},
    "payoff_put": {"strike": 1.0},
    "payoff_neg_part": {},
    "exponential": {"scale": 0.5},
    "clamp": {"lo": -1.0, "hi": 1.0},
}
_REQUIRED_PARAMS = {"payoff_put": {"strike"}, "exponential": {"scale"}, "clamp": {"lo", "hi"}}


@pytest.mark.parametrize("kind", [kind for kind in CATALOG_KINDS if kind != "hook"])
@pytest.mark.parametrize("given", ["all", "required"])
def test_coefficients_load_as_their_constructor_builds_them(tmp_path, kind, given):
    params = _FULL_PARAMS[kind]
    if given == "required":
        params = {key: v for key, v in params.items() if key in _REQUIRED_PARAMS.get(kind, set())}
    cfg = _base_config(driver={"kind": kind, "params": params})
    spec = load_config(_write(tmp_path, "c.json", cfg))
    assert spec.scenario.driver == getattr(CoefficientSpec, kind)(**params)


def test_omitted_regression_keys_take_the_library_defaults(tmp_path):
    spec = load_config(_write(tmp_path, "c.json", _base_config(regression={})))
    assert spec.regression == RegressionConfig()


def _readme_config(**overrides):
    """The config block of the README, with ``overrides`` applied."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    return {**json.loads(block), **overrides}


@pytest.mark.parametrize("side, value", [("lower", -math.inf), ("lower", math.inf),
                                         ("upper", -math.inf), ("upper", math.inf)])
def test_infinite_barrier_is_a_validation_failure(tmp_path, capsys, side, value):
    cfg = _corridor_config(paths=2000, steps=10)
    cfg["obstacle"] = {**cfg["obstacle"], side: {"kind": "constant", "params": {"value": value}}}
    out = tmp_path / "o"
    assert main(["run", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("validation: ") for line in lines)
    if (side, value) in (("lower", -math.inf), ("upper", math.inf)):
        # the static probe cannot see a barrier that never binds
        symbol = "L" if side == "lower" else "U"
        assert lines == [f"validation: -inf < {symbol} < inf violated on 2000 paths"]

    def no_constant(token):
        raise AssertionError(f"summary.json holds {token}")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=no_constant)
    assert summary == {"status": "validation_failed", "errors": [line[12:] for line in lines]}


@pytest.mark.parametrize("value", [-math.inf, math.inf])
def test_infinite_terminal_is_a_validation_failure_before_the_sweep(tmp_path, capsys, value):
    # no barrier reads xi, so only its own per-path condition can stop it
    cfg = _base_config(paths=2000, steps=10, terminal={"kind": "constant", "params": {"value": value}},
                       obstacle={"lower": "absent", "upper": "absent"})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", _write(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["validation: -inf < xi < inf violated on 2000 paths"]
    summary = json.loads((out / "summary.json").read_text())
    assert summary == {"status": "validation_failed", "errors": ["-inf < xi < inf violated on 2000 paths"]}


def test_readme_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "readme.json"
    path.write_text(blocks[0])
    spec = load_config(path)
    assert spec.scenario.mc_paths == 20000
    assert spec.regression == RegressionConfig(degree_w=5, include_dB=False, ridge=1e-10)


def test_compare_checks_both_configs_before_solving(tmp_path, capsys, monkeypatch):
    sweeps = []
    sweep = bdsde_solver.solve_backward

    def counted(*args, **kwargs):
        sweeps.append(args)
        return sweep(*args, **kwargs)

    for module in (bdsde_solver, reflect_one, reflect_two):
        monkeypatch.setattr(module, "solve_backward", counted)
    valid = _write(tmp_path, "a.json", _base_config(paths=2000, steps=10))
    failing = _write(tmp_path, "b.json", _base_config(**_PER_PATH_FAILURE))
    assert main(["compare", valid, failing, "--out", str(tmp_path / "o")]) == 2
    assert "S_T <= xi violated" in capsys.readouterr().err
    assert sweeps == []


def _node_paths(tree, prefix=()):
    yield prefix
    if isinstance(tree, dict):
        for key, child in tree.items():
            yield from _node_paths(child, prefix + (key,))


_FUZZ_BASE = _base_config(paths=200, steps=4)

# Finite numbers stay small, so no drawn config asks for more than a few
# thousand path-steps, basis columns or iterations; the overflow cases of
# large finite values are rows of test_failures_exit_with_contract_code.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-8, 64) | st.floats(-64.0, 64.0)
    | st.sampled_from([math.inf, -math.inf, math.nan]) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(node=st.sampled_from(list(_node_paths(_FUZZ_BASE))), value=_JSON_VALUES)
def test_any_config_node_gives_a_contract_code(node, value):
    cfg = copy.deepcopy(_FUZZ_BASE)
    if node:
        reduce(lambda tree, key: tree[key], node[:-1], cfg)[node[-1]] = value
    else:
        cfg = value
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # the suite turns RuntimeWarning into an error; a user's run only prints it
        warnings.simplefilter("default", RuntimeWarning)
        path = Path(tmp) / "c.json"
        path.write_text(_dumps(cfg))
        assert main(["run", str(path), "--out", tmp]) in range(5)


# Each command's output file, which the out-path state below replaces by a directory.
_OUTPUT_NAME = {"run": "summary.json", "compare": "comparison.json",
                "convergence": "convergence.csv", "oracle-check": "oracle.json"}


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(_OUTPUT_NAME)),
       config_state=st.sampled_from(["missing", "directory", "not_utf8", "valid"]),
       out_state=st.sampled_from(["missing", "file", "output_is_directory"]))
def test_any_file_system_state_gives_a_contract_code(command, config_state, out_state):
    # permission-denied paths are not among the states: a root user may read and write them
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "c.json", Path(tmp) / "o"
        if config_state == "directory":
            config.mkdir()
        elif config_state == "not_utf8":
            config.write_bytes(b'{"horizon": \xff}')
        elif config_state == "valid":
            config.write_text(_dumps(_FUZZ_BASE))
        if out_state == "file":
            out.write_text("")
        elif out_state == "output_is_directory":
            (out / _OUTPUT_NAME[command]).mkdir(parents=True)
        configs = [str(config)] * (2 if command == "compare" else 1)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([command, *configs, "--out", str(out)])
        err = stderr.getvalue()
        assert code in range(5) and "Traceback" not in err
        if (config_state, out_state) != ("valid", "missing"):
            # one validation line, naming the path that failed
            assert code == 2
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("validation: ")
            assert str(config) in lines[0] or str(out) in lines[0]


class TestRowWiseReads:
    """``run``, ``compare``, ``convergence`` and ``oracle-check`` read Y, Z
    and K one time row at a time: with every whole-array read made to raise
    they write what the whole-array formulas give."""

    @pytest.fixture
    def no_whole_arrays(self, monkeypatch):
        def whole(*_):
            raise AssertionError("a whole Y, Z, dK or K was formed")

        for name in ("Y", "Z", "dK"):
            monkeypatch.setattr(rbdsde.SolutionEnsemble, name, property(whole))
        monkeypatch.setattr(rbdsde.SolutionEnsemble, "k", whole)
        return monkeypatch

    @pytest.mark.parametrize("d", [1, 2])
    def test_run(self, tmp_path, no_whole_arrays, d):
        path = _write(tmp_path, "c.json", _corridor_config(paths=2000, steps=20,
                                                           dims={"d": d, "l": 1}))
        out = tmp_path / "o"
        assert main(["run", path, "--out", str(out)]) == 0
        no_whole_arrays.undo()
        spec = load_config(path)
        sol, _ = cli._solve_for_config(spec, cli._prepare(spec))
        z, k = sol.Z, {side: sol.k(side) for side in ("lower", "upper")}
        with (out / "timeseries.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows):
            want = [cli._fmt(k[side][:, i].mean()) for side in ("lower", "upper")]
            last = i == spec.scenario.grid.steps
            want += [""] * d if last else [cli._fmt(z[:, i, c].mean()) for c in range(d)]
            got = [row["K_plus_mean"], row["K_minus_mean"]] + [row[f"Z_mean_{c}"] for c in range(d)]
            assert got == want, i
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mean_K_plus_T"] == float(k["lower"][:, -1].mean()) > 0.0
        assert summary["mean_K_minus_T"] == float(k["upper"][:, -1].mean()) > 0.0
        assert (summary["diagnostics"]["skorohod"]["tolerance"]
                == 5.0 * spec.scenario.grid.dt * float(k["lower"][:, -1].mean()))

    def test_compare(self, tmp_path, no_whole_arrays):
        low = _corridor_config(paths=2000, steps=20,
                               driver={"kind": "constant", "params": {"value": 0.5}})
        paths = [_write(tmp_path, "a.json", low),
                 _write(tmp_path, "b.json", _corridor_config(paths=2000, steps=20))]
        out = tmp_path / "o"
        assert main(["compare", *paths, "--out", str(out)]) == 0
        no_whole_arrays.undo()
        payload = json.loads((out / "comparison.json").read_text())
        sol_a, sol_b = (cli._solve_for_config(spec, cli._prepare(spec))[0]
                        for spec in map(load_config, paths))
        epsilon = payload["epsilon"]
        for side, suffix in cli._SUFFIX.items():
            dk_a, dk_b = (np.diff(sol.k(side), axis=1) for sol in (sol_a, sol_b))
            wrong = dk_a < dk_b - epsilon if side == "lower" else dk_a > dk_b + epsilon
            assert payload["dk_violation_fraction" + suffix] == float(np.mean(wrong))
            assert np.any(dk_a) and np.any(dk_b)

    def test_convergence_with_grid_refinement(self, tmp_path, no_whole_arrays):
        path = _write(tmp_path, "c.json", _corridor_config(paths=2000, steps=20))
        out = tmp_path / "o"
        assert main(["convergence", path, "--out", str(out), "--grid-refinement"]) == 0
        no_whole_arrays.undo()
        with (out / "convergence.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        spec = load_config(path)
        sc, p = spec.scenario, cli._prepare(spec)
        grid_rows = [row for row in rows if row["phase"] == "grid"]
        assert [row["level_or_steps"] for row in grid_rows] == ["5", "10", "20"]
        for k, row in zip((4, 2, 1), grid_rows):
            coarse = dataclasses.replace(spec, scenario=dataclasses.replace(
                sc, grid=dataclasses.replace(sc.grid, steps=sc.grid.steps // k)))
            y = cli._solve_for_config(coarse, paths_module.coarsen(p, k))[0].Y
            # the (M, N+1) formulas that the walk over Y's rows replaces
            max_step = np.max(np.abs(np.diff(y, axis=1)), axis=1)
            assert row["Y0_mean"] == cli._fmt(y[:, 0].mean())
            assert row["median_max_step"] == cli._fmt(np.median(max_step))
        assert [row["Y0_mean"] for row in rows if row["Y0_mean"]][0] == grid_rows[-1]["Y0_mean"]

    def test_oracle_check(self, tmp_path, no_whole_arrays):
        # g = 0 on the corridor, so the lattice gives a value
        cfg = _corridor_config(paths=2000, steps=20, noise={"kind": "zero", "params": {}},
                               regression={"degree_w": 1, "include_dB": False, "ridge": 1e-10})
        path = _write(tmp_path, "c.json", cfg)
        out = tmp_path / "o"
        assert main(["oracle-check", path, "--out", str(out)]) in (0, 1)
        no_whole_arrays.undo()
        spec = load_config(path)
        sol, _ = cli._solve_for_config(spec, cli._prepare(spec))
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["solver_Y0"] == float(sol.Y[:, 0].mean())

    def test_each_reader_walks_the_store_once(self, tmp_path, monkeypatch):
        # Y and Z are formed from the fits' store by a walk of its rows: a
        # reader walks it once, and the reflection's readers never
        walks = []
        rows = bdsde_solver.StepFits.rows

        def counted(store, with_y=True):
            walks.append(with_y)
            return rows(store, with_y)

        monkeypatch.setattr(bdsde_solver.StepFits, "rows", counted)
        path = _write(tmp_path, "c.json", _corridor_config(paths=2000, steps=20))
        assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
        assert walks == [True]
        spec = load_config(path)
        sc, p = spec.scenario, cli._prepare(spec)
        sol, _ = cli._solve_for_config(spec, p)
        grids = sol.obstacle_grid
        for read in (lambda: rbdsde.apriori_statistic(sol, sc),
                     lambda: bdsde_solver.coefficient_steps(sol.rows(), sc, p, lag=1),
                     lambda: reflect_two.double_skorohod_residuals(sol, grids.lower, grids.upper),
                     lambda: reflect_one.skorohod_residual(sol, grids.lower)):
            walks.clear()
            read()
            assert walks == [True]
        walks.clear()
        for side in ("lower", "upper"):
            list(sol.k_rows(side))
            sol.k_terminal(side)
        assert sol.dK.shape == sol.shape[:1] + (sc.grid.steps,) and walks == []


class TestRunWorkingSet:
    """``run`` reads its solution one time row at a time."""

    def test_run_holds_a_few_rows_beyond_the_solve(self, tmp_path, monkeypatch):
        # 30 steps, so a whole Y would take 31 rows of M numbers: after the
        # solve, run holds the ensemble, a row walk's few rows, the excess
        # at the pushed paths and per-time statistics, less than the sweep
        # held at its own peak
        path = _write(tmp_path, "c.json", _corridor_config(paths=20_000, steps=30))
        solve, peaks = cli.solve_double, []

        def traced_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return result

        monkeypatch.setattr(cli, "solve_double", traced_solve)
        tracemalloc.start()
        try:
            assert main(["run", path, "--out", str(tmp_path / "o")]) == 0
            _, after = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        solve_peak, = peaks
        assert after < solve_peak + 4 * 20_000 * 8
