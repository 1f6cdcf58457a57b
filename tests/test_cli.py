"""CLI config loading, commands, exit codes, output determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rbdsde
from rbdsde import paths as paths_module
from rbdsde.cli import ConfigError, load_config, main


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


def _write(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:

    def test_round_trip(self, tmp_path):
        spec = load_config(_write(tmp_path, "c.json", _base_config()))
        assert spec.scenario.mc_paths == 4000
        assert spec.scenario.obstacles.has_lower
        assert not spec.scenario.obstacles.has_upper
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

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path = _write(tmp_path, "c.json", _base_config())
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

    def test_swapped_pair_fails(self, tmp_path):
        a = _write(tmp_path, "a.json", self._stopping())
        b = _write(tmp_path, "b.json",
                   self._stopping(driver={"kind": "constant", "params": {"value": -0.5}}))
        assert main(["compare", b, a, "--out", str(tmp_path / "o")]) == 1

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
        cfg = TestCompareCommand._stopping()
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

    def test_requires_obstacle(self, tmp_path):
        cfg = _base_config(obstacle={"lower": "absent", "upper": "absent"})
        cfg_path = _write(tmp_path, "c.json", cfg)
        assert main(["convergence", cfg_path, "--out", str(tmp_path / "o")]) == 2


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


@pytest.mark.parametrize("command, overrides, code, written, stderr", [
    ("compare", _PER_PATH_FAILURE, 2, None, "S_T <= xi violated"),
    ("convergence", _PER_PATH_FAILURE, 2, None, "S_T <= xi violated"),
    ("oracle-check", _PER_PATH_FAILURE, 2, None, "S_T <= xi violated"),
    ("run", {"paths": 3, "regression": {"degree_w": 1, "include_dB": True, "ridge": 1e-10}}, 2,
     ("summary.json", {"status": "validation_failed"}), "underdetermined basis"),
    ("oracle-check", {"driver": {"kind": "exponential", "params": {"scale": 1.0}}}, 4,
     ("oracle.json", {"status": "unsupported"}), "oracle unsupported"),
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
