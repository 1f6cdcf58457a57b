"""Command-line interface: scenario loading, run orchestration and result
emission for humans and scripts.

Configs are strict JSON trees (unknown keys are errors, reported with their
path into the file).  Numeric CSV output uses '.'-decimal, 17 significant
digits; rerunning a command with the same config and seed reproduces the
files byte for byte, except for one timestamp field inside summary metadata.

Exit codes: 0 success / comparison pass, 1 comparison or oracle mismatch,
2 validation or config failure (including a per-path barrier condition that
fails on the drawn paths, and a solver that overflows to non-finite values),
3 schedule exhausted without convergence, 4 oracle unsupported for the given
scenario.
"""
from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics
from .bdsde_solver import solve_bdsde
from .condexp import RegressionConfig
from .model import (
    CoefficientSpec,
    ConfigError,
    Dimensions,
    ObstacleSpec,
    PenaltySchedule,
    Scenario,
    TimeGrid,
    validate_scenario,
)
from .oracles import dp_stopping_value, lattice_scope_problem
from .paths import NoisePaths, generate_paths
from .reflect_one import skorohod_residual, solve_reflected
from .reflect_two import double_skorohod_residuals, solve_double


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# config loading


_COEFF_PARAM_KEYS = {
    "zero": set(),
    "constant": {"value"},
    "linear": {"a_y", "a_z", "a_w", "c"},
    "payoff_put": {"strike"},
    "payoff_neg_part": set(),
    "exponential": {"scale"},
    "clamp": {"lo", "hi"},
}


def _require_keys(node: dict, allowed: set[str], required: set[str], where: str) -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in node:
            raise ConfigError(f"{where}: missing key {key!r}")


def _load_coeff(node, where: str, lip_const=None, alpha=None) -> CoefficientSpec:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object with 'kind' and 'params'")
    _require_keys(node, {"kind", "params"}, {"kind"}, where)
    kind = node["kind"]
    if kind == "hook":
        raise ConfigError(f"{where}: kind 'hook' is library-only and cannot be loaded")
    if kind not in _COEFF_PARAM_KEYS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    params = node.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.params: expected an object")
    _require_keys(params, _COEFF_PARAM_KEYS[kind], set(), f"{where}.params")

    try:
        if kind == "zero":
            spec = CoefficientSpec.zero()
        elif kind == "constant":
            spec = CoefficientSpec.constant(params.get("value", 0.0))
        elif kind == "linear":
            spec = CoefficientSpec.linear(
                a_y=params.get("a_y", 0.0),
                a_z=params.get("a_z", ()),
                a_w=params.get("a_w", 0.0),
                c=params.get("c", 0.0),
            )
        elif kind == "payoff_put":
            spec = CoefficientSpec.payoff_put(params["strike"])
        elif kind == "payoff_neg_part":
            spec = CoefficientSpec.payoff_neg_part()
        elif kind == "exponential":
            spec = CoefficientSpec.exponential(params["scale"])
        else:
            spec = CoefficientSpec.clamp(params["lo"], params["hi"])
    except KeyError as exc:
        raise ConfigError(f"{where}.params: missing {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.params: {exc}") from exc

    updates = {}
    if lip_const is not None:
        updates["lip_const"] = float(lip_const)
    if alpha is not None:
        updates["alpha"] = float(alpha)
    if updates:
        spec = replace(spec, **updates)
    return spec


@dataclass(frozen=True)
class RunSpec:
    scenario: Scenario
    regression: RegressionConfig
    schedule: PenaltySchedule
    picard_iters: int


_TOP_KEYS = {
    "horizon", "steps", "paths", "seed", "dims", "terminal", "driver",
    "noise", "obstacle", "penalty", "regression", "picard_iters",
}


def load_config(path: str | Path) -> RunSpec:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        tree = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _require_keys(tree, _TOP_KEYS, _TOP_KEYS, "config")

    dims_node = tree["dims"]
    _require_keys(dims_node, {"d", "l"}, {"d", "l"}, "config.dims")

    driver_node = tree["driver"]
    _require_keys(driver_node, {"kind", "params", "lip_const"}, {"kind"}, "config.driver")
    noise_node = tree["noise"]
    _require_keys(noise_node, {"kind", "params", "alpha"}, {"kind"}, "config.noise")

    obstacle_node = tree["obstacle"]
    _require_keys(obstacle_node, {"lower", "upper"}, {"lower", "upper"}, "config.obstacle")

    def load_barrier(node, where):
        if node == "absent":
            return None
        return _load_coeff(node, where)

    try:
        grid = TimeGrid(horizon=float(tree["horizon"]), steps=int(tree["steps"]))
        dims = Dimensions(d=int(dims_node["d"]), l=int(dims_node["l"]))
        scenario = Scenario(
            grid=grid,
            dims=dims,
            terminal=_load_coeff(tree["terminal"], "config.terminal"),
            driver=_load_coeff(
                {"kind": driver_node["kind"], "params": driver_node.get("params", {})},
                "config.driver",
                lip_const=driver_node.get("lip_const"),
            ),
            noise_coeff=_load_coeff(
                {"kind": noise_node["kind"], "params": noise_node.get("params", {})},
                "config.noise",
                alpha=noise_node.get("alpha", 0.5),
            ),
            obstacles=ObstacleSpec(
                lower=load_barrier(obstacle_node["lower"], "config.obstacle.lower"),
                upper=load_barrier(obstacle_node["upper"], "config.obstacle.upper"),
            ),
            mc_paths=int(tree["paths"]),
            seed=int(tree["seed"]),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc

    penalty_node = tree["penalty"]
    _require_keys(penalty_node, {"levels", "geometric", "tol"}, {"tol"}, "config.penalty")
    if ("levels" in penalty_node) == ("geometric" in penalty_node):
        raise ConfigError("config.penalty: give exactly one of 'levels' or 'geometric'")
    try:
        if "levels" in penalty_node:
            schedule = PenaltySchedule(
                levels=tuple(float(v) for v in penalty_node["levels"]),
                penetration_tol=float(penalty_node["tol"]),
            )
        else:
            geo = penalty_node["geometric"]
            _require_keys(geo, {"base", "count"}, {"base", "count"}, "config.penalty.geometric")
            schedule = PenaltySchedule.geometric(
                grid.dt, base=float(geo["base"]), count=int(geo["count"]),
                penetration_tol=float(penalty_node["tol"]),
            )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.penalty: {exc}") from exc

    reg_node = tree["regression"]
    _require_keys(reg_node, {"degree_w", "include_dB", "ridge"}, set(), "config.regression")
    try:
        regression = RegressionConfig(
            degree_w=int(reg_node.get("degree_w", 3)),
            include_dB=bool(reg_node.get("include_dB", True)),
            ridge=float(reg_node.get("ridge", 1e-10)),
        )
        picard = int(tree["picard_iters"])
        if picard < 0:
            raise ValueError("picard_iters must be >= 0")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from exc

    return RunSpec(scenario=scenario, regression=regression, schedule=schedule,
                   picard_iters=picard)


# ---------------------------------------------------------------------------
# emission helpers


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare(spec: RunSpec, paths: NoisePaths | None = None) -> NoisePaths:
    """Validate the scenario and draw its paths unless shared ones are given.
    The solvers check the per-path conditions that validation had to defer."""
    report = validate_scenario(spec.scenario)
    if not report.ok:
        raise ConfigError(*report.violations)
    return paths if paths is not None else generate_paths(spec.scenario)


def _solve_for_config(spec: RunSpec, paths):
    """Dispatch on the barrier structure; returns (ensemble, trace or None)."""
    sc = spec.scenario
    if sc.obstacles.has_lower and sc.obstacles.has_upper:
        return solve_double(sc, paths, spec.regression, spec.picard_iters,
                            sched_m=spec.schedule, sched_n=spec.schedule)
    if sc.obstacles.has_lower:
        return solve_reflected(sc, paths, spec.regression, spec.picard_iters,
                               schedule=spec.schedule)
    return solve_bdsde(sc, paths, spec.regression, spec.picard_iters), None


# summary.json keeps the short keys of one-barrier ladders
_ONE_BARRIER_KEYS = {"level_lower": "level", "penetration_lower": "penetration",
                     "mean_k_plus_T": "mean_k_T"}


def _trace_rows(trace) -> list[dict]:
    rows = []
    for stat in trace.levels if trace is not None else ():
        row = asdict(stat)
        if stat.level_upper is None:
            row = {short: row[key] for key, short in _ONE_BARRIER_KEYS.items()}
        rows.append(row)
    return rows


def _write_timeseries(path: Path, sc: Scenario, sol) -> None:
    lower = sol.obstacle_grid.lower
    times = sc.grid.times
    m, n = sc.mc_paths, sc.grid.steps
    header = ["t", "Y_mean", "Y_se"]
    header += [f"Z_mean_{k}" for k in range(sc.dims.d)]
    header += ["K_plus_mean", "K_minus_mean", "penetration"]

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n + 1):
            y_i = sol.Y[:, i]
            row = [_fmt(times[i]), _fmt(y_i.mean()), _fmt(y_i.std(ddof=1) / np.sqrt(m))]
            if i < n:
                row += [_fmt(sol.Z[:, i, k].mean()) for k in range(sc.dims.d)]
            else:
                row += [""] * sc.dims.d
            row += [_fmt(sol.K_plus[:, i].mean()), _fmt(sol.K_minus[:, i].mean())]
            if lower is not None:
                pen_i = np.mean(np.maximum(lower[:, i] - y_i, 0.0) ** 2)
            else:
                pen_i = 0.0
            row.append(_fmt(pen_i))
            writer.writerow(row)


def _skorohod_verdict(residuals: np.ndarray, k: np.ndarray, dt: float) -> dict:
    """Mean |flat-off-the-barrier residual| against 5 dt times the mean K_T."""
    mean_res = float(np.abs(residuals).mean())
    tol = 5.0 * dt * float(k[:, -1].mean())
    return {
        "mean_abs_residual": mean_res,
        "tolerance": tol,
        "passed": bool(mean_res <= max(tol, 1e-12)),
    }


def cmd_run(config_path: str, out: Path) -> int:
    spec = load_config(config_path)
    sc = spec.scenario
    sol, trace = _solve_for_config(spec, _prepare(spec))
    grids = sol.obstacle_grid
    converged = trace.converged if trace is not None else True

    y0 = sol.Y[:, 0]
    verdicts = {
        "terminal_exact": bool(np.array_equal(sol.Y[:, -1], grids.xi)),
        "k_nondecreasing_from_zero": bool(
            np.all(sol.K_plus[:, 0] == 0.0) and np.all(np.diff(sol.K_plus, axis=1) >= 0)
            and np.all(sol.K_minus[:, 0] == 0.0) and np.all(np.diff(sol.K_minus, axis=1) >= 0)
        ),
    }
    if grids.lower is not None:
        if grids.upper is not None:
            lower_res, upper_res = double_skorohod_residuals(sol, grids.lower, grids.upper)
            verdicts["skorohod_upper"] = _skorohod_verdict(upper_res, sol.K_minus, sc.grid.dt)
        else:
            lower_res = skorohod_residual(sol, grids.lower)
        verdicts["skorohod"] = _skorohod_verdict(lower_res, sol.K_plus, sc.grid.dt)
        se = diagnostics.regression_se(sol)
        domination = float(np.mean(sol.Y < grids.lower - 3.0 * se))
        verdicts["obstacle_domination"] = {
            "violation_fraction": domination,
            "passed": bool(domination <= 0.01),
        }

    summary = {
        "status": "ok" if converged else "not_converged",
        "converged": converged,
        "Y0_mean": float(y0.mean()),
        "Y0_se": float(y0.std(ddof=1) / np.sqrt(sc.mc_paths)),
        "mean_K_plus_T": float(sol.K_plus[:, -1].mean()),
        "mean_K_minus_T": float(sol.K_minus[:, -1].mean()),
        "penetration_trace": _trace_rows(trace),
        "diagnostics": verdicts,
        "meta": {
            "seed": sc.seed,
            "paths": sc.mc_paths,
            "steps": sc.grid.steps,
            "scheme": sol.meta.scheme,
            "basis_size": sol.meta.basis_size,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }
    _write_json(out / "summary.json", summary)
    _write_timeseries(out / "timeseries.csv", sc, sol)
    return 0 if converged else 3


def cmd_compare(config_a: str, config_b: str, out: Path) -> int:
    spec_a = load_config(config_a)
    spec_b = load_config(config_b)
    a, b = spec_a.scenario, spec_b.scenario
    same_frame = (
        a.seed == b.seed and a.mc_paths == b.mc_paths
        and a.grid == b.grid and a.dims == b.dims
    )
    if not same_frame:
        raise ConfigError("configs must share (seed, paths, steps, dims)")
    paths = _prepare(spec_a)
    _prepare(spec_b, paths)
    sol_a, _ = _solve_for_config(spec_a, paths)
    sol_b, _ = _solve_for_config(spec_b, paths)

    result = diagnostics.check_comparison(sol_a, sol_b, paths)
    payload = {
        "y_violation_fraction": result.violation_fraction,
        "epsilon": result.epsilon,
        "y_pass": result.passed,
    }
    overall = result.passed
    if a.obstacles == b.obstacles and a.obstacles.has_lower:
        dk = diagnostics.check_dK_comparison(sol_a, sol_b)
        payload.update({
            "dk_violation_fraction": dk.violation_fraction,
            "dk_pass": dk.passed,
        })
        overall = overall and dk.passed
    payload["pass"] = overall
    _write_json(out / "comparison.json", payload)
    return 0 if overall else 1


def cmd_convergence(config_path: str, out: Path, grid_refinement: bool = False) -> int:
    spec = load_config(config_path)
    sc = spec.scenario
    if not sc.obstacles.has_lower:
        raise ConfigError("convergence study needs an obstacle")
    paths = _prepare(spec)

    rows: list[list[str]] = []
    sol, trace = _solve_for_config(spec, paths)
    for stat in trace.levels:
        two = stat.level_upper is not None
        rows.append(["penalty", _fmt(stat.level_lower), _fmt(stat.penetration_lower),
                     _fmt(stat.penetration_upper) if two else "", "",
                     _fmt(stat.mean_k_plus_T), _fmt(stat.mean_k_minus_T) if two else "", ""])
    rows[-1][4] = _fmt(sol.Y[:, 0].mean())

    if grid_refinement:
        for divisor in (4, 2, 1):
            steps = max(1, sc.grid.steps // divisor)
            sub = replace(sc, grid=TimeGrid(horizon=sc.grid.horizon, steps=steps))
            sub_spec = RunSpec(sub, spec.regression,
                               PenaltySchedule.geometric(sub.grid.dt,
                                                         penetration_tol=spec.schedule.penetration_tol),
                               spec.picard_iters)
            sub_paths = generate_paths(sub)
            sub_sol, _ = _solve_for_config(sub_spec, sub_paths)
            max_step = np.max(np.abs(np.diff(sub_sol.Y, axis=1)), axis=1)
            rows.append(["grid", str(steps), "", "", _fmt(sub_sol.Y[:, 0].mean()),
                         _fmt(sub_sol.K_plus[:, -1].mean()), _fmt(sub_sol.K_minus[:, -1].mean()),
                         _fmt(np.median(max_step))])

    with (out / "convergence.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "level_or_steps", "penetration_lower", "penetration_upper",
                         "Y0_mean", "K_plus_T_mean", "K_minus_T_mean", "median_max_step"])
        writer.writerows(rows)

    return 0 if trace.converged else 3


def cmd_oracle_check(config_path: str, out: Path) -> int:
    spec = load_config(config_path)
    sc = spec.scenario
    problem = lattice_scope_problem(sc)
    if problem is not None:
        print(f"oracle unsupported: {problem}", file=sys.stderr)
        _write_json(out / "oracle.json", {"status": "unsupported"})
        return 4
    sol, trace = _solve_for_config(spec, _prepare(spec))
    solver_value = float(sol.Y[:, 0].mean())
    dp_value = dp_stopping_value(sc, lattice_steps=2000)
    rel_gap = abs(solver_value - dp_value) / max(abs(dp_value), 1e-12)
    passed = rel_gap <= 0.02
    _write_json(out / "oracle.json", {
        "solver_Y0": solver_value,
        "dp_value": dp_value,
        "relative_gap": rel_gap,
        "tolerance": 0.02,
        "pass": passed,
    })
    return 0 if passed else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rbdsde",
        description="Monte Carlo solver for doubly stochastic terminal-value "
                    "equations with reflecting barriers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve one scenario and emit summary + timeseries")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=".", help="output directory")

    p_cmp = sub.add_parser("compare", help="solve two ordered scenarios on shared paths")
    p_cmp.add_argument("config_a")
    p_cmp.add_argument("config_b")
    p_cmp.add_argument("--out", default=".")

    p_conv = sub.add_parser("convergence", help="penalty-ladder and grid-refinement table")
    p_conv.add_argument("config")
    p_conv.add_argument("--out", default=".")
    p_conv.add_argument("--grid-refinement", action="store_true")

    p_orc = sub.add_parser("oracle-check", help="reflected solver against the lattice value")
    p_orc.add_argument("config")
    p_orc.add_argument("--out", default=".")

    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "run":
            return cmd_run(args.config, out)
        if args.command == "compare":
            return cmd_compare(args.config_a, args.config_b, out)
        if args.command == "convergence":
            return cmd_convergence(args.config, out, args.grid_refinement)
        return cmd_oracle_check(args.config, out)
    except ValueError as exc:
        messages = list(getattr(exc, "messages", [str(exc)]))
        for msg in messages:
            print(f"validation: {msg}", file=sys.stderr)
        if args.command == "run":
            _write_json(out / "summary.json", {"status": "validation_failed", "errors": messages})
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
