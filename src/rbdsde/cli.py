"""Command-line interface: scenario loading, run orchestration and result
emission for humans and scripts.

Configs are strict JSON trees (unknown keys are errors, reported with their
path into the file).  Every field is read as its JSON type and never
coerced: integer fields take numbers with an integral value, ``include_dB``
takes a boolean, ``levels`` a list of numbers, other scalars numbers (not
NaN), and coefficient params numbers or lists of numbers.  A coefficient's
params are the arguments of its ``CoefficientSpec`` constructor, and an
omitted optional param or ``regression`` key takes the library's default.

Numeric CSV output uses '.'-decimal, 17 significant digits; rerunning a
command with the same config and seed reproduces the files byte for byte,
except for one timestamp field inside summary metadata.

Exit codes: 0 success / comparison pass, 1 comparison or oracle mismatch,
2 validation or config failure (a per-path barrier condition that fails on
the drawn paths, a solver overflow to non-finite values, arrays that cannot
be allocated, a time step T / N that rounds to zero or N + 1 grid times
that no array can hold, ``convergence --grid-refinement`` on a step count not
divisible by 4, an OS error on a path: a config that is a directory, an
``--out`` that is a file), 3 schedule exhausted without convergence, 4
oracle unsupported for the given scenario.  Every exit-2 case prints one
``validation:`` line per message to stderr, an OS error's naming its path;
``run`` also writes a ``validation_failed`` summary where it can.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import datetime
import inspect
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import diagnostics
from .condexp import RegressionConfig, _determined_count
from .model import (
    CATALOG_KINDS,
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
from .paths import NoisePaths, coarsen, generate_paths
from .reflect_two import _walk_rows, solve_double


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# config loading


def _require_keys(node: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in node:
            raise ConfigError(f"{where}: missing key {key!r}")


def _integer(value, where: str, key: str) -> int:
    """A JSON number with an integral value; a bool is not one."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = int(value)
        except (OverflowError, ValueError) as exc:  # int(inf), int(nan)
            raise ConfigError(f"{where}: {exc}") from exc
        if number == value:
            return number
    raise ConfigError(f"{where}: {key} must be an integer, got {value!r}")


def _number(value, where: str, key: str) -> float:
    """A JSON number other than NaN; a bool is not one."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError as exc:  # an integer literal beyond the float range
            raise ConfigError(f"{where}: {exc}") from exc
        if not math.isnan(number):
            return number
    raise ConfigError(f"{where}: {key} must be a number, got {value!r}")


def _boolean(value, where: str, key: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{where}: {key} must be true or false, got {value!r}")


def _build(where: str, constructor, *args, **kwargs):
    """Call a library constructor on read values; what it raises for a value
    outside its domain (a list for a scalar, clamp's lo >= hi, 4.0**1000
    overflowing) is a config error."""
    try:
        return constructor(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _load_coeff(node, where: str, extra: tuple[str, ...] = ()) -> CoefficientSpec:
    """Build a coefficient with its catalog constructor, whose signature
    names the kind's parameters; ``extra`` keys of the node are numbers that
    replace the spec's field of that name."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where}: expected an object with 'kind' and 'params'")
    _require_keys(node, {"kind", "params", *extra}, {"kind"}, where)
    kind = node["kind"]
    if kind == "hook":
        raise ConfigError(f"{where}: kind 'hook' is library-only and cannot be loaded")
    if kind not in CATALOG_KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    constructor = getattr(CoefficientSpec, kind)
    parameters = inspect.signature(constructor).parameters
    params = node.get("params", {})
    _require_keys(params, set(parameters),
                  {name for name, p in parameters.items() if p.default is p.empty}, f"{where}.params")
    args = {
        key: [_number(v, f"{where}.params", f"{key}[{i}]") for i, v in enumerate(value)]
        if isinstance(value, list)
        else _number(value, f"{where}.params", key)
        for key, value in params.items()
    }
    spec = _build(f"{where}.params", constructor, **args)
    return replace(spec, **{key: _number(node[key], where, key) for key in extra if key in node})


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

# the readers of the regression keys; an omitted key takes RegressionConfig's default
_REGRESSION_KEYS = {"degree_w": _integer, "include_dB": _boolean, "ridge": _number}


def load_config(path: str | Path) -> RunSpec:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        tree = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(tree, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _require_keys(tree, _TOP_KEYS, _TOP_KEYS, "config")

    dims_node = tree["dims"]
    _require_keys(dims_node, {"d", "l"}, {"d", "l"}, "config.dims")
    obstacle_node = tree["obstacle"]
    _require_keys(obstacle_node, {"lower", "upper"}, {"lower", "upper"}, "config.obstacle")

    def load_barrier(side):
        node = obstacle_node[side]
        return None if node == "absent" else _load_coeff(node, f"config.obstacle.{side}")

    grid = _build("config", TimeGrid, horizon=_number(tree["horizon"], "config", "horizon"),
                  steps=_integer(tree["steps"], "config", "steps"))
    scenario = _build(
        "config", Scenario,
        grid=grid,
        dims=_build("config", Dimensions, d=_integer(dims_node["d"], "config", "d"),
                    l=_integer(dims_node["l"], "config", "l")),
        terminal=_load_coeff(tree["terminal"], "config.terminal"),
        driver=_load_coeff(tree["driver"], "config.driver", ("lip_const",)),
        noise_coeff=_load_coeff(tree["noise"], "config.noise", ("alpha",)),
        obstacles=ObstacleSpec(lower=load_barrier("lower"), upper=load_barrier("upper")),
        mc_paths=_integer(tree["paths"], "config", "paths"),
        seed=_integer(tree["seed"], "config", "seed"),
    )

    penalty_node = tree["penalty"]
    _require_keys(penalty_node, {"levels", "geometric", "tol"}, {"tol"}, "config.penalty")
    if ("levels" in penalty_node) == ("geometric" in penalty_node):
        raise ConfigError("config.penalty: give exactly one of 'levels' or 'geometric'")
    tol = _number(penalty_node["tol"], "config.penalty", "tol")
    if "levels" in penalty_node:
        levels = penalty_node["levels"]
        if not isinstance(levels, list):
            raise ConfigError(f"config.penalty: levels must be a list, got {levels!r}")
        schedule = _build("config.penalty", PenaltySchedule,
                          levels=tuple(_number(v, "config.penalty", f"levels[{i}]")
                                       for i, v in enumerate(levels)),
                          penetration_tol=tol)
    else:
        geo = penalty_node["geometric"]
        _require_keys(geo, {"base", "count"}, {"base", "count"}, "config.penalty.geometric")
        base = _number(geo["base"], "config.penalty", "base")
        count = _integer(geo["count"], "config.penalty", "count")
        schedule = _build("config.penalty", PenaltySchedule.geometric, grid.dt, base=base,
                          count=count, penetration_tol=tol)

    reg_node = tree["regression"]
    _require_keys(reg_node, set(_REGRESSION_KEYS), set(), "config.regression")
    regression = _build("config", RegressionConfig, **{
        key: _REGRESSION_KEYS[key](value, "config", key) for key, value in reg_node.items()})
    picard = _integer(tree["picard_iters"], "config", "picard_iters")
    if picard < 0:
        raise ConfigError("config: picard_iters must be >= 0")

    return RunSpec(scenario=scenario, regression=regression, schedule=schedule,
                   picard_iters=picard)


# ---------------------------------------------------------------------------
# emission helpers


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _prepare(spec: RunSpec, paths: NoisePaths | None = None) -> NoisePaths:
    """Check the regression basis size, then validate the scenario, then
    draw its paths unless shared ones are given.  The size check comes
    first: it is closed form, while validation evaluates each coefficient
    on 4d + 1 probe states.  The solvers check the per-path conditions that
    validation had to defer."""
    sc = spec.scenario
    _determined_count(spec.regression, sc.dims.d, sc.dims.l, len(sc.obstacles.shaped_sides()),
                      sc.mc_paths)
    report = validate_scenario(sc)
    if not report.ok:
        raise ConfigError(*report.violations)
    return paths if paths is not None else generate_paths(sc)


def _solve_for_config(spec: RunSpec, paths):
    """Solve with every barrier the config declares; returns (ensemble, trace)."""
    return solve_double(spec.scenario, paths, spec.regression, spec.picard_iters,
                        schedule=spec.schedule)


def _write_timeseries(path: Path, sc: Scenario, y_stats: np.ndarray, z_means: list,
                      walks: dict) -> None:
    """Per grid time: Y's mean and standard error, the rows of ``y_stats``,
    Z's means as formatted in ``z_means`` (empty at the horizon), K's means
    and each side's mean squared excess, read off that side's row walk; a
    side without a barrier writes 0."""
    times = sc.grid.times
    n = sc.grid.steps
    header = ["t", "Y_mean", "Y_se"]
    header += [f"Z_mean_{k}" for k in range(sc.dims.d)]
    header += ["K_plus_mean", "K_minus_mean", "penetration_lower", "penetration_upper"]
    columns = [walks[side].mean_k for side in ("lower", "upper")]
    columns += [walks[side].mean_sq_excess for side in ("lower", "upper")]

    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n + 1):
            row = [_fmt(times[i]), _fmt(y_stats[i, 0]), _fmt(y_stats[i, 1])]
            row += z_means[i]
            row += [_fmt(column[i]) for column in columns]
            writer.writerow(row)


# per barrier side, the suffix of its verdict keys
_SUFFIX = {"lower": "", "upper": "_upper"}


def cmd_run(config_path: str, out: Path) -> int:
    spec = load_config(config_path)
    sc = spec.scenario
    sol, trace = _solve_for_config(spec, _prepare(spec))
    grids = sol.obstacle_grid
    se = diagnostics.regression_se(sol)
    d, n, m = sc.dims.d, sc.grid.steps, sc.mc_paths
    # per grid time, Y's mean and standard error, and Z's means, taken from
    # each row as the walk below forms it; no whole Y is held
    y_stats = np.empty((n + 1, 2))
    z_means = [[""] * d for _ in range(n + 1)]
    verdicts = {}

    def read_row(i, y_i, z):
        y_stats[i] = y_i.mean(), y_i.std(ddof=1) / np.sqrt(m)
        if z is None:
            verdicts["terminal_exact"] = bool(np.array_equal(y_i, grids.xi))
        else:
            z_means[i] = [_fmt(z[:, c].mean()) for c in range(d)]

    # one walk of Y's rows, from the horizon back, serves every reader of Y
    # and each side's barrier checks; one walk of each side's K rows serves
    # every reader of K.  A side without a barrier checks only its K
    walks = _walk_rows(sol, grids, ("lower", "upper"), 3.0 * se, read_row)

    verdicts["k_nondecreasing_from_zero"] = all(walk.k_nondecreasing_from_zero
                                                for walk in walks.values())
    for side in grids.sides:
        walk, suffix = walks[side], _SUFFIX[side]
        mean_res = float(np.abs(walk.flat_off).mean())
        tol = 5.0 * sc.grid.dt * float(walk.mean_k[-1])
        verdicts["skorohod" + suffix] = {
            "mean_abs_residual": mean_res,
            "tolerance": tol,
            "passed": bool(mean_res <= max(tol, 1e-12)),
        }
        domination = walk.above_slack / (m * (n + 1))
        verdicts["obstacle_domination" + suffix] = {
            "violation_fraction": domination,
            "passed": bool(domination <= 0.01),
        }

    summary = {
        "status": "ok" if trace.converged else "not_converged",
        "converged": trace.converged,
        "Y0_mean": float(y_stats[0, 0]),
        "Y0_se": float(y_stats[0, 1]),
        "mean_K_plus_T": float(walks["lower"].mean_k[-1]),
        "mean_K_minus_T": float(walks["upper"].mean_k[-1]),
        "penetration_trace": [asdict(stat) for stat in trace.levels],
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
    _write_timeseries(out / "timeseries.csv", sc, y_stats, z_means, walks)
    return 0 if trace.converged else 3


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
    # each solve checks its per-path conditions before it solves anything,
    # so b, solved first, fails before either config is solved
    sol_b, _ = _solve_for_config(spec_b, paths)
    sol_a, _ = _solve_for_config(spec_a, paths)

    result = diagnostics.check_comparison(sol_a, sol_b, paths)
    payload = {
        "y_violation_fraction": result.violation_fraction,
        "epsilon": result.epsilon,
        "y_pass": result.passed,
    }
    overall = result.passed
    # the ordered pushing of each barrier the two configs declare alike,
    # whatever other barrier either declares
    shared = [side for side in a.obstacles.sides
              if getattr(a.obstacles, side) == getattr(b.obstacles, side)]
    for side in shared:
        dk = diagnostics.check_dK_comparison(sol_a, sol_b, side=side)
        payload.update({
            "dk_violation_fraction" + _SUFFIX[side]: dk.violation_fraction,
            "dk_pass" + _SUFFIX[side]: dk.passed,
        })
        overall = overall and dk.passed
    payload["pass"] = overall
    _write_json(out / "comparison.json", payload)
    return 0 if overall else 1


def _y0_mean_and_max_step(sol) -> tuple[float, np.ndarray]:
    """Y0's mean and, per path, the largest |Y_{i+1} - Y_i| over the grid,
    from one walk of Y's rows; no whole Y is held."""
    m = sol.shape[0]
    max_step, later, step = np.zeros(m), np.empty(m), np.empty(m)
    for i, y, _ in sol.rows():
        if i < sol.shape[1] - 1:
            np.abs(np.subtract(later, y, out=step), out=step)
            np.maximum(max_step, step, out=max_step)
        np.copyto(later, y)  # the walk's next row overwrites y
    return later.mean(), max_step


def cmd_convergence(config_path: str, out: Path, grid_refinement: bool = False) -> int:
    spec = load_config(config_path)
    sc = spec.scenario
    if not sc.obstacles.sides:
        raise ConfigError("convergence study needs an obstacle")
    if grid_refinement and sc.grid.steps % 4:
        raise ConfigError(f"grid refinement needs a step count divisible by 4, got {sc.grid.steps}")
    paths = _prepare(spec)

    rows: list[list[str]] = []
    sol, trace = _solve_for_config(spec, paths)
    for stat in trace.levels:
        rows.append(["penalty", _fmt(stat.level), _fmt(stat.penetration_lower),
                     _fmt(stat.penetration_upper), "", _fmt(stat.mean_k_plus_T),
                     _fmt(stat.mean_k_minus_T), ""])
    y0_mean, max_step = _y0_mean_and_max_step(sol)
    rows[-1][4] = _fmt(y0_mean)

    if grid_refinement:
        # every grid sees the run's noise (its paths summed over k steps) and its ladder
        for k in (4, 2, 1):
            steps = sc.grid.steps // k
            coarse = replace(spec, scenario=replace(sc, grid=replace(sc.grid, steps=steps)))
            sub_sol = sol if k == 1 else _solve_for_config(coarse, coarsen(paths, k))[0]
            sub_y0_mean, sub_max_step = ((y0_mean, max_step) if k == 1
                                         else _y0_mean_and_max_step(sub_sol))
            rows.append(["grid", str(steps), "", "", _fmt(sub_y0_mean),
                         _fmt(sub_sol.k_terminal("lower").mean()),
                         _fmt(sub_sol.k_terminal("upper").mean()),
                         _fmt(np.median(sub_max_step))])

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
    solver_value = float(_y0_mean_and_max_step(sol)[0])
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
    try:
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "run":
            return cmd_run(args.config, out)
        if args.command == "compare":
            return cmd_compare(args.config_a, args.config_b, out)
        if args.command == "convergence":
            return cmd_convergence(args.config, out, args.grid_refinement)
        return cmd_oracle_check(args.config, out)
    except (ValueError, MemoryError, OSError) as exc:
        messages = list(getattr(exc, "messages", [str(exc)]))
        for msg in messages:
            print(f"validation: {msg}", file=sys.stderr)
        if args.command == "run":
            with contextlib.suppress(OSError):
                _write_json(out / "summary.json", {"status": "validation_failed", "errors": messages})
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
