"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR \
        --spawned T [--trace 0|1] [--config FILE]

``--spawned`` is the CLOCK_MONOTONIC reading the driver took just before
starting this process, so set-up time counts interpreter start and
``import rbdsde``.  The last line of standard output is one JSON object with
the repetition's timings, correctness checks and result digest (and, with
``--trace 1``, the per-layer metrics).  run.py starts this script; it does
not need to be run by hand.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import rbdsde  # noqa: E402
from rbdsde import scenarios  # noqa: E402

import spans  # noqa: E402
import spec  # noqa: E402


class Phase:
    """End of set-up and end of the solve, on the driver's clock; the peak
    resident set is read when the solve completes."""

    def __init__(self):
        self.ready_at = self.done_at = 0.0
        self.peak_rss_mb = 0.0

    def ready(self) -> None:
        self.ready_at = time.monotonic()

    def done(self) -> None:
        self.done_at = time.monotonic()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    solution: object
    checks: dict[str, bool]
    y0_err: float
    files: list[bytes] = field(default_factory=list)
    bytes_written: int = 0


def _k_nondecreasing_from_zero(sol) -> bool:
    return all(
        bool(np.all(k[:, 0] == 0.0) and np.all(np.diff(k, axis=1) >= 0.0))
        for k in (sol.K_plus, sol.K_minus)
    )


def reflected_ladder(phase: Phase, seed: int, out: Path, config: Path | None) -> Outcome:
    sc = scenarios.stopping_drift_scenario(paths=spec.LADDER_PATHS, steps=spec.STEPS, seed=seed)
    cfg = rbdsde.RegressionConfig(degree_w=5, include_dB=False)
    schedule = rbdsde.PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-6)
    phase.ready()
    paths = rbdsde.generate_paths(sc)
    grids = rbdsde.obstacle_on_grid(sc, paths)
    sol, trace = rbdsde.solve_reflected(sc, paths, cfg, schedule=schedule)
    phase.done()

    y0_err = abs(float(sol.Y[:, 0].mean()) - rbdsde.dp_stopping_value(sc, spec.LATTICE_STEPS))
    residual = float(np.abs(rbdsde.skorohod_residual(sol, grids.lower)).mean())
    checks = {
        "ladder_converged": bool(trace.converged),
        "terminal_exact": bool(np.array_equal(sol.Y[:, -1], grids.xi)),
        "k_nondecreasing_from_zero": _k_nondecreasing_from_zero(sol),
        "skorohod_residual": residual <= 5.0 * sc.grid.dt * float(sol.K_plus[:, -1].mean()),
        # the 50-step scheme sits ~0.004 above the 2000-step lattice value
        "y0_err": y0_err <= 0.01,
    }
    return Outcome(sol, checks, y0_err)


def bdsde_db(phase: Phase, seed: int, out: Path, config: Path | None) -> Outcome:
    beta = 0.3
    sc = scenarios.constant_g_scenario(paths=spec.BDSDE_PATHS, steps=spec.STEPS, seed=seed, beta=beta)
    cfg = rbdsde.RegressionConfig(degree_w=4, include_dB=True)
    phase.ready()
    paths = rbdsde.generate_paths(sc)
    rbdsde.obstacle_on_grid(sc, paths)
    sol = rbdsde.solve_bdsde(sc, paths, cfg)
    phase.done()

    exact = beta * paths.B_state[:, -1, 0]
    rms = float(np.sqrt(np.mean((sol.Y[:, 0] - exact) ** 2)))
    checks = {
        "exact_y0": rms <= 1e-8,
        "k_identically_zero": not np.any(sol.K_plus) and not np.any(sol.K_minus),
    }
    # No reference value differs from the solution by more than rounding
    # here, so the accuracy figure is the Monte Carlo standard error of Y0.
    return Outcome(sol, checks, float(sol.Y[:, 0].std(ddof=1) / np.sqrt(sc.mc_paths)))


def cli_corridor(phase: Phase, seed: int, out: Path, config: Path | None) -> Outcome:
    import rbdsde.cli as cli  # only the CLI workload pays for importing the CLI

    validate, solve = cli.validate_scenario, cli.solve_double
    solved = []

    # Set-up ends once the CLI has loaded and validated the config; the
    # solution is kept so its arrays can be hashed.
    def validate_then_mark(s):
        report = validate(s)
        phase.ready()
        return report

    def solve_and_keep(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    cli.validate_scenario, cli.solve_double = validate_then_mark, solve_and_keep
    code = cli.main(["run", str(config), "--out", str(out)])
    phase.done()

    summary = json.loads((out / "summary.json").read_text())
    timeseries = (out / "timeseries.csv").read_bytes()
    verdicts = summary.get("diagnostics", {}).values()
    checks = {
        "exit_code_0": code == 0,
        "status_ok": summary.get("status") == "ok",
        "verdicts_passed": bool(verdicts) and all(
            v["passed"] if isinstance(v, dict) else v for v in verdicts
        ),
        "timeseries_rows": len(timeseries.splitlines()) == 1 + spec.STEPS + 1,
    }
    summary["meta"].pop("timestamp")
    stable_summary = json.dumps(summary, sort_keys=True).encode()
    written = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
    return Outcome(solved[-1][0], checks, float(summary["Y0_se"]),
                   files=[timeseries, stable_summary], bytes_written=written)


WORKLOADS = {
    "reflected_ladder": reflected_ladder,
    "bdsde_db": bdsde_db,
    "cli_corridor": cli_corridor,
}


def digest(outcome: Outcome) -> str:
    """SHA-256 of Y, Z, K+ and K- (and of the CLI's output files)."""
    h = hashlib.sha256()
    sol = outcome.solution
    for arr in (sol.Y, sol.Z, sol.K_plus, sol.K_minus):
        h.update(np.ascontiguousarray(arr).data)
    for blob in outcome.files:
        h.update(blob)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--config", type=Path)
    args = parser.parse_args()

    if Path(rbdsde.__file__).resolve().parent != SRC / "rbdsde":
        print(f"worker: rbdsde imported from {rbdsde.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    phase = Phase()
    outcome = WORKLOADS[args.workload](phase, args.seed, args.out, args.config)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": phase.ready_at - args.spawned,
        "solve_s": phase.done_at - phase.ready_at,
        "peak_rss_mb": phase.peak_rss_mb,
        "y0_err": outcome.y0_err,
        "checks": outcome.checks,
        "digest": digest(outcome),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer, (phase.ready_at, phase.done_at))
        layers["cli.bytes_written"] = outcome.bytes_written
        tracer.write(args.out / "spans.json")
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
