"""rbdsde benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Each repetition runs in a fresh interpreter (worker.py) and repetitions
follow one another until ``--seconds`` have passed.

With ``--trace 0`` every repetition is untraced and the result carries the
end-to-end metrics, each the median over the repetitions:

- ``setup_s``: interpreter start until the inputs are ready (``import
  rbdsde`` and the scenario, or for the CLI the config load and validation);
- ``solve_s``: inputs ready until the solution (for the CLI, its output
  files) is complete;
- ``peak_rss_mb``: peak resident memory of the workload process;
- ``y0_err``: |mean Y0 - lattice value| on reflected_ladder; the Monte Carlo
  standard error of mean Y0 on the workloads without a reference value.

With ``--trace 1`` untraced and traced repetitions alternate, and the result
carries the per-layer metrics of spans.LAYER_METRICS.  Either way every
correctness check of every repetition counts as one operation attempted,
plus one for the result digests agreeing across repetitions (and, traced,
one for the counts repeating).  The last line of standard output is the
JSON result; the lines before it record the environment and the details.
Scratch output goes to ``.perfbench_run/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_run"
BENCHMARK = ROOT / "BENCHMARK.json"

# A run, its repetitions included, must end within 180 s.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "y0_err": "1"}

# BLAS threads of a workload process unless the environment sets them.  On
# two cores one OpenBLAS thread solved reflected_ladder no slower than two,
# with a narrower run-to-run spread.
THREAD_DEFAULTS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    return {**THREAD_DEFAULTS, **os.environ}


def environment() -> dict:
    env = worker_env()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "env": {k: env.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "RBDSDE_THREADS")},
        "loadavg": os.getloadavg(),
    }


def run_worker(args, traced: bool, out: Path, config: Path | None, started: float) -> dict:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--trace", str(int(traced))]
    if config is not None:
        cmd += ["--config", str(config)]
    timeout = RUN_LIMIT_S - (time.monotonic() - started)
    if timeout <= 0:
        raise WorkerError(f"run exceeded {RUN_LIMIT_S} s")
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker still running after {timeout:.0f} s, killed") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main() -> int:
    why = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
    parser = argparse.ArgumentParser(description="rbdsde benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rbdsde" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'rbdsde'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}), flush=True)

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = None
    if args.workload == "cli_corridor":
        config = work / "config.json"
        config.write_text(json.dumps(spec.cli_config(args.seed), indent=2) + "\n")

    modes = (False, True) if args.trace else (False,)
    plain: list[dict] = []
    traced: list[dict] = []
    started = time.monotonic()
    try:
        while not plain or time.monotonic() - started < args.seconds:
            for mode in modes:
                rep = run_worker(args, mode, work / f"rep{len(plain) + len(traced)}", config, started)
                rep["traced"] = mode
                (traced if mode else plain).append(rep)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    checks = [ok for r in reps for ok in r["checks"].values()]
    checks.append(len({r["digest"] for r in reps}) == 1)
    if args.trace:
        checks.append(len({tuple(r["layers"][k] for k in spans.COUNT_METRICS) for r in traced}) == 1)
        # median_low picks a measured value, so counts stay whole numbers
        layers = {name: statistics.median_low(r["layers"][name] for r in traced)
                  for name in spans.LAYER_METRICS if name != "trace.overhead_frac"}
        layers["trace.overhead_frac"] = median(traced, "solve_s") / median(plain, "solve_s") - 1.0
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": median(plain, name), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    failed = checks.count(False)
    print(json.dumps({
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "numpy": reps[0]["numpy"],
        "blas": reps[0]["blas"],
        "digest": reps[0]["digest"],
        "checks_failed_frac": failed / len(checks),
        "repetitions": [{k: r[k] for k in ("traced", "setup_s", "solve_s", "peak_rss_mb", "y0_err", "checks")}
                        for r in reps],
    }))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
