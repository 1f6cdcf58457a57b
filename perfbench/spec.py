"""Fixed sizes of the benchmark's workloads and the config of the CLI
workload.  Why each workload exists is in BENCHMARK.json and README.md.

Standard library only, so the driver (run.py) can read it without importing
numpy or rbdsde; the worker process imports it as well.
"""
from __future__ import annotations

STEPS = 50

# Paths per workload.  Each size keeps one repetition at 5-8 s on two cores,
# so a run of a few repetitions stays well inside the per-run time limit.
LADDER_PATHS = 30_000
BDSDE_PATHS = 100_000
CLI_PATHS = 60_000

LATTICE_STEPS = 2000


def cli_config(seed: int) -> dict:
    """Strict-JSON config of the cli_corridor workload: corridor [-1, 1],
    clamped terminal, constant drift 1, constant backward noise 0.2, a
    degree-1 basis with dB columns (4 columns) and a geometric ladder with
    tolerance 1e-4."""
    return {
        "horizon": 1.0,
        "steps": STEPS,
        "paths": CLI_PATHS,
        "seed": seed,
        "dims": {"d": 1, "l": 1},
        "terminal": {"kind": "clamp", "params": {"lo": -1.0, "hi": 1.0}},
        "driver": {"kind": "constant", "params": {"value": 1.0}},
        "noise": {"kind": "constant", "params": {"value": 0.2}},
        "obstacle": {
            "lower": {"kind": "constant", "params": {"value": -1.0}},
            "upper": {"kind": "constant", "params": {"value": 1.0}},
        },
        "penalty": {"geometric": {"base": 4.0, "count": 7}, "tol": 1e-4},
        "regression": {"degree_w": 1, "include_dB": True, "ridge": 1e-10},
        "picard_iters": 2,
    }
