"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q

The traced-run cases take about 15 s each.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Counts of a traced run at seed 42 when the benchmark was defined.  A change
# that moves one of them reports the new value as a count.
EXPECTED_COUNTS = {
    "reflected_ladder": {"condexp.fit_calls": 600, "reflect_one.levels": 4,
                         "reflect_two.levels": 0, "bdsde_solver.sweeps": 4},
    "bdsde_db": {"condexp.fit_calls": 150, "reflect_one.levels": 0,
                 "reflect_two.levels": 0, "bdsde_solver.sweeps": 1},
    "cli_corridor": {"condexp.fit_calls": 450, "reflect_one.levels": 0,
                     "reflect_two.levels": 3, "bdsde_solver.sweeps": 3},
}


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(EXPECTED_COUNTS))
def test_traced_run_counts(workload):
    proc = _run(ROOT, "--workload", workload, "--seed", "42", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # the checks include the traced digest equalling the untraced one
    assert result["correct"] and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(spans.LAYER_METRICS)
    for name, count in EXPECTED_COUNTS[workload].items():
        assert metrics[name] == count, name
    assert metrics["trace.unattributed_frac"] <= 0.05


def test_without_library_sources_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "bdsde_db", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0)]

    recorded = [
        spans.Span(0, "outer", None, start=0.0, end=10.0),
        spans.Span(1, "inner", 0, start=1.0, end=3.0),
        spans.Span(2, "inner", 0, start=4.0, end=8.0),
        spans.Span(3, "leaf", 2, start=5.0, end=6.0),
    ]
    assert spans.self_times(recorded) == [4.0, 2.0, 3.0, 1.0]
