"""The names the benchmark's span recorder rebinds must exist in the library.

perfbench/spans.py wraps each public layer function by name, and the CLI
workload replaces ``rbdsde.cli.validate_scenario`` and
``rbdsde.cli.solve_double``.  A refactor that moves or renames one of them
would silently drop its spans, so this guard fails first.  The same holds
for what perfbench/worker.py and the span recorder's byte count read of an
obstacle grid: ``xi``, ``lower`` and ``upper`` as arrays with ``nbytes``,
whether a barrier is held as an array or, shaped, as its spec.
"""
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from rbdsde import CoefficientSpec, ObstacleSpec, generate_paths, obstacle_on_grid
from rbdsde.scenarios import two_barrier_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_functions() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.LAYER_FUNCTIONS


LAYER_FUNCTIONS = _layer_functions()


@pytest.mark.parametrize("layer", sorted(LAYER_FUNCTIONS))
def test_layer_functions_resolve(layer):
    module = importlib.import_module(f"rbdsde.{layer}")
    for name in LAYER_FUNCTIONS[layer]:
        assert callable(getattr(module, name, None)), f"rbdsde.{layer}.{name}"


def test_cli_binds_the_functions_the_cli_workload_replaces():
    cli = importlib.import_module("rbdsde.cli")
    for name in ("validate_scenario", "solve_double"):
        assert callable(getattr(cli, name, None)), f"rbdsde.cli.{name}"


def test_obstacle_grid_keeps_the_fields_the_benchmark_reads():
    # a constant corridor is held as arrays, a shaped one as its specs
    for lower, upper in ((CoefficientSpec.constant(-2.0), CoefficientSpec.constant(2.0)),
                         (CoefficientSpec.linear(a_w=0.5, c=-2.0),
                          CoefficientSpec.payoff_put(3.0))):
        sc = dataclasses.replace(two_barrier_scenario(paths=50, steps=4),
                                 obstacles=ObstacleSpec(lower=lower, upper=upper))
        grids = obstacle_on_grid(sc, generate_paths(sc))
        for name, shape in (("xi", (50,)), ("lower", (50, 5)), ("upper", (50, 5))):
            values = getattr(grids, name)
            assert isinstance(values, np.ndarray) and values.shape == shape, (lower.kind, name)
            assert values.nbytes == 8 * values.size, (lower.kind, name)
