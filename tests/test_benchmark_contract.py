"""The names the benchmark's span recorder rebinds must exist in the library.

perfbench/spans.py wraps each public layer function by name, and the CLI
workload replaces ``rbdsde.cli.validate_scenario`` and
``rbdsde.cli.solve_double``.  A refactor that moves or renames one of them
would silently drop its spans, so this guard fails first.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
