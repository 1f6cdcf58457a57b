"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps the public functions of each rbdsde module from outside
the library: every module-level name bound to one of those functions is
rebound to the wrapper, because ``from .x import f`` copies the binding into
the importing module (``solve_backward`` is called through both
``rbdsde.bdsde_solver`` and ``rbdsde.reflect_one``, for example).  Each call
records a span with a name, start, end, CPU time and the id of the span that
was open when it began.  Spans stay in memory until the worker writes them
out at exit.  Recording assumes one calling thread, which holds for every
wrapped function (only path-block fills run on worker threads).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# Public functions of each rbdsde module, timed as that module's layer.
# ``rbdsde.scenarios`` only builds inputs and is not timed.
LAYER_FUNCTIONS = {
    "paths": ("generate_paths", "obstacle_on_grid"),
    "condexp": ("build_basis", "condexp_fit_eval"),
    "bdsde_solver": ("solve_backward", "solve_bdsde"),
    "reflect_one": ("solve_reflected", "solve_penalized", "implicit_penalty_step",
                    "penetration_statistic", "skorohod_residual"),
    "reflect_two": ("solve_double", "implicit_double_step", "double_skorohod_residuals"),
    "oracles": ("dp_stopping_value",),
    "diagnostics": ("regression_se",),
    "cli": ("load_config", "cmd_run"),
}

# Calls made inside these spans are not recorded: the lattice oracle's
# thousands of coefficient evaluations would swamp model.evaluate and add
# per-call recording cost to the oracle's own time.
OPAQUE = frozenset({"oracles.dp_stopping_value"})

# Per-layer metrics of a traced run, with their units.  A ``_s`` metric is
# self time (span duration minus the time its child spans cover) unless
# noted in layer_metrics.
LAYER_METRICS = {
    "paths.generate_s": "s",
    "paths.generate_calls": "count",
    "paths.obstacle_grid_s": "s",
    "paths.obstacle_grid_calls": "count",
    "paths.bytes": "B",
    "model.evaluate_s": "s",
    "model.evaluate_calls": "count",
    "condexp.build_basis_s": "s",
    "condexp.build_basis_calls": "count",
    "condexp.fit_s": "s",
    "condexp.fit_calls": "count",
    "condexp.fit_design_bytes": "B",
    "condexp.fit_cpu_ratio": "1",
    "condexp.basis_cols": "count",
    "bdsde_solver.sweeps": "count",
    "bdsde_solver.sweep_s": "s",
    "bdsde_solver.self_s": "s",
    "reflect_one.levels": "count",
    "reflect_one.useful_sweep_frac": "1",
    "reflect_one.step_s": "s",
    "reflect_one.step_calls": "count",
    "reflect_one.penetration_s": "s",
    "reflect_one.contact_frac": "1",
    "reflect_two.levels": "count",
    "reflect_two.useful_sweep_frac": "1",
    "reflect_two.step_s": "s",
    "reflect_two.step_calls": "count",
    "oracles.dp_s": "s",
    "diagnostics.regression_se_s": "s",
    "cli.load_config_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_frac": "1",
    "trace.unattributed_frac": "1",
}

# Metrics that must repeat exactly between runs of the same inputs.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "B"))


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; ``wrap`` returns the recording version of a
    function."""

    def __init__(self):
        self.spans: list[Span] = []
        self.results: dict[str, object] = {}
        self._open: list[int] = []
        self._opaque_depth = 0

    def wrap(self, name, fn, on_call=None, on_return=None, keep_result=False):
        opaque = name in OPAQUE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._opaque_depth:
                return fn(*args, **kwargs)
            span = Span(len(self.spans), name, self._open[-1] if self._open else None)
            if on_call is not None:
                span.attrs = on_call(*args, **kwargs)
            self.spans.append(span)
            self._open.append(span.id)
            self._opaque_depth += opaque
            cpu0 = time.process_time()
            span.start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                span.cpu = time.process_time() - cpu0
                self._opaque_depth -= opaque
                self._open.pop()
            if on_return is not None:
                span.attrs.update(on_return(result))
            if keep_result:
                self.results[name] = result
            return result

        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def _grid_bytes(grids) -> dict:
    return {"bytes": sum(a.nbytes for a in (grids.lower, grids.upper) if a is not None)}


def _path_bytes(p) -> dict:
    return {"bytes": p.dW.nbytes + p.dB.nbytes + p.W_state.nbytes + p.B_state.nbytes}


def _fit_design(targets, basis, *args, **kwargs) -> dict:
    m, b = basis.shape
    return {"design_bytes": m * b * 8, "cols": b}


def _ladder_levels(result) -> dict:
    return {"levels": len(result[1].levels)}


# Attributes read from arguments or results, outside the timed interval.
_HOOKS = {
    "paths.generate_paths": {"on_return": _path_bytes},
    "paths.obstacle_on_grid": {"on_return": _grid_bytes},
    "condexp.condexp_fit_eval": {"on_call": _fit_design},
    "reflect_one.solve_reflected": {"on_return": _ladder_levels, "keep_result": True},
    "reflect_two.solve_double": {"on_return": _ladder_levels},
}


def install(tracer: Tracer) -> None:
    """Rebind every public layer function, under every name any loaded
    rbdsde module bound it to, and CoefficientSpec.evaluate."""
    layer_modules = {layer: importlib.import_module(f"rbdsde.{layer}") for layer in LAYER_FUNCTIONS}
    modules = [m for n, m in sys.modules.items() if n == "rbdsde" or n.startswith("rbdsde.")]
    for layer, names in LAYER_FUNCTIONS.items():
        for fname in names:
            original = getattr(layer_modules[layer], fname)
            name = f"{layer}.{fname}"
            wrapper = tracer.wrap(name, original, **_HOOKS.get(name, {}))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    from rbdsde.model import CoefficientSpec

    CoefficientSpec.evaluate = tracer.wrap("model.evaluate", CoefficientSpec.evaluate)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - child[s.id] for s in spans]


def _under(spans: list[Span], span: Span, ancestor: str) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(tracer: Tracer, window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics from the recorded spans; ``window`` is the solve
    interval the untraced run reports as solve_s.  ``trace.overhead_frac``
    needs an untraced run and ``cli.bytes_written`` the output directory, so
    the caller fills those in."""
    spans = tracer.spans
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_s(name):
        return sum(own[s.id] for s in named(name))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name))

    def useful_sweep_frac(ladder):
        sweeps = sum(_under(spans, s, ladder) for s in named("bdsde_solver.solve_backward"))
        return len(named(ladder)) / sweeps if sweeps else 0.0

    fits = named("condexp.condexp_fit_eval")
    fit_wall = sum(s.end - s.start for s in fits)
    contact = 0.0
    if "reflect_one.solve_reflected" in tracer.results:
        k_plus = tracer.results["reflect_one.solve_reflected"][0].K_plus
        contact = float((k_plus[:, 1:] > k_plus[:, :-1]).mean())

    t0, t1 = window
    covered = sum(max(0.0, min(s.end, t1) - max(s.start, t0)) for s in spans if s.parent is None)

    return {
        "paths.generate_s": self_s("paths.generate_paths"),
        "paths.generate_calls": len(named("paths.generate_paths")),
        "paths.obstacle_grid_s": self_s("paths.obstacle_on_grid"),
        "paths.obstacle_grid_calls": len(named("paths.obstacle_on_grid")),
        "paths.bytes": attr_sum("paths.generate_paths", "bytes") + attr_sum("paths.obstacle_on_grid", "bytes"),
        "model.evaluate_s": self_s("model.evaluate"),
        "model.evaluate_calls": len(named("model.evaluate")),
        "condexp.build_basis_s": self_s("condexp.build_basis"),
        "condexp.build_basis_calls": len(named("condexp.build_basis")),
        "condexp.fit_s": self_s("condexp.condexp_fit_eval"),
        "condexp.fit_calls": len(fits),
        "condexp.fit_design_bytes": sum(s.attrs["design_bytes"] for s in fits),
        "condexp.fit_cpu_ratio": sum(s.cpu for s in fits) / fit_wall if fit_wall else 0.0,
        "condexp.basis_cols": max((s.attrs["cols"] for s in fits), default=0),
        "bdsde_solver.sweeps": len(named("bdsde_solver.solve_backward")),
        # inclusive: the whole backward sweep, fits and reflection steps included
        "bdsde_solver.sweep_s": sum(s.end - s.start for s in named("bdsde_solver.solve_backward")),
        "bdsde_solver.self_s": self_s("bdsde_solver.solve_backward"),
        "reflect_one.levels": attr_sum("reflect_one.solve_reflected", "levels"),
        "reflect_one.useful_sweep_frac": useful_sweep_frac("reflect_one.solve_reflected"),
        "reflect_one.step_s": self_s("reflect_one.implicit_penalty_step"),
        "reflect_one.step_calls": len(named("reflect_one.implicit_penalty_step")),
        "reflect_one.penetration_s": self_s("reflect_one.penetration_statistic"),
        "reflect_one.contact_frac": contact,
        "reflect_two.levels": attr_sum("reflect_two.solve_double", "levels"),
        "reflect_two.useful_sweep_frac": useful_sweep_frac("reflect_two.solve_double"),
        "reflect_two.step_s": self_s("reflect_two.implicit_double_step"),
        "reflect_two.step_calls": len(named("reflect_two.implicit_double_step")),
        # inclusive: the reference's whole cost, outside solve_s
        "oracles.dp_s": sum(s.end - s.start for s in named("oracles.dp_stopping_value")),
        "diagnostics.regression_se_s": self_s("diagnostics.regression_se"),
        "cli.load_config_s": self_s("cli.load_config"),
        "cli.self_s": self_s("cli.cmd_run"),
        "trace.unattributed_frac": 1.0 - covered / (t1 - t0),
    }
