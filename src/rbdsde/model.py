"""Domain types for reflected BDSDE problems and scenario validation.

A scenario bundles the time grid, Brownian dimensions, the coefficient
functions (terminal value, driver, backward-noise coefficient), optional
lower/upper barriers, and the Monte Carlo budget.  All types are immutable
after construction and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .condexp import RegressionConfig

if TYPE_CHECKING:
    from .bdsde_solver import StepFits
    from .paths import ObstacleGrid

# Coefficient kinds loadable from CLI configs.  "hook" is library-only.
CATALOG_KINDS = (
    "zero",
    "constant",
    "linear",
    "payoff_put",
    "payoff_neg_part",
    "exponential",
    "clamp",
    "hook",
)

# Kinds whose value depends on the current W state only (never on y or z);
# obstacles and terminal values must come from this subset, except "linear"
# which qualifies when its y and z loadings vanish.
STATE_ONLY_KINDS = ("zero", "constant", "payoff_put", "payoff_neg_part", "exponential", "clamp")

# Kinds whose value is one number at every (t, w): such a barrier adds no
# shape column to the regression design and is held as one value on the grid.
CONSTANT_KINDS = ("zero", "constant")


class ConfigError(ValueError):
    """Malformed configuration, or a scenario that fails validation or a
    per-path condition on its drawn paths; ``messages`` holds one entry per
    failure, a config error's with its path into the file."""

    def __init__(self, *messages: str):
        super().__init__("; ".join(messages))
        self.messages = messages


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < ... < t_N = T."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError("horizon must be a positive finite real")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        # the N+1 times are one float64 array, of at most intp-max bytes
        limit = np.iinfo(np.intp).max // 8
        if self.steps >= limit:
            raise ValueError(f"steps must be < {limit}, got {self.steps}")
        if not self.horizon / self.steps > 0:
            raise ValueError(f"horizon / steps must be > 0, got {self.horizon!r} / {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def times(self) -> np.ndarray:
        # linspace pins t_0 = 0 and t_N = horizon exactly
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class Dimensions:
    """State-space sizes of the two driving Brownian motions."""

    d: int = 1
    l: int = 1

    def __post_init__(self):
        if self.d < 1 or self.l < 1:
            raise ValueError("both Brownian dimensions must be >= 1")


@dataclass(frozen=True)
class CoefficientSpec:
    """One coefficient from the closed catalog.

    Evaluates as a deterministic function of (t, w_state, y, z).  Each spec
    declares a Lipschitz bound ``lip_const`` in the squared-inequality sense
    (|f(y,z) - f(y',z')|^2 <= lip_const * (|dy|^2 + |dz|^2)) and, for use as
    the backward-noise coefficient, the z-contraction factor ``alpha``.
    """

    kind: str
    params: tuple[tuple[str, object], ...] = ()
    lip_const: float = 0.0
    alpha: float = 0.5
    fn: Callable[..., np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in CATALOG_KINDS:
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "hook" and self.fn is None:
            raise ValueError("hook coefficients need a callable")

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"{self.kind} coefficient has no parameter {name!r}")

    # -- catalog constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "CoefficientSpec":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value=0.0) -> "CoefficientSpec":
        if np.ndim(value) == 0:
            return cls(kind="constant", params=(("value", float(value)),))
        return cls(kind="constant", params=(("value", tuple(float(v) for v in value)),))

    @classmethod
    def linear(cls, a_y: float = 0.0, a_z=(), a_w: float = 0.0, c: float = 0.0) -> "CoefficientSpec":
        a_z = tuple(float(v) for v in a_z)
        lip = a_y * a_y + sum(v * v for v in a_z)  # Cauchy-Schwarz, tight
        return cls(
            kind="linear",
            params=(("a_y", float(a_y)), ("a_z", a_z), ("a_w", float(a_w)), ("c", float(c))),
            lip_const=lip,
        )

    @classmethod
    def payoff_put(cls, strike: float) -> "CoefficientSpec":
        return cls(kind="payoff_put", params=(("strike", float(strike)),))

    @classmethod
    def payoff_neg_part(cls) -> "CoefficientSpec":
        return cls(kind="payoff_neg_part")

    @classmethod
    def exponential(cls, scale: float) -> "CoefficientSpec":
        return cls(kind="exponential", params=(("scale", float(scale)),))

    @classmethod
    def clamp(cls, lo: float, hi: float) -> "CoefficientSpec":
        if not lo < hi:
            raise ValueError("clamp needs lo < hi")
        return cls(kind="clamp", params=(("lo", float(lo)), ("hi", float(hi))))

    @classmethod
    def hook(cls, fn: Callable[..., np.ndarray], lip_const: float = 0.0, alpha: float = 0.5) -> "CoefficientSpec":
        """Library-only escape hatch: fn(t, w, y, z) vectorised over paths.
        As a barrier it must be a pure function of (t, w), because the
        barrier's rows are evaluated again wherever they are read, and as a
        driver a pure function of its arguments, because each read of a
        solution's Y evaluates the driver again."""
        return cls(kind="hook", lip_const=lip_const, alpha=alpha, fn=fn)

    # -- evaluation ------------------------------------------------------------

    def depends_on_state_only(self) -> bool:
        if self.kind in STATE_ONLY_KINDS:
            return True
        if self.kind == "linear":
            return self.param("a_y") == 0.0 and all(v == 0.0 for v in self.param("a_z"))
        return False  # hooks are trusted, never provable

    def evaluate(self, t: float, w: np.ndarray, y: np.ndarray | None = None,
                 z: np.ndarray | None = None) -> np.ndarray:
        """Vectorised evaluation; w is (M, d), returns (M,) or (M, k) for
        vector-valued constants."""
        w = np.asarray(w, dtype=float)
        m = w.shape[0]
        if self.kind == "zero":
            return np.zeros(m)
        if self.kind == "constant":
            value = self.param("value")
            if np.ndim(value) == 0:
                return np.full(m, float(value))
            return np.tile(np.asarray(value, dtype=float), (m, 1))
        if self.kind == "linear":
            out = np.full(m, self.param("c"))
            a_w = self.param("a_w")
            if a_w:
                out = out + a_w * w.sum(axis=1)
            a_y = self.param("a_y")
            if a_y and y is not None:
                out = out + a_y * np.asarray(y, dtype=float)
            a_z = self.param("a_z")
            if any(a_z) and z is not None:
                out = out + np.asarray(z, dtype=float) @ np.asarray(a_z, dtype=float)
            return out
        if self.kind == "payoff_put":
            return np.maximum(self.param("strike") - w[:, 0], 0.0)
        if self.kind == "payoff_neg_part":
            return np.maximum(-w[:, 0], 0.0)
        if self.kind == "exponential":
            return np.exp(self.param("scale") * w[:, 0])
        if self.kind == "clamp":
            return np.clip(w[:, 0], self.param("lo"), self.param("hi"))
        return np.asarray(self.fn(t, w, y, z), dtype=float)


@dataclass(frozen=True)
class ObstacleSpec:
    """Lower and/or upper barriers; ``None`` is the explicit absent variant."""

    lower: CoefficientSpec | None = None
    upper: CoefficientSpec | None = None

    @property
    def sides(self) -> tuple[str, ...]:
        """The sides, ``"lower"`` then ``"upper"``, whose barrier is present."""
        return tuple(side for side in ("lower", "upper") if getattr(self, side) is not None)

    def shaped_sides(self) -> tuple[str, ...]:
        """The present sides whose barrier is not constant-like; each adds its
        shape columns to the regression design, which already spans a zero or
        constant barrier."""
        return tuple(side for side in self.sides
                     if getattr(self, side).kind not in CONSTANT_KINDS)


@dataclass(frozen=True)
class Scenario:
    """Full problem data for one solver run."""

    grid: TimeGrid
    dims: Dimensions
    terminal: CoefficientSpec
    driver: CoefficientSpec
    noise_coeff: CoefficientSpec
    obstacles: ObstacleSpec = ObstacleSpec()
    mc_paths: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.mc_paths < 2:
            raise ValueError("mc_paths must be >= 2 (regression needs at least two samples)")
        if not isinstance(self.seed, int):
            raise ValueError("seed must be an integer")


@dataclass(frozen=True)
class PenaltySchedule:
    """Increasing penalty rates with a stopping tolerance."""

    levels: tuple[float, ...]
    penetration_tol: float = 1e-4

    def __post_init__(self):
        if not self.levels:
            raise ValueError("schedule needs at least one level")
        # each check is written so that a NaN fails it
        if not all(n > 0 for n in self.levels):
            raise ValueError("penalty levels must be positive")
        if not all(a < b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("penalty levels must be strictly increasing")
        if not self.penetration_tol >= 0:
            raise ValueError("penetration_tol must be >= 0")

    @classmethod
    def geometric(cls, dt: float, base: float = 4.0, count: int = 7,
                  penetration_tol: float = 1e-4) -> "PenaltySchedule":
        """Default ladder: rates base^k / dt for k = 0..count-1."""
        if not dt > 0:
            raise ValueError(f"dt must be > 0, got {dt!r}")
        levels = tuple(base**k / dt for k in range(count))
        return cls(levels=levels, penetration_tol=penetration_tol)


@dataclass(frozen=True, eq=False)
class SolveMeta:
    """Provenance of a solution ensemble: scheme, seed, regression setup,
    per-step residual RMS (columns: continuation, drift, then z targets) and
    the penetration of each barrier, the mean over paths of
    sup_i ((L - Y)^+)^2 or sup_i ((Y - U)^+)^2 (zero without that barrier)."""

    scheme: str
    seed: int
    n_paths: int
    basis_size: int
    picard_iters: int
    regression: RegressionConfig
    residual_rms: np.ndarray
    penetration_lower: float = 0.0
    penetration_upper: float = 0.0


class SignedPushes:
    """The signed reflection pushes of a solve, dK_j = dK+_j - dK-_j per
    path and step j, held only where a barrier pushed.  By the Skorohod
    condition a barrier pushes a path only while Y sits on it, so most
    pushes are zero: on a corridor a few percent of the path-steps are
    pushed.  Per step: one ``np.packbits`` row of the contact mask (M/8
    bytes) and the pushes of the paths in contact, in path order.  ``put``
    holds one step: the sweep puts each step's contact and pushes as its
    reflection returns them (a path beyond a barrier whose push rounded to
    zero is held as +0.0).  A path not in contact reads back as +0.0.  A
    store is filled once, then only read, by ``SolutionEnsemble``, which
    forms dK and K from ``paths`` and ``values``."""

    def __init__(self, m: int, n: int):
        self.m = m
        self.contact = np.zeros((n, -(-m // 8)), dtype=np.uint8)
        self.values = [np.empty(0)] * n

    def put(self, j: int, contact: np.ndarray, values: np.ndarray) -> None:
        """Hold step j: ``contact`` is the boolean M-mask of the paths in
        contact and ``values`` their pushes in path order, kept as given."""
        self.contact[j] = np.packbits(contact)
        self.values[j] = values

    def paths(self, j: int) -> np.ndarray:
        """The paths pushed at step j, in order: the nonzero bits of its
        contact row."""
        if not self.values[j].size:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(np.unpackbits(self.contact[j], count=self.m).view(bool))

    @property
    def nbytes(self) -> int:
        """The bytes held: the contact rows and the pushes."""
        return self.contact.nbytes + sum(v.nbytes for v in self.values)


@dataclass(frozen=True, eq=False)
class SolutionEnsemble:
    """Per-path solution of a solve: Y, M x (N+1), Z, M x N x d, and the
    reflection.  Y and Z are held in ``store``: a solver's
    ``bdsde_solver.StepFits``, each step's fit coefficients and what else
    its Y step reads, from which ``rows`` forms Y's and Z's rows one step
    at a time, from the horizon back, by the sweep's own operations.  The
    store keeps the paths' W increments and marks alive, and dB when the
    basis has dB columns, and each read of Y evaluates the driver again, so
    a ``hook`` driver must be a pure function.  Any other store gives the
    same two reads: ``shape``, (M, N, d), and ``rows()``, which yields
    (N, Y_N, None) and then (i, Y_i, Z_i) for i = N-1, ..., 0; ``Y`` and
    ``Z`` stack the rows of one such walk.  The signed reflection
    increments dK_j = dK+_j - dK-_j, the push of step j, positive up from
    the lower barrier and negative down from the upper one (at most one
    side pushes a path in a step), are held in ``pushes``, a
    ``SignedPushes`` store of the paths each step pushed and their pushes,
    or None where nothing can push, a solve without a barrier.  A solver
    also returns the terminal values and barriers it solved against.

    Nothing dense is stored: each read of ``Y``, ``Z`` or ``dK`` forms the
    whole array.  The reflection process, M x (N+1) and nondecreasing from
    zero, K_0 = 0 and K_{j+1} = K_j + max(+-dK_j, 0), is formed by
    ``k_rows`` alone, one time row after another in one (M,) buffer, adding
    only at the paths step j pushed: ``K_plus``, ``K_minus`` and ``k``
    copy its rows, and ``k_terminal`` is its last row.  Read each once per
    use, or walk ``rows`` and ``k_rows``; ``shape`` gives Y's shape without
    forming it.  The K of a side without a barrier in ``obstacle_grid`` is
    zero."""

    store: StepFits
    pushes: SignedPushes | None
    meta: SolveMeta
    obstacle_grid: ObstacleGrid | None = None

    def __post_init__(self):
        m, n = self.store.shape[:2]
        if self.pushes is not None and (self.pushes.m, len(self.pushes.values)) != (m, n):
            raise ValueError("pushes shape inconsistent with Y")

    @property
    def shape(self) -> tuple[int, int]:
        """(M, N+1), the shape of Y, read off the store."""
        m, n = self.store.shape[:2]
        return m, n + 1

    def rows(self):
        """Y's and Z's rows from the horizon back: (N, Y_N, None), then
        (i, Y_i, Z_i) for i = N-1, ..., 0, Y_i an (M,) and Z_i an (M, d)
        row; a row is valid until the next one is read."""
        return self.store.rows()

    @property
    def Y(self) -> np.ndarray:
        """The M x (N+1) array, formed on each read by one walk of ``rows``
        and held time first, so each ``[:, i]`` is a contiguous row."""
        m, n_plus_1 = self.shape
        y = np.empty((n_plus_1, m))
        for i, row, _ in self.rows():
            y[i] = row
        return y.T

    @property
    def Z(self) -> np.ndarray:
        """The M x N x d array, formed on each read by one walk of
        ``rows``, which forms Y's rows as well, so a read of Z costs what a
        read of Y costs; ``[:, i, :]`` is a contiguous row."""
        m, n, d = self.store.shape
        z = np.empty((n, m, d))
        for i, _, row in self.rows():
            if i < n:  # the horizon row has no Z
                z[i] = row
        return z.transpose(1, 0, 2)

    @property
    def dK(self) -> np.ndarray:
        """The M x N signed pushes, formed on each read; ``[:, j]`` is a
        contiguous row."""
        m, n_plus_1 = self.shape
        dk = np.zeros((n_plus_1 - 1, m))
        if self.pushes is not None:
            for j, values in enumerate(self.pushes.values):
                dk[j, self.pushes.paths(j)] = values
        return dk.T

    def k_rows(self, side: str, pushed: list | None = None):
        """The reflection process of the barrier on ``side``, K_0 = 0 to
        K_N, one time row after another in one (M,) buffer, which step j's
        adds of max(dK_j, 0) below or max(-dK_j, 0) above overwrite: a row
        is valid until the next one is read.  ``pushed``, if given, holds
        per step j the paths it pushed, ``pushes.paths(j)``, which a caller
        that holds them hands over so they are not unpacked again."""
        m, n_plus_1 = self.shape
        row = np.zeros(m)
        yield row
        store = self.pushes
        if self.obstacle_grid is not None and side not in self.obstacle_grid.sides:
            store = None  # a side without a barrier never pushes
        push = np.empty(m)
        for j in range(n_plus_1 - 1):
            if store is not None:
                values = store.values[j]
                out = push[:values.size]
                np.maximum(values if side == "lower" else np.negative(values, out=out), 0.0,
                           out=out)
                np.add.at(row, store.paths(j) if pushed is None else pushed[j], out)
            yield row

    def k(self, side: str) -> np.ndarray:
        """The reflection process of the barrier on ``side``, formed on each
        call: K+ pushes up from the lower barrier, K- down from the upper
        one.  Held time first, so each ``[:, i]`` is a contiguous row."""
        m, n_plus_1 = self.shape
        k = np.empty((n_plus_1, m))
        for j, row in enumerate(self.k_rows(side)):
            k[j] = row
        return k.T

    def k_terminal(self, side: str) -> np.ndarray:
        """K_T of ``side`` per path: the last row of ``k_rows``."""
        for row in self.k_rows(side):
            pass
        return row

    @property
    def K_plus(self) -> np.ndarray:
        return self.k("lower")

    @property
    def K_minus(self) -> np.ndarray:
        return self.k("upper")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of scenario validation: one entry per violated condition."""

    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _probe_states(grid: TimeGrid, dims: Dimensions) -> np.ndarray:
    """Deterministic probe points for static obstacle checks: the origin plus
    +-1 and +-2 standard deviations along each W axis at the horizon scale."""
    scale = math.sqrt(grid.horizon)
    points = [np.zeros(dims.d)]
    for axis in range(dims.d):
        for mult in (-2.0, -1.0, 1.0, 2.0):
            p = np.zeros(dims.d)
            p[axis] = mult * scale
            points.append(p)
    return np.array(points)


def validate_scenario(s: Scenario) -> ValidationReport:
    """Check the structural conditions of a scenario; never raises.  Any
    barrier set is accepted, and each declared barrier is probed on a few
    states by its own rule (S_T <= xi below, xi <= U_T above, L < U at
    interior times when both are present).  The terminal, the driver and
    each barrier give one value per path and the noise 1 or l: a
    list-valued constant of another length is a violation, and is not
    probed.  The per-path versions of these conditions are checked by the
    solvers on the grid they evaluate, with
    :meth:`rbdsde.paths.ObstacleGrid.check_flags`.
    """
    violations: list[str] = []

    if not (0.0 < s.noise_coeff.alpha < 1.0):
        violations.append(f"alpha out of (0,1): noise coefficient declares alpha={s.noise_coeff.alpha}")
    for name, spec in (("terminal", s.terminal), ("driver", s.driver), ("noise", s.noise_coeff)):
        if spec.lip_const < 0:
            violations.append(f"{name} declares a negative lip_const")
    for name, spec in (("terminal", s.terminal), ("lower obstacle", s.obstacles.lower),
                       ("upper obstacle", s.obstacles.upper)):
        if spec is not None and not spec.depends_on_state_only() and spec.kind != "hook":
            violations.append(f"{name} must depend on (t, w) only")
    if s.driver.kind == "linear":
        a_z = s.driver.param("a_z")
        if a_z and len(a_z) != s.dims.d:
            violations.append(f"driver a_z has {len(a_z)} entries but d={s.dims.d}")
    listed = set()  # the coefficients whose list is not probed
    for name, spec in (("terminal", s.terminal), ("driver", s.driver), ("noise", s.noise_coeff),
                       ("lower obstacle", s.obstacles.lower), ("upper obstacle", s.obstacles.upper)):
        if spec is None or spec.kind != "constant" or np.ndim(spec.param("value")) == 0:
            continue
        count = len(spec.param("value"))
        if name != "noise":
            listed.add(name)
            violations.append(f"{name} gives one value per path, got a list of {count}")
        elif count != s.dims.l:
            violations.append(f"noise gives 1 or l={s.dims.l} values per path, got a list of {count}")

    w_probe = _probe_states(s.grid, s.dims)
    t_interior = [0.0, s.grid.horizon / 3.0, 2.0 * s.grid.horizon / 3.0,
                  s.grid.times[s.grid.steps - 1] if s.grid.steps > 1 else 0.0]

    lower, upper = (None if f"{side} obstacle" in listed else getattr(s.obstacles, side)
                    for side in ("lower", "upper"))
    if "terminal" not in listed:
        xi_probe = s.terminal.evaluate(s.grid.horizon, w_probe)
        if lower is not None and np.any(lower.evaluate(s.grid.horizon, w_probe) > xi_probe):
            violations.append("S_T <= xi violated on the static probe grid")
        if upper is not None and np.any(xi_probe > upper.evaluate(s.grid.horizon, w_probe)):
            violations.append("xi <= U_T violated on the static probe grid")
    if lower is not None and upper is not None and any(
            np.any(lower.evaluate(t, w_probe) >= upper.evaluate(t, w_probe)) for t in t_interior):
        violations.append("L<U violated on the static probe grid")

    return ValidationReport(violations=tuple(violations))
