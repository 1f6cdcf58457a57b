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

    def param(self, name: str, default=None):
        for key, value in self.params:
            if key == name:
                return value
        if default is None:
            raise KeyError(f"{self.kind} coefficient has no parameter {name!r}")
        return default

    # -- catalog constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "CoefficientSpec":
        return cls(kind="zero")

    @classmethod
    def constant(cls, value) -> "CoefficientSpec":
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
        """Library-only escape hatch: fn(t, w, y, z) vectorised over paths."""
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
    def has_lower(self) -> bool:
        return self.lower is not None

    @property
    def has_upper(self) -> bool:
        return self.upper is not None


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
    max_levels: int | None = None

    def __post_init__(self):
        if not self.levels:
            raise ValueError("schedule needs at least one level")
        if any(n <= 0 for n in self.levels):
            raise ValueError("penalty levels must be positive")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("penalty levels must be strictly increasing")
        if self.penetration_tol < 0:
            raise ValueError("penetration_tol must be >= 0")
        if self.max_levels is not None and self.max_levels < 1:
            raise ValueError("max_levels must be >= 1")

    @classmethod
    def geometric(cls, dt: float, base: float = 4.0, count: int = 7,
                  penetration_tol: float = 1e-4) -> "PenaltySchedule":
        """Default ladder: rates base^k / dt for k = 0..count-1."""
        levels = tuple(base**k / dt for k in range(count))
        return cls(levels=levels, penetration_tol=penetration_tol)

    def active_levels(self) -> tuple[float, ...]:
        if self.max_levels is None:
            return self.levels
        return self.levels[: self.max_levels]


@dataclass(frozen=True, eq=False)
class SolveMeta:
    """Provenance of a solution ensemble: scheme, seed, regression setup and
    per-step residual RMS (columns: continuation, drift, then z targets)."""

    scheme: str
    seed: int
    n_paths: int
    basis_size: int
    picard_iters: int
    regression: RegressionConfig
    residual_rms: np.ndarray
    penalty_lower: float | None = None
    penalty_upper: float | None = None
    converged: bool | None = None


@dataclass(frozen=True, eq=False)
class SolutionEnsemble:
    """Per-path solution arrays: Y is M x (N+1), Z is M x N x d, and the two
    reflection processes are M x (N+1), nondecreasing from zero.  A solver
    also returns the terminal values and barriers it solved against."""

    Y: np.ndarray
    Z: np.ndarray
    K_plus: np.ndarray
    K_minus: np.ndarray
    meta: SolveMeta
    obstacle_grid: ObstacleGrid | None = None

    def __post_init__(self):
        m, n_plus_1 = self.Y.shape
        if self.Z.shape[0] != m or self.Z.shape[1] != n_plus_1 - 1:
            raise ValueError("Z shape inconsistent with Y")
        if self.K_plus.shape != (m, n_plus_1) or self.K_minus.shape != (m, n_plus_1):
            raise ValueError("K arrays must match Y's shape")

    @property
    def n_steps(self) -> int:
        return self.Y.shape[1] - 1


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of scenario validation: one entry per violated condition plus
    the per-path checks that can only run once an ensemble exists."""

    violations: tuple[str, ...] = ()
    deferred: tuple[str, ...] = ()

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
    """Check the structural conditions of a scenario; never raises.

    Per-path conditions (S_T <= xi, L < U along sampled paths) cannot be
    decided here; they are listed as deferred and re-checked on the generated
    ensemble by :func:`rbdsde.paths.obstacle_on_grid`.
    """
    violations: list[str] = []
    deferred: list[str] = []

    if not (0.0 < s.noise_coeff.alpha < 1.0):
        violations.append(f"alpha out of (0,1): noise coefficient declares alpha={s.noise_coeff.alpha}")
    for name, spec in (("terminal", s.terminal), ("driver", s.driver), ("noise", s.noise_coeff)):
        if spec.lip_const < 0:
            violations.append(f"{name} declares a negative lip_const")
    for name, spec in (("terminal", s.terminal), ("lower obstacle", s.obstacles.lower),
                       ("upper obstacle", s.obstacles.upper)):
        if spec is not None and not spec.depends_on_state_only() and spec.kind != "hook":
            violations.append(f"{name} must depend on (t, w) only")
    if s.obstacles.has_upper and not s.obstacles.has_lower:
        violations.append("upper barrier without lower barrier is unsupported")
    if s.driver.kind == "linear":
        a_z = s.driver.param("a_z")
        if a_z and len(a_z) != s.dims.d:
            violations.append(f"driver a_z has {len(a_z)} entries but d={s.dims.d}")

    w_probe = _probe_states(s.grid, s.dims)
    t_interior = [0.0, s.grid.horizon / 3.0, 2.0 * s.grid.horizon / 3.0,
                  s.grid.times[s.grid.steps - 1] if s.grid.steps > 1 else 0.0]

    if s.obstacles.has_lower and s.obstacles.has_upper:
        lo, up = s.obstacles.lower, s.obstacles.upper
        for t in t_interior:
            if np.any(lo.evaluate(t, w_probe) >= up.evaluate(t, w_probe)):
                violations.append("L<U violated on the static probe grid")
                break
        deferred.append("L<U on all sampled (t_i, w) with i < N")
        deferred.append("L_T <= xi <= U_T per path")
    elif s.obstacles.has_lower:
        xi_probe = s.terminal.evaluate(s.grid.horizon, w_probe)
        s_probe = s.obstacles.lower.evaluate(s.grid.horizon, w_probe)
        if np.any(s_probe > xi_probe):
            violations.append("S_T <= xi violated on the static probe grid")
        deferred.append("S_T <= xi per path")

    return ValidationReport(violations=tuple(violations), deferred=tuple(deferred))
