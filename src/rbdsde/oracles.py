"""Independent reference solutions: closed forms, a recombining-lattice
dynamic-programming value for the g = 0 specialisation (one barrier, or a
corridor of two), and stopping-rule lower bounds for the optimal-stopping
representation of the one-barrier reflected solution.

The lattice walks +-sqrt(dt) with probability 1/2 each, an entirely different
discretisation from the Monte Carlo regression solver, which is what makes it
usable as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdsde_solver import _lower_only_grid, coefficient_steps
from .model import Scenario, SolutionEnsemble
from .paths import NoisePaths

# Lattice value (2000 steps) for the reference stopping scenario
# xi = (-W_T)^+, S_t = (-W_t)^+, f = 0, g = 0, T = 1, frozen at build time.
# The payoff is a submartingale, so the value coincides with the analytic
# no-stopping bound E[(-W_T)^+] = sqrt(T / 2 pi) = 0.398942...
STOPPING_PUT_DP_VALUE = 0.3989


def _lattice_levels(s: Scenario, lattice_steps: int):
    """The lattice's levels k = lattice_steps - 1, ..., 0 below the
    horizon, as (t, w): level k has k+1 nodes at w = (2j - k) sqrt(dt),
    an M x 1 column."""
    dt = s.grid.horizon / lattice_steps
    sqrt_dt = math.sqrt(dt)
    for k in range(lattice_steps - 1, -1, -1):
        yield k * dt, ((2.0 * np.arange(k + 1) - k) * sqrt_dt)[:, None]


def lattice_scope_problem(s: Scenario, lattice_steps: int = 2000) -> str | None:
    """Why the lattice oracle cannot value ``s``, or None when it can.
    With two barriers, they must not cross (L < U) at any node of the
    ``lattice_steps``-step lattice below the horizon."""
    if s.noise_coeff.kind != "zero":
        return "the lattice oracle needs g = 0"
    if s.dims.d != 1:
        return "the lattice oracle needs d = 1"
    linear_in_y = s.driver.kind in ("zero", "constant") or (
        s.driver.kind == "linear" and all(v == 0.0 for v in s.driver.param("a_z")))
    if not linear_in_y:
        return "the driver must be at most linear in y"
    lower, upper = s.obstacles.lower, s.obstacles.upper
    if lower is not None and upper is not None and any(
            np.any(lower.evaluate(t, w) >= upper.evaluate(t, w))
            for t, w in _lattice_levels(s, lattice_steps)):
        return "the barriers cross (L >= U) at lattice nodes"
    return None


def dp_stopping_value(s: Scenario, lattice_steps: int = 2000) -> float:
    """Value at (t=0, W_0=0) by backward induction on a recombining
    binomial lattice for W: over all stopping strategies, max(L, .) at
    each node, for a lower barrier; min(U, .) for an upper one; and
    min(U, max(L, .)) for a corridor, the discrete Dynkin game, whose
    value is the doubly reflected solution (Cvitanic & Karatzas 1996)."""
    if lattice_steps < 1:
        raise ValueError("lattice_steps must be >= 1")
    problem = lattice_scope_problem(s, lattice_steps)
    if problem is not None:
        raise ValueError(f"unsupported scenario: {problem}")

    dt = s.grid.horizon / lattice_steps
    sqrt_dt = math.sqrt(dt)

    # level k has k+1 nodes at w = (2j - k) sqrt(dt)
    w = (2.0 * np.arange(lattice_steps + 1) - lattice_steps) * sqrt_dt
    values = s.terminal.evaluate(s.grid.horizon, w[:, None])

    for t, w_col in _lattice_levels(s, lattice_steps):
        cont = 0.5 * (values[:-1] + values[1:])
        # two fixed-point passes resolve the y-dependence of the drift
        y_val = cont + s.driver.evaluate(t, w_col, cont, None) * dt
        y_val = cont + s.driver.evaluate(t, w_col, y_val, None) * dt
        if s.obstacles.lower is not None:
            y_val = np.maximum(s.obstacles.lower.evaluate(t, w_col), y_val)
        if s.obstacles.upper is not None:
            y_val = np.minimum(s.obstacles.upper.evaluate(t, w_col), y_val)
        values = y_val

    return float(values[0])


def dp_self_check(s: Scenario, lattice_steps: int = 2000) -> float:
    """Relative move of the value when the lattice is refined twofold; the
    oracle is considered unreliable above 0.2%."""
    coarse = dp_stopping_value(s, lattice_steps)
    fine = dp_stopping_value(s, 2 * lattice_steps)
    return abs(fine - coarse) / max(abs(coarse), 1e-12)


@dataclass(frozen=True)
class HittingRule:
    """Stop the first time Y comes within epsilon of the obstacle."""

    epsilon: float = 0.0


@dataclass(frozen=True)
class FixedRule:
    """Stop at one fixed grid index on every path."""

    index: int


@dataclass(frozen=True)
class RuleValue:
    mean: float
    se: float


def stopping_rule_value(
    sol: SolutionEnsemble,
    s: Scenario,
    p: NoisePaths,
    rule: HittingRule | FixedRule,
) -> RuleValue:
    """Monte Carlo value of one admissible stopping rule applied to a solved
    ensemble: accumulated drift (and backward-noise) up to the stopping index
    plus the obstacle there, or the terminal value if never stopped.  The
    obstacle and terminal values are those of the solver's obstacle grid."""
    m, n = s.mc_paths, s.grid.steps
    grids = _lower_only_grid(sol, "stopping rules need a lower obstacle",
                             "stopping rules ignore K- of an upper obstacle")

    fixed = isinstance(rule, FixedRule)
    if fixed and not 0 <= rule.index <= n:
        raise ValueError(f"fixed stopping index must be in [0, {n}]")
    nu = np.full(m, rule.index if fixed else n, dtype=np.min_scalar_type(n))
    payoff = (grids.row("lower", rule.index) if fixed and rule.index < n else grids.xi).astype(float)

    def hitting(rows):
        """The rows, each hit recorded as they pass: they come from the
        horizon back, so a path keeps its first hit, and a path never hit
        stops at the horizon."""
        for i, y, z in rows:
            if i < n:
                lower = grids.row("lower", i)
                hit = y <= lower + rule.epsilon
                nu[hit], payoff[hit] = i, lower[hit]
                del lower, hit  # not held while the next rows are formed
            yield i, y, z

    steps = coefficient_steps(sol.rows() if fixed else hitting(sol.rows()), s, p, lag=0)
    running = np.zeros(m)
    for i in range(n):
        running = running + np.where(i < nu, steps[:, i], 0.0)
    value = payoff + running

    mean = float(value.mean())
    se = float(value.std(ddof=1) / math.sqrt(m))
    return RuleValue(mean=mean, se=se)


@dataclass(frozen=True)
class ReferenceCase:
    case_id: str
    y0_mean: float
    y0_variance: float | None
    note: str


def closed_form_reference(case_id: str) -> ReferenceCase:
    """Analytic (or frozen lattice) targets for the shipped scenario catalog."""
    if case_id == "constant":
        return ReferenceCase("constant", 5.0, 0.0, "constant terminal propagates exactly")
    if case_id == "linear_drift":
        return ReferenceCase("linear_drift", math.exp(0.5), 0.0,
                             "deterministic growth exp(a*T) with a=0.5, T=1")
    if case_id == "constant_g":
        return ReferenceCase("constant_g", 0.0, 0.09,
                             "Y_t = beta*(B_T - B_t) with beta=0.3, T=1")
    if case_id == "stopping_put":
        return ReferenceCase("stopping_put", STOPPING_PUT_DP_VALUE, None,
                             "lattice value at 2000 steps, frozen at build time")
    raise ValueError(f"unknown reference case {case_id!r}")
