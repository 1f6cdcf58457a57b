"""Independent reference solutions: closed forms, a recombining-lattice
dynamic-programming value for the g = 0 specialisation, and stopping-rule
lower bounds for the optimal-stopping representation of the reflected
solution.

The lattice walks +-sqrt(dt) with probability 1/2 each, an entirely different
discretisation from the Monte Carlo regression solver, which is what makes it
usable as an oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bdsde_solver import coefficient_steps
from .model import Scenario, SolutionEnsemble
from .paths import NoisePaths, obstacle_on_grid

# Lattice value (2000 steps) for the reference stopping scenario
# xi = (-W_T)^+, S_t = (-W_t)^+, f = 0, g = 0, T = 1, frozen at build time.
# The payoff is a submartingale, so the value coincides with the analytic
# no-stopping bound E[(-W_T)^+] = sqrt(T / 2 pi) = 0.398942...
STOPPING_PUT_DP_VALUE = 0.3989


def lattice_scope_problem(s: Scenario) -> str | None:
    """Why the lattice oracle cannot value ``s``, or None when it can."""
    if s.noise_coeff.kind != "zero":
        return "the lattice oracle needs g = 0"
    if s.dims.d != 1:
        return "the lattice oracle needs d = 1"
    linear_in_y = s.driver.kind in ("zero", "constant") or (
        s.driver.kind == "linear" and all(v == 0.0 for v in s.driver.param("a_z")))
    if not linear_in_y:
        return "the driver must be at most linear in y"
    if s.obstacles.has_upper:
        return "the lattice oracle handles a lower obstacle only"
    return None


def dp_stopping_value(s: Scenario, lattice_steps: int = 2000) -> float:
    """Value at (t=0, W_0=0) by backward induction over all stopping
    strategies on a recombining binomial lattice for W."""
    problem = lattice_scope_problem(s)
    if problem is not None:
        raise ValueError(f"unsupported scenario: {problem}")
    if lattice_steps < 1:
        raise ValueError("lattice_steps must be >= 1")

    dt = s.grid.horizon / lattice_steps
    sqrt_dt = math.sqrt(dt)

    # level k has k+1 nodes at w = (2j - k) sqrt(dt)
    w = (2.0 * np.arange(lattice_steps + 1) - lattice_steps) * sqrt_dt
    values = s.terminal.evaluate(s.grid.horizon, w[:, None])

    for k in range(lattice_steps - 1, -1, -1):
        w = (2.0 * np.arange(k + 1) - k) * sqrt_dt
        t = k * dt
        cont = 0.5 * (values[:-1] + values[1:])
        w_col = w[:, None]
        # two fixed-point passes resolve the y-dependence of the drift
        y_val = cont + s.driver.evaluate(t, w_col, cont, None) * dt
        y_val = cont + s.driver.evaluate(t, w_col, y_val, None) * dt
        if s.obstacles.has_lower:
            y_val = np.maximum(s.obstacles.lower.evaluate(t, w_col), y_val)
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
    plus the obstacle there, or the terminal value if never stopped."""
    m, n = s.mc_paths, s.grid.steps
    grids = obstacle_on_grid(s, p)
    if grids.lower is None:
        raise ValueError("configuration error: stopping rules need a lower obstacle")

    if isinstance(rule, FixedRule):
        if not 0 <= rule.index <= n:
            raise ValueError(f"fixed stopping index must be in [0, {n}]")
        nu = np.full(m, rule.index)
    else:
        hit = sol.Y <= grids.lower + rule.epsilon
        hit[:, n] = True
        nu = np.argmax(hit, axis=1)

    payoff = np.where(nu == n, grids.xi, np.take_along_axis(grids.lower, nu[:, None], axis=1)[:, 0])

    steps = coefficient_steps(sol, s, p, lag=0)
    running = np.zeros(m)
    for i in range(n):
        running = running + np.where(i < nu, steps[:, i], 0.0)
    value = payoff.astype(float) + running

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
