"""Shipped scenario catalog used by tests, diagnostics and the CLI examples."""
from __future__ import annotations

from dataclasses import replace


from .model import CoefficientSpec, Dimensions, ObstacleSpec, Scenario, TimeGrid


def constant_scenario(paths: int = 10_000, steps: int = 50, seed: int = 42) -> Scenario:
    """f = 0, g = 0, xi = 5 with a far lower barrier at -10: the constant
    propagates exactly and the barrier never acts."""
    return Scenario(
        grid=TimeGrid(horizon=1.0, steps=steps),
        dims=Dimensions(),
        terminal=CoefficientSpec.constant(5.0),
        driver=CoefficientSpec.zero(),
        noise_coeff=CoefficientSpec.zero(),
        obstacles=ObstacleSpec(lower=CoefficientSpec.constant(-10.0)),
        mc_paths=paths,
        seed=seed,
    )


def linear_drift_scenario(paths: int = 20_000, steps: int = 64, seed: int = 42,
                          rate: float = 0.5) -> Scenario:
    """f = rate * y, xi = 1, no noise, no barriers: Y_0 = exp(rate * T)."""
    return Scenario(
        grid=TimeGrid(horizon=1.0, steps=steps),
        dims=Dimensions(),
        terminal=CoefficientSpec.constant(1.0),
        driver=CoefficientSpec.linear(a_y=rate, a_z=(0.0,)),
        noise_coeff=CoefficientSpec.zero(),
        mc_paths=paths,
        seed=seed,
    )


def constant_g_scenario(paths: int = 20_000, steps: int = 50, seed: int = 42,
                        beta: float = 0.3) -> Scenario:
    """f = 0, g = beta, xi = 0: the exact solution is Y_t = beta*(B_T - B_t),
    carried by the backward-increment block of the regression basis."""
    return Scenario(
        grid=TimeGrid(horizon=1.0, steps=steps),
        dims=Dimensions(),
        terminal=CoefficientSpec.zero(),
        driver=CoefficientSpec.zero(),
        noise_coeff=CoefficientSpec.constant(beta),
        mc_paths=paths,
        seed=seed,
    )


def stopping_put_scenario(paths: int = 100_000, steps: int = 50, seed: int = 42) -> Scenario:
    """xi = (-W_T)^+ with obstacle S_t = (-W_t)^+, f = 0, g = 0: the lattice
    oracle scenario (the payoff is a submartingale, so waiting is optimal)."""
    return Scenario(
        grid=TimeGrid(horizon=1.0, steps=steps),
        dims=Dimensions(),
        terminal=CoefficientSpec.payoff_neg_part(),
        driver=CoefficientSpec.zero(),
        noise_coeff=CoefficientSpec.zero(),
        obstacles=ObstacleSpec(lower=CoefficientSpec.payoff_neg_part()),
        mc_paths=paths,
        seed=seed,
    )


def stopping_drift_scenario(paths: int = 20_000, steps: int = 50, seed: int = 42,
                            cost: float = 1.0) -> Scenario:
    """Same payoff/obstacle pair with a running cost f = -cost: waiting is
    expensive, the obstacle binds and K_T is strictly positive."""
    return Scenario(
        grid=TimeGrid(horizon=1.0, steps=steps),
        dims=Dimensions(),
        terminal=CoefficientSpec.payoff_neg_part(),
        driver=CoefficientSpec.constant(-cost),
        noise_coeff=CoefficientSpec.zero(),
        obstacles=ObstacleSpec(lower=CoefficientSpec.payoff_neg_part()),
        mc_paths=paths,
        seed=seed,
    )


def two_barrier_scenario(paths: int = 20_000, steps: int = 50, seed: int = 42,
                         width: float = 2.0, drift: float = 0.0) -> Scenario:
    """Constant corridor [-width, width] with xi = clamp(W_T); a nonzero
    drift pushes the solution onto one of the barriers."""
    driver = CoefficientSpec.constant(drift) if drift else CoefficientSpec.zero()
    return Scenario(
        grid=TimeGrid(horizon=1.0, steps=steps),
        dims=Dimensions(),
        terminal=CoefficientSpec.clamp(-width, width),
        driver=driver,
        noise_coeff=CoefficientSpec.zero(),
        obstacles=ObstacleSpec(
            lower=CoefficientSpec.constant(-width),
            upper=CoefficientSpec.constant(width),
        ),
        mc_paths=paths,
        seed=seed,
    )


def diagnostics_suite(paths: int = 10_000, steps: int = 50, seed: int = 42) -> dict[str, Scenario]:
    """The six scenarios used for suite-level statistics."""
    return {
        "constant": constant_scenario(paths, steps, seed),
        "linear_drift": linear_drift_scenario(paths, steps, seed),
        "constant_g": constant_g_scenario(paths, steps, seed),
        "stopping_put": stopping_put_scenario(paths, steps, seed),
        "stopping_drift": stopping_drift_scenario(paths, steps, seed),
        "two_barrier": two_barrier_scenario(paths, steps, seed),
    }


def _shifted(base: CoefficientSpec, delta: float) -> CoefficientSpec:
    """The coefficient base + delta, with the Lipschitz constant of base."""

    def shifted(t, w, y, z):
        return base.evaluate(t, w, y, z) + delta

    return CoefficientSpec.hook(shifted, lip_const=base.lip_const)


def shift_terminal(s: Scenario, delta: float) -> Scenario:
    """Scenario with terminal value xi + delta (perturbation helper)."""
    return replace(s, terminal=_shifted(s.terminal, delta))


def shift_lower_obstacle(s: Scenario, delta: float) -> Scenario:
    """Scenario with the lower barrier moved by delta (negative keeps
    terminal domination intact)."""
    if s.obstacles.lower is None:
        raise ValueError("the scenario declares no lower obstacle to shift")
    return replace(s, obstacles=replace(s.obstacles, lower=_shifted(s.obstacles.lower, delta)))
