"""Lattice DP oracle, stopping rules, closed forms."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rbdsde import (
    CoefficientSpec,
    FixedRule,
    HittingRule,
    ObstacleSpec,
    PenaltySchedule,
    RegressionConfig,
    closed_form_reference,
    dp_self_check,
    dp_stopping_value,
    generate_paths,
    solve_double,
    solve_projected,
    stopping_rule_value,
)
from rbdsde.diagnostics import pooled_se
from rbdsde.oracles import STOPPING_PUT_DP_VALUE, lattice_scope_problem
from rbdsde.scenarios import (
    constant_g_scenario,
    constant_scenario,
    stopping_drift_scenario,
    stopping_put_scenario,
    two_barrier_scenario,
)


class TestDpStoppingValue:

    def test_constant_scenario_exact(self):
        assert dp_stopping_value(constant_scenario(paths=100), 500) == pytest.approx(5.0, abs=1e-12)

    def test_frozen_reference_value(self):
        value = dp_stopping_value(stopping_put_scenario(paths=100), 2000)
        assert value == pytest.approx(STOPPING_PUT_DP_VALUE, abs=5e-4)

    def test_submartingale_payoff_never_exercised_early(self):
        # analytic oracle E[W_T^+] = sqrt(T / 2 pi); the DP verifies that
        # waiting beats exercising for a submartingale payoff
        def pos_part(t, w, y, z):
            return np.maximum(w[:, 0], 0.0)

        sc = dataclasses.replace(
            stopping_put_scenario(paths=100),
            terminal=CoefficientSpec.hook(pos_part),
            obstacles=ObstacleSpec(lower=CoefficientSpec.hook(pos_part)),
        )
        value = dp_stopping_value(sc, 2000)
        assert value == pytest.approx(math.sqrt(1.0 / (2.0 * math.pi)), rel=0.005)

    def test_richardson_self_check(self):
        assert dp_self_check(stopping_put_scenario(paths=100), 2000) < 0.002
        assert dp_self_check(stopping_drift_scenario(paths=100), 2000) < 0.002

    def test_monotone_in_obstacle(self):
        base = stopping_put_scenario(paths=100)
        lowered = dataclasses.replace(
            base, obstacles=ObstacleSpec(lower=CoefficientSpec.constant(-5.0))
        )
        no_obstacle = dataclasses.replace(base, obstacles=ObstacleSpec())
        v_low = dp_stopping_value(lowered, 1000)
        v_none = dp_stopping_value(no_obstacle, 1000)
        v_high = dp_stopping_value(base, 1000)
        assert v_low <= v_high + 1e-12
        assert v_none <= v_high + 1e-12

    def test_unsupported_scenarios(self):
        with pytest.raises(ValueError, match="unsupported scenario"):
            dp_stopping_value(constant_g_scenario(paths=100), 100)
        from rbdsde import Dimensions
        multi = dataclasses.replace(constant_scenario(paths=100), dims=Dimensions(d=2, l=1))
        with pytest.raises(ValueError, match="unsupported scenario"):
            dp_stopping_value(multi, 100)

    def test_running_cost_lowers_the_value(self):
        v_free = dp_stopping_value(stopping_put_scenario(paths=100), 1000)
        v_cost = dp_stopping_value(stopping_drift_scenario(paths=100), 1000)
        assert v_cost < v_free


class TestCorridorLattice:
    """min(U, max(L, .)) at each lattice node: the discrete Dynkin game,
    whose value is the doubly reflected solution."""

    # (drift, width): the corridor [-width, width] binds on both sides, and
    # the lattice value at 2000 steps
    CASES = {(0.3, 1.0): 0.29379, (0.6, 0.8): 0.56293, (-0.5, 0.6): -0.45825}

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("drift, width", sorted(CASES))
    def test_solver_is_within_one_percent_of_the_lattice(self, drift, width, seed):
        sc = two_barrier_scenario(paths=30_000, steps=50, seed=seed, width=width, drift=drift)
        assert lattice_scope_problem(sc) is None
        lattice = dp_stopping_value(sc, 2000)
        assert lattice == pytest.approx(self.CASES[drift, width], abs=5e-6)
        sol, trace = solve_double(sc, generate_paths(sc), RegressionConfig(degree_w=5, include_dB=False),
                                  schedule=PenaltySchedule.geometric(sc.grid.dt, penetration_tol=1e-6))
        assert trace.converged
        assert abs(sol.Y[:, 0].mean() - lattice) < 0.01 * abs(lattice)

    def test_upper_barrier_alone_is_the_mirrored_lower_one(self):
        # Y -> -Y: xi -> -xi, f -> -f, L -> -U, on a lattice symmetric in w
        def neg_part(t, w, y=None, z=None):
            return np.maximum(-w[:, 0], 0.0)

        def neg_neg_part(t, w, y=None, z=None):
            return -np.maximum(-w[:, 0], 0.0)

        lower = dataclasses.replace(stopping_drift_scenario(paths=100),
                                    terminal=CoefficientSpec.hook(neg_part),
                                    obstacles=ObstacleSpec(lower=CoefficientSpec.hook(neg_part)))
        upper = dataclasses.replace(lower, terminal=CoefficientSpec.hook(neg_neg_part),
                                    driver=CoefficientSpec.constant(-lower.driver.param("value")),
                                    obstacles=ObstacleSpec(upper=CoefficientSpec.hook(neg_neg_part)))
        assert dp_stopping_value(upper, 500) == -dp_stopping_value(lower, 500)

    def test_barriers_crossing_at_a_lattice_node_are_out_of_scope(self):
        # exp(W) >= 3 once W >= log 3, which the 100-step lattice reaches
        sc = dataclasses.replace(
            two_barrier_scenario(paths=100),
            obstacles=ObstacleSpec(lower=CoefficientSpec.exponential(1.0),
                                   upper=CoefficientSpec.constant(3.0)))
        assert lattice_scope_problem(sc, 100) == "the barriers cross (L >= U) at lattice nodes"
        with pytest.raises(ValueError, match="barriers cross"):
            dp_stopping_value(sc, 100)
        # the 1-step lattice has the one node W_0 = 0, where 1 < 3
        assert lattice_scope_problem(sc, 1) is None


@pytest.fixture(scope="module")
def solved(binding_problem, fast_cfg):
    sc, p = binding_problem
    return sc, p, solve_projected(sc, p, fast_cfg)


class TestStoppingRules:

    def test_fixed_terminal_rule_is_lower_bound(self, solved):
        sc, p, sol = solved
        rv = stopping_rule_value(sol, sc, p, FixedRule(index=sc.grid.steps))
        y0 = sol.Y[:, 0].mean()
        assert rv.mean <= y0 + 3.0 * rv.se + 3.0 * pooled_se(sol)

    def test_fixed_zero_rule_gives_mean_initial_obstacle(self, solved):
        sc, p, sol = solved
        rv = stopping_rule_value(sol, sc, p, FixedRule(index=0))
        assert rv.mean == pytest.approx(0.0, abs=1e-12)  # S(0, 0) = 0

    def test_hitting_rule_attains_the_value(self, solved):
        sc, p, sol = solved
        eps = 3.0 * pooled_se(sol)
        rv = stopping_rule_value(sol, sc, p, HittingRule(epsilon=eps))
        y0 = sol.Y[:, 0].mean()
        assert abs(rv.mean - y0) <= 3.0 * rv.se + 0.02 * abs(y0)

    def test_every_rule_below_value(self, solved):
        sc, p, sol = solved
        y0 = sol.Y[:, 0].mean()
        slack = 3.0 * pooled_se(sol)
        for rule in (FixedRule(0), FixedRule(10), FixedRule(25), FixedRule(50),
                     HittingRule(0.0), HittingRule(0.01)):
            rv = stopping_rule_value(sol, sc, p, rule)
            assert rv.mean <= y0 + 3.0 * rv.se + slack

    @pytest.mark.parametrize("rule", [FixedRule(index=25), HittingRule(epsilon=0.0)])
    def test_a_rule_reads_barrier_rows_not_the_whole_barrier(self, fast_cfg, rule):
        # the shaped barrier of this scenario is held as what evaluates its
        # rows: beside the (M, N) drift steps the rule forms a few rows, not
        # the (M, N+1) barrier
        sc = stopping_drift_scenario(paths=10_000, steps=50)
        p = generate_paths(sc)
        sol = solve_projected(sc, p, fast_cfg)
        m, n = sc.mc_paths, sc.grid.steps
        tracemalloc.start()
        try:
            stopping_rule_value(sol, sc, p, rule)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (n + 10) * m * 8

    def test_bad_index_rejected(self, solved):
        sc, p, sol = solved
        with pytest.raises(ValueError):
            stopping_rule_value(sol, sc, p, FixedRule(index=99))

    @pytest.mark.parametrize("seed", [3, 7])
    def test_never_stop_rule_takes_g_at_the_step_end(self, seed):
        # g = y/2 varies along the paths; the backward Ito sum, like the
        # sweep, evaluates it at the right end of each step.  At the left
        # end the rule read 1.25 against a mean Y0 of 1.00, 65 se high
        sc = dataclasses.replace(constant_scenario(paths=20_000, steps=50, seed=seed),
                                 terminal=CoefficientSpec.constant(1.0),
                                 noise_coeff=CoefficientSpec.linear(a_y=0.5))
        p = generate_paths(sc)
        sol = solve_projected(sc, p, RegressionConfig(degree_w=2, include_dB=True))
        rv = stopping_rule_value(sol, sc, p, FixedRule(index=sc.grid.steps))
        assert abs(rv.mean - sol.Y[:, 0].mean()) <= 3.0 * rv.se

    def test_backward_noise_enters_the_estimate(self, fast_cfg):
        # g != 0: the accumulated g.dB term must appear in the rule value
        sc = dataclasses.replace(
            constant_g_scenario(paths=5000, steps=20),
            obstacles=ObstacleSpec(lower=CoefficientSpec.constant(-50.0)),
        )
        p = generate_paths(sc)
        from rbdsde import solve_penalized

        sol = solve_penalized(sc, p, level=1.0)
        rv = stopping_rule_value(sol, sc, p, FixedRule(index=sc.grid.steps))
        # per path the never-stop value is xi + sum g.dB = 0.3 * B_T
        assert rv.mean == pytest.approx(0.3 * p.B_state[:, -1, 0].mean(), abs=1e-10)


class TestClosedFormReference:

    def test_catalog_entries(self):
        assert closed_form_reference("constant").y0_mean == 5.0
        assert closed_form_reference("linear_drift").y0_mean == pytest.approx(1.64872, abs=1e-5)
        ref_g = closed_form_reference("constant_g")
        assert ref_g.y0_mean == 0.0 and ref_g.y0_variance == pytest.approx(0.09)
        assert closed_form_reference("stopping_put").y0_mean == STOPPING_PUT_DP_VALUE

    def test_unknown_case(self):
        with pytest.raises(ValueError, match="unknown reference case"):
            closed_form_reference("mystery")
