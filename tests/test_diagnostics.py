"""Structural checks: comparison, increments, energy and stability statistics."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from rbdsde import (
    CoefficientSpec,
    Dimensions,
    ObstacleSpec,
    SolutionEnsemble,
    check_comparison,
    check_dK_comparison,
    generate_paths,
    solve_bdsde,
    solve_double,
    solve_projected,
    stability_statistic,
)
from rbdsde.diagnostics import apriori_statistic, pooled_se, regression_se
from rbdsde.model import ConfigError
from rbdsde.scenarios import (
    constant_g_scenario,
    constant_scenario,
    diagnostics_suite,
    shift_terminal,
    stopping_drift_scenario,
    stopping_put_scenario,
    two_barrier_scenario,
)


class TestCheckComparison:

    def test_identical_solutions_zero_violations(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        result = check_comparison(sol, sol, p)
        assert result.violation_fraction == 0.0
        assert result.passed

    def test_terminal_shift_ordering(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        sol_up = solve_projected(shift_terminal(sc, 0.5), p, fast_cfg)
        assert check_comparison(sol, sol_up, p).passed

    def test_negative_control_fails_loudly(self, fast_cfg):
        # unreflected construction: the swapped ordering violates everywhere
        sc = stopping_put_scenario(paths=5000, steps=25)
        bare = dataclasses.replace(sc, obstacles=ObstacleSpec())
        p = generate_paths(bare)
        lo = solve_bdsde(bare, p, fast_cfg)
        hi = solve_bdsde(shift_terminal(bare, 0.5), p, fast_cfg)
        swapped = check_comparison(hi, lo, p)
        assert not swapped.passed
        assert swapped.violation_fraction > 0.9

    def test_shape_mismatch_rejected(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        small = constant_scenario(paths=500, steps=10)
        p_small = generate_paths(small)
        other = solve_bdsde(small, p_small)
        with pytest.raises(ValueError, match="mismatched shapes"):
            check_comparison(sol, other, p)

    def test_paths_of_another_size_rejected(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        p_small = generate_paths(constant_scenario(paths=500, steps=10))
        with pytest.raises(ValueError, match="ensembles were not solved on the given paths"):
            check_comparison(sol, sol, p_small)


class TestCheckDkComparison:

    def test_identical_increments_pass(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        result = check_dK_comparison(sol, sol)
        assert result.violation_fraction == 0.0 and result.passed

    def test_dominated_data_pushes_at_least_as_much(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        sol_up = solve_projected(shift_terminal(sc, 0.5), p, fast_cfg)
        assert check_dK_comparison(sol, sol_up).passed

    def test_negative_control_fails(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        sol_up = solve_projected(shift_terminal(sc, 0.5), p, fast_cfg)
        assert not check_dK_comparison(sol_up, sol).passed


@pytest.mark.parametrize("check", [
    lambda a, b, p: check_comparison(a, b, p),
    lambda a, b, p: check_dK_comparison(a, b),
], ids=["Y", "dK"])
def test_comparisons_refuse_ensembles_from_different_seeds(check, fast_cfg):
    solved = []
    for seed in (42, 7):
        sc = stopping_drift_scenario(paths=2000, steps=10, seed=seed)
        p = generate_paths(sc)
        solved.append(solve_projected(sc, p, fast_cfg))
    with pytest.raises(ValueError, match="ensembles come from different seeds, not shared paths"):
        check(*solved, p)


class TestAprioriStatistic:

    def test_zero_data_zero_statistic(self, fast_cfg):
        sc = dataclasses.replace(
            constant_scenario(paths=3000, steps=20),
            terminal=CoefficientSpec.zero(),
        )
        p = generate_paths(sc)
        sol = solve_projected(sc, p, fast_cfg)
        stat = apriori_statistic(sol, sc)
        se_sq = regression_se(sol) ** 2
        assert stat.lhs <= 10.0 * se_sq + 1e-10
        assert stat.rhs_data == pytest.approx(0.0, abs=1e-12)

    def test_constant_scenario_ratio_one(self, fast_cfg):
        sc = constant_scenario(paths=3000, steps=20)
        p = generate_paths(sc)
        sol = solve_projected(sc, p, fast_cfg)
        stat = apriori_statistic(sol, sc)
        assert stat.lhs == pytest.approx(25.0, rel=1e-6)
        assert stat.rhs_data == pytest.approx(25.0, rel=1e-6)

    @pytest.mark.parametrize("l", [1, 2])
    def test_shared_noise_adds_its_energy_once_per_component(self, l):
        # G = beta, one value per path, is shared by the l components of B as
        # the sweep shares it, so the data energy is l * beta^2 * T
        sc = dataclasses.replace(constant_g_scenario(paths=500, steps=10), dims=Dimensions(l=l))
        sol = solve_bdsde(sc, generate_paths(sc))
        assert apriori_statistic(sol, sc).rhs_data == pytest.approx(l * 0.3 ** 2, rel=1e-12)

    def test_upper_barrier_below_zero_adds_its_negative_part(self, fast_cfg):
        # corridor [-3, -1] around a clamped W_T: sup (L^+)^2 = 0, sup (U^-)^2 = 1
        sc = dataclasses.replace(
            constant_scenario(paths=2000, steps=10, seed=3),
            terminal=CoefficientSpec.clamp(-3.0, -1.0),
            obstacles=ObstacleSpec(lower=CoefficientSpec.constant(-3.0),
                                   upper=CoefficientSpec.constant(-1.0)),
        )
        sol, _ = solve_double(sc, generate_paths(sc), fast_cfg)
        xi_energy = float(np.mean(sol.obstacle_grid.xi ** 2))
        stat = apriori_statistic(sol, sc)
        assert stat.rhs_data == pytest.approx(xi_energy + 1.0, rel=1e-12)
        assert stat.rhs_data == pytest.approx(2.2255, abs=1e-4)

    def test_suite_ratio_band(self, fast_cfg):
        # frozen baseline from the first verified run: ratios in [0.74, 2.74]
        ratios = []
        for name, sc in diagnostics_suite(paths=5000, steps=25).items():
            p = generate_paths(sc)
            if sc.obstacles.upper is not None:
                sol, _ = solve_double(sc, p, fast_cfg)
            elif sc.obstacles.lower is not None:
                sol = solve_projected(sc, p, fast_cfg if sc.noise_coeff.kind == "zero" else None)
            else:
                sol = solve_bdsde(sc, p)
            ratios.append(apriori_statistic(sol, sc).ratio)
        assert max(ratios) / min(ratios) <= 50.0
        assert 0.5 <= min(ratios) and max(ratios) <= 4.0

    def test_pure_function(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        a = apriori_statistic(sol, sc)
        b = apriori_statistic(sol, sc)
        assert a == b

    def test_reads_one_time_row_at_a_time(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        tracemalloc.start()
        try:
            apriori_statistic(sol, sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few per-path rows; the shaped barrier, Y^2 or |Z|^2 taken whole
        # would each hold one (M, N+1) or (M, N) array
        assert peak < 0.25 * sol.Y.nbytes


class TestStabilityStatistic:

    def test_zero_perturbation_is_exact_zero(self, fast_cfg):
        sc = constant_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        assert stability_statistic(sc, 0.0, p, fast_cfg) == 0.0

    def test_nonbinding_shift_scales_exactly_quadratically(self, fast_cfg):
        sc = constant_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        s04 = stability_statistic(sc, 0.4, p, fast_cfg)
        s02 = stability_statistic(sc, 0.2, p, fast_cfg)
        assert 3.5 <= s04 / s02 <= 4.5

    def test_binding_shift_stays_in_response_band(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        s04 = stability_statistic(sc, 0.4, p, fast_cfg)
        s02 = stability_statistic(sc, 0.2, p, fast_cfg)
        assert 2.5 <= s04 / s02 <= 6.0

    def test_reads_rows_and_keeps_the_whole_array_bits(self, binding_problem, fast_cfg,
                                                        monkeypatch):
        sc, p = binding_problem
        # the whole-array formula that the walk of both ensembles' rows replaces
        base, pert = (solve_projected(s, p, fast_cfg) for s in (sc, shift_terminal(sc, 0.2)))
        want = float(np.mean(np.max((pert.Y - base.Y) ** 2, axis=1)))

        def whole(*_):
            raise AssertionError("a whole Y was formed")

        monkeypatch.setattr(SolutionEnsemble, "Y", property(whole))
        assert stability_statistic(sc, 0.2, p, fast_cfg) == want > 0.0

    def test_corridor_shift_is_checked_against_the_upper_barrier(self, fast_cfg):
        # xi + 3 leaves the corridor [-2, 2]: a one-barrier solve would not notice
        sc = two_barrier_scenario(paths=4000, steps=20, drift=2.0)
        p = generate_paths(sc)
        with pytest.raises(ConfigError, match="xi <= U_T"):
            stability_statistic(sc, 3.0, p, fast_cfg)


class TestPooledSe:

    def test_zero_for_exact_fits(self, fast_cfg):
        sc = constant_scenario(paths=2000, steps=10)
        p = generate_paths(sc)
        sol = solve_bdsde(sc, p, fast_cfg)
        assert pooled_se(sol) < 1e-10

    def test_grows_with_pooling(self, binding_problem, fast_cfg):
        sc, p = binding_problem
        sol = solve_projected(sc, p, fast_cfg)
        assert pooled_se(sol, sol) == pytest.approx(np.sqrt(2.0) * pooled_se(sol))
