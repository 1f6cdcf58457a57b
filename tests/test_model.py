"""Domain types and scenario validation."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rbdsde import (
    CoefficientSpec,
    Dimensions,
    ObstacleSpec,
    PenaltySchedule,
    RegressionConfig,
    SolveMeta,
    TimeGrid,
    validate_scenario,
)
from rbdsde.scenarios import constant_scenario, shift_lower_obstacle, two_barrier_scenario
from tests.hand_built import from_dense, pushes_of


class TestTimeGrid:

    def test_endpoints_exact(self):
        g = TimeGrid(horizon=0.7, steps=7)
        times = g.times
        assert times[0] == 0.0
        assert times[-1] == 0.7
        assert np.all(np.diff(times) > 0)
        assert g.dt == pytest.approx(0.1)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=0.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, steps=0)

    @pytest.mark.parametrize("horizon, steps, message", [
        # T / N rounds to zero
        (5e-324, 2, "horizon / steps must be > 0"),
        (1e-310, 10**14, "horizon / steps must be > 0"),
        # 8 (N + 1) bytes of times exceed the largest array
        (1.0, np.iinfo(np.intp).max // 8, "steps must be < "),
        (1.0, np.iinfo(np.int64).max, "steps must be < "),
    ])
    def test_step_that_is_zero_or_times_that_fit_no_array_raise(self, horizon, steps, message):
        with pytest.raises(ValueError, match=message):
            TimeGrid(horizon=horizon, steps=steps)
        # the grids just inside both bounds are built; their times are not formed
        assert TimeGrid(horizon=5e-324, steps=1).dt == 5e-324
        assert TimeGrid(horizon=1.0, steps=np.iinfo(np.intp).max // 8 - 1).dt > 0

    def test_immutable(self):
        g = TimeGrid(horizon=1.0, steps=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.horizon = 2.0


class TestDimensions:

    def test_defaults(self):
        d = Dimensions()
        assert d.d == 1 and d.l == 1

    @pytest.mark.parametrize("d,l", [(0, 1), (1, 0), (-1, 2)])
    def test_invalid(self, d, l):
        with pytest.raises(ValueError):
            Dimensions(d=d, l=l)


class TestCoefficientCatalog:

    def test_constant_scalar_and_vector(self):
        w = np.zeros((3, 1))
        assert np.array_equal(CoefficientSpec.constant(5.0).evaluate(0.0, w), [5, 5, 5])
        vec = CoefficientSpec.constant([0.1, 0.2]).evaluate(0.0, w)
        assert vec.shape == (3, 2)

    def test_linear_combines_all_slots(self):
        spec = CoefficientSpec.linear(a_y=2.0, a_z=(3.0,), a_w=1.0, c=0.5)
        w = np.array([[1.0]])
        out = spec.evaluate(0.0, w, y=np.array([2.0]), z=np.array([[1.0]]))
        assert out[0] == pytest.approx(2 * 2 + 3 * 1 + 1 * 1 + 0.5)

    def test_payoffs(self):
        w = np.array([[-2.0], [1.0]])
        assert np.array_equal(CoefficientSpec.payoff_neg_part().evaluate(0.0, w), [2.0, 0.0])
        assert np.array_equal(CoefficientSpec.payoff_put(1.0).evaluate(0.0, w), [3.0, 0.0])
        assert np.array_equal(CoefficientSpec.clamp(-1.0, 1.0).evaluate(0.0, w), [-1.0, 1.0])

    def test_hook_requires_callable(self):
        with pytest.raises(ValueError):
            CoefficientSpec(kind="hook")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CoefficientSpec(kind="mystery")

    def test_unknown_param(self):
        spec = CoefficientSpec.payoff_put(1.0)
        assert spec.param("strike") == 1.0
        with pytest.raises(KeyError, match="payoff_put coefficient has no parameter 'scale'"):
            spec.param("scale")

    # declared squared-Lipschitz bound on a sampled (y, z) grid
    @pytest.mark.parametrize("a_y,a_z", [(0.5, (0.0,)), (2.0, (1.5,)), (0.0, (3.0,)), (-1.0, (0.25,))])
    def test_linear_lipschitz_bound(self, a_y, a_z):
        spec = CoefficientSpec.linear(a_y=a_y, a_z=a_z)
        rng = np.random.default_rng(7)
        w = rng.normal(size=(64, 1))
        y1, y2 = rng.normal(size=(2, 64))
        z1, z2 = rng.normal(size=(2, 64, 1))
        f1 = spec.evaluate(0.3, w, y1, z1)
        f2 = spec.evaluate(0.3, w, y2, z2)
        lhs = (f1 - f2) ** 2
        rhs = spec.lip_const * ((y1 - y2) ** 2 + np.sum((z1 - z2) ** 2, axis=1))
        assert np.all(lhs <= rhs + 1e-9)

    def test_zero_constant_have_zero_lip(self):
        assert CoefficientSpec.zero().lip_const == 0.0
        assert CoefficientSpec.constant(3.0).lip_const == 0.0


class TestScenario:

    def test_requires_two_paths(self):
        sc = constant_scenario()
        with pytest.raises(ValueError):
            dataclasses.replace(sc, mc_paths=1)

    def test_seed_must_be_int(self):
        sc = constant_scenario()
        with pytest.raises(ValueError):
            dataclasses.replace(sc, seed="42")

    def test_no_lower_obstacle_to_shift(self):
        sc = two_barrier_scenario()
        upper_only = dataclasses.replace(sc, obstacles=ObstacleSpec(upper=sc.obstacles.upper))
        with pytest.raises(ValueError, match="no lower obstacle to shift"):
            shift_lower_obstacle(upper_only, -0.5)


class TestPenaltySchedule:

    def test_geometric_default(self):
        sched = PenaltySchedule.geometric(dt=0.02)
        assert len(sched.levels) == 7
        assert sched.levels[0] == pytest.approx(1 / 0.02)
        assert sched.levels[1] / sched.levels[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("dt", [0.0, -0.02, float("nan")])
    def test_geometric_needs_a_positive_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            PenaltySchedule.geometric(dt=dt)

    def test_monotone_required(self):
        with pytest.raises(ValueError):
            PenaltySchedule(levels=(4.0, 2.0))
        with pytest.raises(ValueError):
            PenaltySchedule(levels=(-1.0, 2.0))
        with pytest.raises(ValueError):
            PenaltySchedule(levels=(1.0,), penetration_tol=-1.0)
        with pytest.raises(ValueError, match="levels must be positive"):
            PenaltySchedule(levels=(1.0, float("nan")))
        with pytest.raises(ValueError, match="penetration_tol"):
            PenaltySchedule(levels=(1.0,), penetration_tol=float("nan"))


class TestValidateScenario:

    def test_valid_scenario_empty_report(self):
        report = validate_scenario(constant_scenario())
        assert report.ok
        assert report.violations == ()

    def test_alpha_out_of_range(self):
        sc = constant_scenario()
        bad_noise = dataclasses.replace(sc.noise_coeff, alpha=1.2)
        report = validate_scenario(dataclasses.replace(sc, noise_coeff=bad_noise))
        assert not report.ok
        assert any("alpha out of (0,1)" in v for v in report.violations)

    def test_barrier_ordering_violation(self):
        sc = two_barrier_scenario()
        bad = dataclasses.replace(
            sc,
            obstacles=ObstacleSpec(
                lower=CoefficientSpec.constant(2.0),
                upper=CoefficientSpec.constant(1.0),
            ),
        )
        report = validate_scenario(bad)
        assert any("L<U violated" in v for v in report.violations)

    def test_terminal_domination_probe(self):
        sc = constant_scenario()
        bad = dataclasses.replace(
            sc, obstacles=ObstacleSpec(lower=CoefficientSpec.constant(7.0))
        )
        report = validate_scenario(bad)
        assert any("S_T <= xi" in v for v in report.violations)

    def test_upper_only_accepted(self):
        sc = constant_scenario()
        upper_only = dataclasses.replace(
            sc, obstacles=ObstacleSpec(upper=CoefficientSpec.constant(10.0))
        )
        assert validate_scenario(upper_only).ok

    def test_upper_terminal_domination_probe(self):
        sc = constant_scenario()
        bad = dataclasses.replace(
            sc, obstacles=ObstacleSpec(upper=CoefficientSpec.constant(3.0))
        )
        report = validate_scenario(bad)
        assert report.violations == ("xi <= U_T violated on the static probe grid",)

    def test_obstacle_must_be_state_only(self):
        sc = constant_scenario()
        bad_lower = CoefficientSpec.linear(a_y=1.0, a_z=(0.0,), c=-10.0)
        report = validate_scenario(
            dataclasses.replace(sc, obstacles=ObstacleSpec(lower=bad_lower))
        )
        assert any("depend on (t, w) only" in v for v in report.violations)

    def test_pure_and_idempotent(self):
        sc = two_barrier_scenario()
        assert validate_scenario(sc) == validate_scenario(sc)

    @pytest.mark.parametrize("field, name, message", [
        ("terminal", "terminal", "terminal gives one value per path, got a list of 2"),
        ("driver", "driver", "driver gives one value per path, got a list of 2"),
        ("lower", "lower obstacle", "lower obstacle gives one value per path, got a list of 2"),
        ("upper", "upper obstacle", "upper obstacle gives one value per path, got a list of 2"),
        ("noise_coeff", "noise", "noise gives 1 or l=1 values per path, got a list of 2"),
    ])
    def test_list_valued_constant_is_one_violation(self, field, name, message):
        # the corridor's probes compare the terminal with both barriers
        sc = two_barrier_scenario()
        listed = CoefficientSpec.constant([-0.5, 0.5])
        if field in ("lower", "upper"):
            sc = dataclasses.replace(sc, obstacles=dataclasses.replace(sc.obstacles,
                                                                       **{field: listed}))
        else:
            sc = dataclasses.replace(sc, **{field: listed})
        assert validate_scenario(sc).violations == (message,)

    def test_noise_list_of_l_values_accepted(self):
        sc = dataclasses.replace(two_barrier_scenario(), dims=Dimensions(d=2, l=2),
                                 noise_coeff=CoefficientSpec.constant([0.1, 0.2]))
        assert validate_scenario(sc).ok
        bad = dataclasses.replace(sc, noise_coeff=CoefficientSpec.constant([0.1]))
        assert validate_scenario(bad).violations == (
            "noise gives 1 or l=2 values per path, got a list of 1",)


_ZEROS = st.sampled_from([0.0, -0.0])
_NONZERO = st.floats(-1e6, 1e6, allow_nan=False).filter(bool)
# per entry: no contact, about one in five, or every path and step
_ENTRIES = {"none": _ZEROS, "sparse": st.one_of(_ZEROS, _ZEROS, _ZEROS, _ZEROS, _NONZERO),
            "full": _NONZERO}


@st.composite
def _dense_pushes(draw):
    m = draw(st.one_of(st.just(1), st.integers(2, 20)))
    n = draw(st.integers(1, 6))
    contact = draw(st.sampled_from(sorted(_ENTRIES)))
    return draw(hnp.arrays(float, (m, n), elements=_ENTRIES[contact]))


class TestSignedPushes:

    @settings(max_examples=200, deadline=None)
    @given(dk=_dense_pushes())
    def test_store_reads_back_the_dense_pushes(self, dk):
        m, n = dk.shape
        meta = SolveMeta(scheme="hand", seed=0, n_paths=m, basis_size=1, picard_iters=0,
                         regression=RegressionConfig(), residual_rms=np.zeros((n, 3)))
        pushes = pushes_of(dk)
        sol = from_dense(Y=np.zeros((m, n + 1)), Z=np.zeros((m, n, 1)), pushes=pushes, meta=meta)
        # each nonzero push is held, with one contact bit per path and step;
        # a zero, +0.0 or -0.0, reads back as +0.0
        assert pushes.nbytes == np.count_nonzero(dk) * 8 + n * ((m + 7) // 8)
        assert np.array_equal(sol.dK, dk)
        assert sol.dK.tobytes() == (dk + 0.0).tobytes()
        for side, sign in (("lower", 1.0), ("upper", -1.0)):
            steps = np.maximum(sign * dk, 0.0)
            reference = np.cumsum(np.concatenate([np.zeros((m, 1)), steps], axis=1), axis=1)
            assert sol.k(side).tobytes() == reference.tobytes(), side
            assert sol.k_terminal(side).tobytes() == reference[:, -1].tobytes(), side

    def test_shape_must_match_y(self):
        meta = SolveMeta(scheme="hand", seed=0, n_paths=9, basis_size=1, picard_iters=0,
                         regression=RegressionConfig(), residual_rms=np.zeros((3, 3)))
        # a store of too few steps, and one of as many contact bytes but
        # more paths
        for dk in (np.zeros((9, 2)), np.zeros((16, 3))):
            with pytest.raises(ValueError, match="pushes shape inconsistent with Y"):
                from_dense(Y=np.zeros((9, 4)), Z=np.zeros((9, 3, 1)), pushes=pushes_of(dk),
                           meta=meta)
