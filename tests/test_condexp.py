"""Regression-based conditional expectation operator."""
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdsde import Design, RegressionConfig, basis_labels, build_basis, condexp_fit_eval
from rbdsde.condexp import path_blocks


def _design(m=2000, d=1, l=1, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(m, d)), rng.normal(size=(m, l)) * 0.1


class TestBuildBasis:

    def test_degree_zero_constant_column(self):
        w, db = _design(m=10)
        basis = build_basis(RegressionConfig(degree_w=0, include_dB=False), w, None)
        assert basis.shape == (10, 1)
        assert np.all(basis == 1.0)

    def test_enumerated_four_columns(self):
        # d=1, l=1, degree 1 with dB: {1, w, dB, w*dB}
        w, db = _design(m=10)
        cfg = RegressionConfig(degree_w=1, include_dB=True)
        basis = build_basis(cfg, w, db)
        assert basis.shape[1] == 4
        assert np.array_equal(basis[:, 0], np.ones(10))
        assert np.array_equal(basis[:, 1], w[:, 0])
        assert np.array_equal(basis[:, 2], db[:, 0])
        assert np.array_equal(basis[:, 3], w[:, 0] * db[:, 0])
        assert basis_labels(cfg, 1, 1) == ("1", "w0", "db0", "w0*db0")

    def test_bivariate_count_matches_combinatorics(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(40, 2))
        cfg = RegressionConfig(degree_w=2, include_dB=False)
        basis = build_basis(cfg, w, None)
        assert basis.shape[1] == math.comb(2 + 2, 2) == 6

    def test_labels_match_columns(self):
        w, db = _design(m=30, d=2, l=2)
        cfg = RegressionConfig(degree_w=3, include_dB=True)
        basis = build_basis(cfg, w, db)
        assert len(basis_labels(cfg, 2, 2)) == basis.shape[1]

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 3), l=st.integers(1, 3), degree=st.integers(0, 5),
           include_db=st.booleans())
    def test_each_label_names_its_column(self, d, l, degree, include_db):
        # 200 samples exceed the widest basis here (161 columns at d=l=3, degree 5)
        w, db = _design(m=200, d=d, l=l, seed=d + 3 * l + 9 * degree)
        cfg = RegressionConfig(degree_w=degree, include_dB=include_db)
        basis = build_basis(cfg, w, db)
        labels = basis_labels(cfg, d, l)
        assert len(labels) == basis.shape[1] == len(set(labels))
        for j, label in enumerate(labels):
            expected = np.ones(200)
            for factor in label.split("*"):
                if factor.startswith("db"):
                    expected = expected * db[:, int(factor[2:])]
                elif factor != "1":
                    k, _, e = factor[1:].partition("^")
                    expected = expected * w[:, int(k)] ** int(e or 1)
            np.testing.assert_allclose(basis[:, j], expected, rtol=1e-12, err_msg=label)

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 3), l=st.integers(1, 3), degree=st.integers(0, 5),
           include_db=st.booleans(), n_barriers=st.integers(0, 2))
    def test_barrier_columns_close_the_design(self, d, l, degree, include_db, n_barriers):
        w, db = _design(m=200, d=d, l=l, seed=d + 3 * l + 9 * degree)
        barriers = np.random.default_rng(n_barriers).normal(size=(n_barriers, 200))
        cfg = RegressionConfig(degree_w=degree, include_dB=include_db)
        basis = build_basis(cfg, w, db, barriers=list(barriers))
        labels = basis_labels(cfg, d, l, barriers=n_barriers)
        assert len(labels) == basis.shape[1] == len(set(labels))

        # the leading columns are the design without barriers, bit for bit
        plain = build_basis(cfg, w, db)
        assert np.array_equal(basis[:, :plain.shape[1]], plain)
        assert labels[:plain.shape[1]] == basis_labels(cfg, d, l)

        # then each barrier times each monomial of degree <= 2, in degree
        # then lexicographic order, labelled "<monomial>*bar<k>"
        low = sorted((e for e in itertools.product(range(3), repeat=d) if sum(e) <= 2),
                     key=lambda e: (sum(e), e))
        j = plain.shape[1]
        for k, values in enumerate(barriers):
            for exponents in low:
                expected = values * np.prod(w ** np.array(exponents), axis=1)
                np.testing.assert_allclose(basis[:, j], expected, rtol=1e-12)
                mono = [f"w{i}" if e == 1 else f"w{i}^{e}" for i, e in enumerate(exponents) if e]
                assert labels[j] == "*".join(mono + [f"bar{k}"])
                j += 1
        assert j == basis.shape[1]

    @pytest.mark.parametrize("m, b", [(100_000, 9), (5000, 9), (200, 9), (66, 22), (129, 65), (1, 1)])
    def test_path_blocks_cover_the_paths_with_determined_blocks(self, m, b):
        blocks = path_blocks(m, b)
        assert blocks[0].start == 0 and blocks[-1].stop == m
        assert all(a.stop == c.start for a, c in zip(blocks, blocks[1:]))
        assert len(blocks) <= 16
        assert all(block.start % 64 == 0 for block in blocks)
        assert min(block.stop - block.start for block in blocks) >= b

    def test_underdetermined_raises(self):
        w, db = _design(m=4)
        with pytest.raises(ValueError, match="underdetermined basis"):
            build_basis(RegressionConfig(degree_w=3, include_dB=True), w, db)

    @settings(max_examples=100, deadline=None)
    @given(d=st.integers(1, 3), l=st.integers(1, 3), degree=st.integers(0, 5),
           include_db=st.booleans(), n_barriers=st.integers(0, 2))
    def test_underdetermined_check_counts_every_column(self, d, l, degree, include_db, n_barriers):
        cfg = RegressionConfig(degree_w=degree, include_dB=include_db)
        count = len(basis_labels(cfg, d, l, barriers=n_barriers))
        w, db = _design(m=count - 1, d=d, l=l)
        barriers = list(np.ones((n_barriers, count - 1)))
        with pytest.raises(ValueError, match=f"underdetermined basis: {count} columns but only"):
            build_basis(cfg, w, db, barriers=barriers)

    def test_wide_state_is_checked_before_enumerating_terms(self):
        # C(303, 3) W monomials plus C(302, 2) dB products: counted, not built
        w, db = _design(m=400, d=300)
        with pytest.raises(ValueError, match="underdetermined basis: 4636002 columns"):
            build_basis(RegressionConfig(degree_w=3, include_dB=True), w, db)
        # lexicographic order puts the last W component's monomial first
        basis = build_basis(RegressionConfig(degree_w=1, include_dB=False), w, None)
        assert np.array_equal(basis, np.column_stack([np.ones(400), w[:, ::-1]]))

    def test_missing_db_raises(self):
        w, _ = _design(m=10)
        with pytest.raises(ValueError, match="backward increments"):
            build_basis(RegressionConfig(degree_w=1, include_dB=True), w, None)

    def test_design_is_the_transpose_of_contiguous_term_rows(self):
        w, db = _design(m=50, d=2, l=2)
        basis = build_basis(RegressionConfig(degree_w=3, include_dB=True), w, db, barriers=[w[:, 1]])
        assert basis.shape == (50, len(basis_labels(RegressionConfig(), 2, 2, barriers=1)))
        assert basis.T.flags.c_contiguous
        assert basis.base is not None and basis.base.shape == basis.shape[::-1]

    def test_design_buffer_is_freed_without_the_cycle_collector(self):
        # a reference cycle inside build_basis would keep each step's design
        # alive until the cyclic collector runs
        w, db = _design(m=100)
        gc.disable()
        try:
            basis = build_basis(RegressionConfig(degree_w=3), w, db, barriers=[w[:, 0]])
            buffer = weakref.ref(basis.base)
            del basis
            assert buffer() is None
        finally:
            gc.enable()

    def test_inputs_of_the_wrong_shape_are_rejected(self):
        w, db = _design(m=10)
        cfg = RegressionConfig(degree_w=1, include_dB=True)
        with pytest.raises(ValueError, match="w_state must be M x d"):
            build_basis(cfg, w[:, 0], db)
        with pytest.raises(ValueError, match="dB_i must be M x l with the same M"):
            build_basis(cfg, w, db[:9])
        with pytest.raises(ValueError, match="each barrier must be an M vector"):
            build_basis(cfg, w, db, barriers=[w])


class TestFitEval:

    def test_constant_target_exact(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(degree_w=2, include_dB=False), w, None)
        fitted, fit = condexp_fit_eval(np.full(len(w), 3.25), Design(basis, ridge=0.0))
        assert np.max(np.abs(fitted - 3.25)) < 1e-12

    def test_linear_target_recovers_coefficients(self):
        w, _ = _design()
        basis = build_basis(RegressionConfig(degree_w=1, include_dB=False), w, None)
        target = 2.0 * w[:, 0] + 1.0
        fitted, fit = condexp_fit_eval(target, Design(basis, ridge=0.0))
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-10)

    def test_projection_matches_normal_equations_oracle(self):
        # project w^2 onto span{1, w}; independent oracle: normal equations
        rng = np.random.default_rng(3)
        w = rng.normal(size=(100_000, 1))
        basis = build_basis(RegressionConfig(degree_w=1, include_dB=False), w, None)
        target = w[:, 0] ** 2
        fitted, fit = condexp_fit_eval(target, Design(basis, ridge=0.0))

        gram = basis.T @ basis
        beta_oracle = np.linalg.solve(gram, basis.T @ target)
        assert np.allclose(fit.coefficients, beta_oracle, atol=1e-8)

        resid_var = np.sum((target - fitted) ** 2) / (len(w) - 2)
        se = np.sqrt(resid_var * np.diag(np.linalg.inv(gram)))
        assert abs(fit.coefficients[0] - 1.0) <= 3 * se[0]
        assert abs(fit.coefficients[1] - 0.0) <= 3 * se[1]

    def test_projection_idempotent(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(degree_w=3, include_dB=True), w, db)
        rng = np.random.default_rng(4)
        target = rng.normal(size=len(w))
        design = Design(basis, ridge=0.0)
        once, _ = condexp_fit_eval(target, design)
        twice, _ = condexp_fit_eval(once, design)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_linearity(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(degree_w=2, include_dB=True), w, db)
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, len(w)))
        design = Design(basis, ridge=0.0)
        fu, _ = condexp_fit_eval(u, design)
        fv, _ = condexp_fit_eval(v, design)
        combo, _ = condexp_fit_eval(2.0 * u - 0.5 * v, design)
        assert np.max(np.abs(combo - (2.0 * fu - 0.5 * fv))) < 1e-9

    def test_measurability_fidelity(self):
        # the backward increment is a legitimate conditioning variable: a
        # target beta*dB must be reproduced, and must collapse without it
        rng = np.random.default_rng(6)
        w = rng.normal(size=(100_000, 1))
        db = rng.normal(size=(100_000, 1)) * 0.1
        target = 0.7 * db[:, 0]

        with_db = build_basis(RegressionConfig(degree_w=3, include_dB=True), w, db)
        fitted, _ = condexp_fit_eval(target, Design(with_db, ridge=0.0))
        rel_err = np.linalg.norm(fitted - target) / np.linalg.norm(target)
        assert rel_err <= 0.01

        without = build_basis(RegressionConfig(degree_w=3, include_dB=False), w, None)
        collapsed, _ = condexp_fit_eval(target, Design(without, ridge=0.0))
        assert np.linalg.norm(collapsed) / np.linalg.norm(target) < 0.1

    def test_singular_design_raises_without_ridge(self):
        w, _ = _design(m=100)
        basis = np.column_stack([np.ones(100), w[:, 0], w[:, 0]])
        with pytest.raises(ValueError, match="singular design"):
            Design(basis, ridge=0.0)
        fitted, _ = condexp_fit_eval(np.ones(100), Design(basis, ridge=1e-10))
        assert np.max(np.abs(fitted - 1.0)) < 1e-8

    def test_zero_column_raises_without_ridge(self):
        # W is 0 at t = 0, so every W-monomial column of the first step is 0
        w, _ = _design(m=100)
        basis = np.column_stack([np.ones(100), np.zeros(100), w[:, 0]])
        with pytest.raises(ValueError, match="singular design: column 1 is zero"):
            Design(basis, ridge=0.0)

    def test_dependent_columns_with_ridge_fit_their_span(self):
        # a barrier column at t = 0 is constant, a multiple of the first
        # column; at this scale the ridge is below the rounding of the Gram
        # sums and the plain Cholesky factorisation fails
        rng = np.random.default_rng(10)
        w = rng.normal(size=10_000)
        basis = np.column_stack([np.ones(10_000), 30 * w, 30 * w, 30 * w**2 + 7])
        target = 1 + w + rng.normal(size=10_000)
        fitted, _ = condexp_fit_eval(target, Design(basis, ridge=1e-10))
        q, _ = np.linalg.qr(basis[:, [0, 1, 3]])
        assert np.max(np.abs(fitted - q @ (q.T @ target))) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.integers(1, 8), k=st.integers(1, 3),
           log_scales=st.lists(st.floats(-4, 2), min_size=8, max_size=8),
           ridge=st.sampled_from([1e-10, 1e-3]), zero_column=st.booleans())
    def test_matches_ridge_augmented_least_squares(self, seed, b, k, log_scales, ridge,
                                                   zero_column):
        # oracle: SVD least squares on the design stacked over sqrt(ridge) I;
        # column scales of 1e-4 .. 1e2 mimic the monomials of early steps
        rng = np.random.default_rng(seed)
        m = 200
        basis = rng.normal(size=(m, b)) * 10.0 ** np.array(log_scales[:b])
        if zero_column:
            basis[:, b // 2] = 0.0
        targets = basis @ rng.normal(size=(b, k)) + rng.normal(size=(m, k))
        augmented = np.vstack([basis, np.sqrt(ridge) * np.eye(b)])
        beta, *_ = np.linalg.lstsq(augmented, np.vstack([targets, np.zeros((b, k))]),
                                   rcond=None)

        fitted, fit = condexp_fit_eval(targets, Design(basis, ridge=ridge))
        size = np.max(np.abs(targets))
        np.testing.assert_allclose(fitted, basis @ beta, rtol=0, atol=1e-9 * size)
        norms = np.linalg.norm(basis, axis=0)[:, None]
        np.testing.assert_allclose(fit.coefficients * norms, beta * norms, rtol=0,
                                   atol=1e-9 * size)
        np.testing.assert_allclose(fit.residual_norm, np.linalg.norm(targets - fitted, axis=0))
        if zero_column:
            assert np.all(fit.coefficients[b // 2] == 0.0)

    def test_more_columns_than_samples_raises(self):
        basis = np.ones((3, 5))
        with pytest.raises(ValueError, match="underdetermined"):
            Design(basis)

    def test_deterministic(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(), w, db)
        rng = np.random.default_rng(8)
        target = rng.normal(size=len(w))
        f1, _ = condexp_fit_eval(target, Design(basis, ridge=1e-10))
        f2, _ = condexp_fit_eval(target, Design(basis, ridge=1e-10))
        assert np.array_equal(f1, f2)

    def test_one_design_serves_every_fit(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(), w, db)
        rng = np.random.default_rng(11)
        targets = [rng.normal(size=len(w)), rng.normal(size=(len(w), 2)), rng.normal(size=len(w))]
        shared = Design(basis, ridge=1e-10)
        for target in targets:
            fitted, fit = condexp_fit_eval(target, shared)
            own_fitted, own_fit = condexp_fit_eval(target, Design(basis, ridge=1e-10))
            assert np.array_equal(fitted, own_fitted)
            assert np.array_equal(fit.coefficients, own_fit.coefficients)
            assert np.array_equal(fit.residual_norm, own_fit.residual_norm)
        assert shared.shape == basis.shape
        assert not shared.ridge_floor

    def test_stored_factor_serves_a_rebuilt_basis(self):
        # a ladder level rebuilds the same basis and reuses the first
        # level's factor instead of forming the Gram again
        w, db = _design(m=4097)
        cfg = RegressionConfig(degree_w=4)
        first = Design(build_basis(cfg, w, db), 1e-10)
        reused = Design(build_basis(cfg, w, db), 1e-10,
                        factored=(first.scale, first.factor, first.ridge_floor))
        targets = np.random.default_rng(12).normal(size=(len(w), 2))
        fitted, fit = condexp_fit_eval(targets, reused)
        own_fitted, own_fit = condexp_fit_eval(targets, first)
        assert fitted.tobytes() == own_fitted.tobytes()
        assert fit.coefficients.tobytes() == own_fit.coefficients.tobytes()
        assert fit.residual_norm.tobytes() == own_fit.residual_norm.tobytes()
        assert reused.ridge_floor == first.ridge_floor
        with pytest.raises(ValueError, match="does not match"):
            Design(build_basis(RegressionConfig(degree_w=3), w, db), 1e-10,
                   factored=(first.scale, first.factor, first.ridge_floor))

    def test_ridge_floor_is_recorded(self):
        # the dependent design of test_dependent_columns_with_ridge_fit_their_span
        w = np.random.default_rng(10).normal(size=10_000)
        basis = np.column_stack([np.ones(10_000), 30 * w, 30 * w, 30 * w**2 + 7])
        assert Design(basis, ridge=1e-10).ridge_floor
        assert not Design(basis[:, [0, 1, 3]], ridge=1e-10).ridge_floor

    def test_fit_checks_the_sample_dimension(self):
        design = Design(np.ones((10, 1)))
        with pytest.raises(ValueError, match="share the sample dimension"):
            condexp_fit_eval(np.ones(9), design)

    def test_stacked_targets_share_design(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(degree_w=1, include_dB=False), w, None)
        rng = np.random.default_rng(9)
        targets = rng.normal(size=(len(w), 3))
        stacked, fit = condexp_fit_eval(targets, Design(basis))
        assert stacked.shape == targets.shape
        assert fit.coefficients.shape == (2, 3)
        single, _ = condexp_fit_eval(targets[:, 1], Design(basis))
        assert np.allclose(stacked[:, 1], single, atol=1e-13)

    @pytest.mark.parametrize("m", [4097, 30_000])
    def test_target_layout_does_not_change_the_bits(self, m):
        w, db = _design(m=m)
        design = Design(build_basis(RegressionConfig(degree_w=5), w, db), 1e-10)
        a, b = np.random.default_rng(4).normal(size=(2, m))
        columns = np.column_stack([a, b])
        rows = np.stack([a, b]).T
        assert columns.flags.c_contiguous and rows.flags.f_contiguous
        fitted_c, fit_c = condexp_fit_eval(columns, design)
        fitted_r, fit_r = condexp_fit_eval(rows, design)
        assert fitted_c.tobytes() == fitted_r.tobytes()
        assert fit_c.coefficients.tobytes() == fit_r.coefficients.tobytes()
        assert fit_c.residual_norm.tobytes() == fit_r.residual_norm.tobytes()


@pytest.mark.parametrize("ridge", [math.inf, math.nan])
def test_ridge_outside_zero_to_inf_is_rejected(ridge):
    with pytest.raises(ValueError, match="ridge must be"):
        RegressionConfig(ridge=ridge)
    with pytest.raises(ValueError, match="ridge must be"):
        Design(np.ones((10, 1)), ridge=ridge)
