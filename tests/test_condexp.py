"""Regression-based conditional expectation operator."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbdsde import RegressionConfig, basis_labels, build_basis, condexp_fit_eval


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

    def test_underdetermined_raises(self):
        w, db = _design(m=4)
        with pytest.raises(ValueError, match="underdetermined basis"):
            build_basis(RegressionConfig(degree_w=3, include_dB=True), w, db)

    def test_missing_db_raises(self):
        w, _ = _design(m=10)
        with pytest.raises(ValueError, match="backward increments"):
            build_basis(RegressionConfig(degree_w=1, include_dB=True), w, None)


class TestFitEval:

    def test_constant_target_exact(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(degree_w=2, include_dB=False), w, None)
        fitted, fit = condexp_fit_eval(np.full(len(w), 3.25), basis, ridge=0.0)
        assert np.max(np.abs(fitted - 3.25)) < 1e-12

    def test_linear_target_recovers_coefficients(self):
        w, _ = _design()
        basis = build_basis(RegressionConfig(degree_w=1, include_dB=False), w, None)
        target = 2.0 * w[:, 0] + 1.0
        fitted, fit = condexp_fit_eval(target, basis, ridge=0.0)
        assert fit.coefficients[0] == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(2.0, abs=1e-10)

    def test_projection_matches_normal_equations_oracle(self):
        # project w^2 onto span{1, w}; independent oracle: normal equations
        rng = np.random.default_rng(3)
        w = rng.normal(size=(100_000, 1))
        basis = build_basis(RegressionConfig(degree_w=1, include_dB=False), w, None)
        target = w[:, 0] ** 2
        fitted, fit = condexp_fit_eval(target, basis, ridge=0.0)

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
        once, _ = condexp_fit_eval(target, basis, ridge=0.0)
        twice, _ = condexp_fit_eval(once, basis, ridge=0.0)
        assert np.max(np.abs(twice - once)) < 1e-10

    def test_linearity(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(degree_w=2, include_dB=True), w, db)
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, len(w)))
        fu, _ = condexp_fit_eval(u, basis, ridge=0.0)
        fv, _ = condexp_fit_eval(v, basis, ridge=0.0)
        combo, _ = condexp_fit_eval(2.0 * u - 0.5 * v, basis, ridge=0.0)
        assert np.max(np.abs(combo - (2.0 * fu - 0.5 * fv))) < 1e-9

    def test_measurability_fidelity(self):
        # the backward increment is a legitimate conditioning variable: a
        # target beta*dB must be reproduced, and must collapse without it
        rng = np.random.default_rng(6)
        w = rng.normal(size=(100_000, 1))
        db = rng.normal(size=(100_000, 1)) * 0.1
        target = 0.7 * db[:, 0]

        with_db = build_basis(RegressionConfig(degree_w=3, include_dB=True), w, db)
        fitted, _ = condexp_fit_eval(target, with_db, ridge=0.0)
        rel_err = np.linalg.norm(fitted - target) / np.linalg.norm(target)
        assert rel_err <= 0.01

        without = build_basis(RegressionConfig(degree_w=3, include_dB=False), w, None)
        collapsed, _ = condexp_fit_eval(target, without, ridge=0.0)
        assert np.linalg.norm(collapsed) / np.linalg.norm(target) < 0.1

    def test_singular_design_raises_without_ridge(self):
        w, _ = _design(m=100)
        basis = np.column_stack([np.ones(100), w[:, 0], w[:, 0]])
        with pytest.raises(ValueError, match="singular design"):
            condexp_fit_eval(np.ones(100), basis, ridge=0.0)
        fitted, _ = condexp_fit_eval(np.ones(100), basis, ridge=1e-10)
        assert np.max(np.abs(fitted - 1.0)) < 1e-8

    def test_more_columns_than_samples_raises(self):
        basis = np.ones((3, 5))
        with pytest.raises(ValueError, match="underdetermined"):
            condexp_fit_eval(np.ones(3), basis)

    def test_deterministic(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(), w, db)
        rng = np.random.default_rng(8)
        target = rng.normal(size=len(w))
        f1, _ = condexp_fit_eval(target, basis, ridge=1e-10)
        f2, _ = condexp_fit_eval(target, basis, ridge=1e-10)
        assert np.array_equal(f1, f2)

    def test_stacked_targets_share_design(self):
        w, db = _design()
        basis = build_basis(RegressionConfig(degree_w=1, include_dB=False), w, None)
        rng = np.random.default_rng(9)
        targets = rng.normal(size=(len(w), 3))
        stacked, fit = condexp_fit_eval(targets, basis)
        assert stacked.shape == targets.shape
        assert fit.coefficients.shape == (2, 3)
        single, _ = condexp_fit_eval(targets[:, 1], basis)
        assert np.allclose(stacked[:, 1], single, atol=1e-13)
