"""Regression-based conditional expectations for backward time stepping.

The conditioning state at a grid time is the forward Brownian state W_t
together with increments of the backward Brownian motion B that are already
known at t (B is observed from the terminal side, so its increments over
[t, T] are legitimate conditioning variables).  Targets are projected onto a
polynomial basis in W augmented, optionally, with the backward-increment
columns and their products with the W monomials.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RegressionConfig:
    """Basis and regularisation choices for the conditional-expectation fit."""

    degree_w: int = 3
    include_dB: bool = True
    ridge: float = 1e-10

    def __post_init__(self):
        if self.degree_w < 0:
            raise ValueError("degree_w must be >= 0")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Coefficients and fit quality of one least-squares projection."""

    coefficients: np.ndarray      # (B,) or (B, k) for stacked targets
    basis: tuple[str, ...]        # one label per design-matrix column
    residual_norm: np.ndarray     # l2 residual per target column
    ridge: float = 0.0            # regulariser the fit was computed with

    def __post_init__(self):
        if self.coefficients.shape[0] != len(self.basis):
            raise ValueError("coefficient count must equal basis size")


def _monomial_exponents(d: int, max_degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= max_degree, ordered by total
    degree then lexicographically."""
    out: list[tuple[int, ...]] = []
    for total in range(max_degree + 1):
        level: list[tuple[int, ...]] = []

        def rec(prefix: tuple[int, ...], remaining: int, dims_left: int):
            if dims_left == 1:
                level.append(prefix + (remaining,))
                return
            for e in range(remaining + 1):
                rec(prefix + (e,), remaining - e, dims_left - 1)

        rec((), total, d)
        level.sort()
        out.extend(level)
    return out


def _monomial(w: np.ndarray, exponents: tuple[int, ...]) -> np.ndarray:
    """The column prod_k w[:, k] ** e_k over the M x d state ``w``."""
    col = np.ones(w.shape[0])
    for k, e in enumerate(exponents):
        if e:
            col = col * w[:, k] ** e
    return col


def _product_degree_cap(degree_w: int) -> int:
    # The cross-product block pairs dB columns with non-constant monomials.
    # At degree_w = 1 the single linear monomial still enters the products
    # (the enumerated four-column contract {1, w, dB, w*dB}).
    if degree_w == 0:
        return 0
    return max(1, degree_w - 1)


def basis_labels(cfg: RegressionConfig, d: int, l: int) -> tuple[str, ...]:
    """Column labels matching :func:`build_basis` output order."""

    def mono_label(exponents: tuple[int, ...]) -> str:
        parts = []
        for k, e in enumerate(exponents):
            if e == 1:
                parts.append(f"w{k}")
            elif e > 1:
                parts.append(f"w{k}^{e}")
        return "*".join(parts) if parts else "1"

    labels = [mono_label(e) for e in _monomial_exponents(d, cfg.degree_w)]
    if cfg.include_dB:
        labels += [f"db{c}" for c in range(l)]
        cap = _product_degree_cap(cfg.degree_w)
        for exps in _monomial_exponents(d, cap):
            if sum(exps) == 0:
                continue
            for c in range(l):
                labels.append(f"{mono_label(exps)}*db{c}")
    return tuple(labels)


def build_basis(cfg: RegressionConfig, w_state: np.ndarray, dB_i: np.ndarray | None) -> np.ndarray:
    """Assemble the M x B design matrix for one time step.

    Columns are the W monomials up to ``degree_w`` (constant first), then,
    when ``include_dB`` is set, the backward-increment components and their
    products with the non-constant low-order monomials.
    """
    w_state = np.asarray(w_state, dtype=float)
    if w_state.ndim != 2:
        raise ValueError("w_state must be M x d")
    m, d = w_state.shape

    columns = [_monomial(w_state, exps) for exps in _monomial_exponents(d, cfg.degree_w)]

    if cfg.include_dB:
        if dB_i is None:
            raise ValueError("include_dB is set but no backward increments were given")
        db = np.asarray(dB_i, dtype=float)
        if db.ndim != 2 or db.shape[0] != m:
            raise ValueError("dB_i must be M x l with the same M as w_state")
        l = db.shape[1]
        for c in range(l):
            columns.append(db[:, c])
        cap = _product_degree_cap(cfg.degree_w)
        for exps in _monomial_exponents(d, cap):
            if sum(exps) == 0:
                continue
            mono = _monomial(w_state, exps)
            for c in range(l):
                columns.append(mono * db[:, c])

    basis = np.column_stack(columns)
    if basis.shape[1] > m:
        raise ValueError(
            f"underdetermined basis: {basis.shape[1]} columns but only {m} samples"
        )
    return basis


def condexp_fit_eval(
    targets: np.ndarray,
    basis: np.ndarray,
    ridge: float = 0.0,
    labels: tuple[str, ...] | None = None,
) -> tuple[np.ndarray, RegressionFit]:
    """Project targets onto the basis columns by (ridge) least squares.

    ``targets`` may be a single M vector or an M x k stack sharing one design
    matrix; the solve uses one orthogonal factorisation either way.  With
    ``ridge == 0`` a rank-deficient design raises instead of returning an
    arbitrary minimum-norm fit.
    """
    basis = np.asarray(basis, dtype=float)
    y = np.asarray(targets, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    m, b = basis.shape
    if y.shape[0] != m:
        raise ValueError("targets and basis must share the sample dimension")
    if b > m:
        raise ValueError(f"underdetermined basis: {b} columns but only {m} samples")
    if ridge < 0:
        raise ValueError("ridge must be >= 0")

    if ridge > 0:
        a_aug = np.vstack([basis, np.sqrt(ridge) * np.eye(b)])
        y_aug = np.vstack([y, np.zeros((b, y.shape[1]))])
        beta, _, _, _ = np.linalg.lstsq(a_aug, y_aug, rcond=None)
    else:
        beta, _, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
        if rank < b:
            raise ValueError(f"singular design: rank {rank} < {b} columns (ridge=0)")

    fitted = basis @ beta
    residual_norm = np.linalg.norm(y - fitted, axis=0)
    if labels is None:
        labels = tuple(f"c{j}" for j in range(b))
    fit = RegressionFit(
        coefficients=beta[:, 0] if squeeze else beta,
        basis=labels,
        residual_norm=residual_norm,
        ridge=ridge,
    )
    return (fitted[:, 0] if squeeze else fitted), fit
