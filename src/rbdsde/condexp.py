"""Regression-based conditional expectations for backward time stepping.

The conditioning state at a grid time is the forward Brownian state W_t
together with increments of the backward Brownian motion B that are already
known at t (B is observed from the terminal side, so its increments over
[t, T] are legitimate conditioning variables).  Targets are projected onto a
polynomial basis in W augmented, optionally, with the backward-increment
columns and their products with the W monomials, and with barrier-shape
columns for non-constant barriers.  One term list fixes the column order
for both the design and its labels.
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
    residual_norm: np.ndarray     # l2 residual per target column
    ridge: float = 0.0            # regulariser the fit was computed with


# Barrier-shape columns close the design of a step with a non-constant
# barrier: the barrier value times the W monomials up to this degree.  With
# the kink of the barrier available in the span, the fit only has to capture
# the smooth time value on top of it; a pure polynomial basis misfits the
# barrier shape and the misfit is rectified into spurious reflection pushes
# at every step.  Constant-like barriers are already in the span.
OBSTACLE_BASIS_DEGREE = 2


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


def _terms(cfg: RegressionConfig, d: int, l: int, n_barriers: int):
    """The design's columns in order, each a W exponent tuple times an
    optional factor, ``"db<c>"`` (a backward-increment component) or
    ``"bar<k>"`` (a barrier).  The W monomials come first (constant first),
    then, with ``include_dB``, the dB components and their products with the
    non-constant low-order monomials, then each barrier times the monomials
    up to OBSTACLE_BASIS_DEGREE."""
    terms = [(e, None) for e in _monomial_exponents(d, cfg.degree_w)]
    if cfg.include_dB:
        # At degree_w = 1 the single linear monomial still enters the
        # products (the enumerated four-column contract {1, w, dB, w*dB}).
        cap = max(1, cfg.degree_w - 1) if cfg.degree_w else 0
        terms += [((0,) * d, f"db{c}") for c in range(l)]
        terms += [(e, f"db{c}") for e in _monomial_exponents(d, cap)[1:] for c in range(l)]
    terms += [(e, f"bar{k}") for k in range(n_barriers)
              for e in _monomial_exponents(d, OBSTACLE_BASIS_DEGREE)]
    return terms


def basis_labels(cfg: RegressionConfig, d: int, l: int, barriers: int = 0) -> tuple[str, ...]:
    """Column labels matching :func:`build_basis` output order, for
    ``barriers`` barrier-shape blocks."""

    def label(exponents: tuple[int, ...], factor: str | None) -> str:
        parts = [f"w{k}" if e == 1 else f"w{k}^{e}" for k, e in enumerate(exponents) if e]
        return "*".join(parts + [factor] if factor else parts) or "1"

    return tuple(label(*term) for term in _terms(cfg, d, l, barriers))


def build_basis(cfg: RegressionConfig, w_state: np.ndarray, dB_i: np.ndarray | None,
                barriers=()) -> np.ndarray:
    """Assemble the M x B design matrix for one time step, in the column
    order of :func:`basis_labels`.  ``barriers`` holds the step's
    non-constant barrier values, one M vector each.

    Each monomial is computed once, as a lower monomial times one W
    component, and reused by the dB and barrier products.
    """
    w_state = np.asarray(w_state, dtype=float)
    if w_state.ndim != 2:
        raise ValueError("w_state must be M x d")
    m, d = w_state.shape

    factors = {}
    l = 0
    if cfg.include_dB:
        if dB_i is None:
            raise ValueError("include_dB is set but no backward increments were given")
        db = np.asarray(dB_i, dtype=float)
        if db.ndim != 2 or db.shape[0] != m:
            raise ValueError("dB_i must be M x l with the same M as w_state")
        l = db.shape[1]
        factors.update((f"db{c}", db[:, c]) for c in range(l))
    for k, values in enumerate(barriers):
        values = np.asarray(values, dtype=float)
        if values.shape != (m,):
            raise ValueError("each barrier must be an M vector")
        factors[f"bar{k}"] = values

    terms = _terms(cfg, d, l, len(barriers))
    if len(terms) > m:
        raise ValueError(f"underdetermined basis: {len(terms)} columns but only {m} samples")

    monomials = {(0,) * d: np.ones(m)}
    columns = []
    for exponents, factor in terms:
        mono = monomials.get(exponents)
        if mono is None:
            # each block runs in degree order, so the lower monomial is known
            k = max(j for j, e in enumerate(exponents) if e)
            lower = exponents[:k] + (exponents[k] - 1,) + exponents[k + 1:]
            mono = monomials[exponents] = monomials[lower] * w_state[:, k]
        if factor is None:
            columns.append(mono)
        elif any(exponents):
            columns.append(mono * factors[factor])
        else:
            columns.append(factors[factor])
    return np.column_stack(columns)


def condexp_fit_eval(
    targets: np.ndarray,
    basis: np.ndarray,
    ridge: float = 0.0,
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
    fit = RegressionFit(
        coefficients=beta[:, 0] if squeeze else beta,
        residual_norm=residual_norm,
        ridge=ridge,
    )
    return (fitted[:, 0] if squeeze else fitted), fit
