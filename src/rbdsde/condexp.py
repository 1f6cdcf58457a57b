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

import functools
import itertools
import math
from dataclasses import InitVar, dataclass, field

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
        if not 0 <= self.ridge < math.inf:
            raise ValueError(f"ridge must be >= 0 and finite, got {self.ridge!r}")


@dataclass(frozen=True, eq=False)
class RegressionFit:
    """Coefficients and fit quality of one least-squares projection."""

    coefficients: np.ndarray      # (B,) or (B, k) for stacked targets
    residual_norm: np.ndarray     # l2 residual per target column


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
        # the index multisets come in ascending order, so reversed their
        # exponent tuples ascend lexicographically
        for indices in reversed(list(itertools.combinations_with_replacement(range(d), total))):
            exponents = [0] * d
            for k in indices:
                exponents[k] += 1
            out.append(tuple(exponents))
    return out


def _db_product_degree(cfg: RegressionConfig) -> int:
    """Highest W degree multiplied by the dB components.  At degree_w = 1
    the single linear monomial still enters the products (the enumerated
    four-column contract {1, w, dB, w*dB})."""
    return max(1, cfg.degree_w - 1) if cfg.degree_w else 0


# enumerated once per design shape: a read builds each step's basis in up to
# 16 blocks of paths, and enumerating the terms took two thirds of the time
# of building a 4-column block of 3776 paths
@functools.lru_cache(maxsize=16)
def _terms(cfg: RegressionConfig, d: int, l: int, n_barriers: int) -> tuple:
    """The design's columns in order, each a W exponent tuple times an
    optional factor, ``"db<c>"`` (a backward-increment component) or
    ``"bar<k>"`` (a barrier).  The W monomials come first (constant first),
    then, with ``include_dB``, the dB components and their products with the
    non-constant low-order monomials, then each barrier times the monomials
    up to OBSTACLE_BASIS_DEGREE."""
    terms = [(e, None) for e in _monomial_exponents(d, cfg.degree_w)]
    if cfg.include_dB:
        terms += [((0,) * d, f"db{c}") for c in range(l)]
        terms += [(e, f"db{c}") for e in _monomial_exponents(d, _db_product_degree(cfg))[1:]
                  for c in range(l)]
    terms += [(e, f"bar{k}") for k in range(n_barriers)
              for e in _monomial_exponents(d, OBSTACLE_BASIS_DEGREE)]
    return tuple(terms)


def _term_count(cfg: RegressionConfig, d: int, l: int, n_barriers: int) -> int:
    """``len(_terms(cfg, d, l, n_barriers))`` in closed form, without
    enumerating a term: there are C(d + k, k) monomials of degree <= k."""
    count = math.comb(d + cfg.degree_w, d)
    if cfg.include_dB:
        count += l * math.comb(d + _db_product_degree(cfg), d)
    return count + n_barriers * math.comb(d + OBSTACLE_BASIS_DEGREE, d)


def basis_labels(cfg: RegressionConfig, d: int, l: int, barriers: int = 0) -> tuple[str, ...]:
    """Column labels matching :func:`build_basis` output order, for
    ``barriers`` barrier-shape blocks."""

    def label(exponents: tuple[int, ...], factor: str | None) -> str:
        parts = [f"w{k}" if e == 1 else f"w{k}^{e}" for k, e in enumerate(exponents) if e]
        return "*".join(parts + [factor] if factor else parts) or "1"

    return tuple(label(*term) for term in _terms(cfg, d, l, barriers))


def _determined_count(cfg: RegressionConfig, d: int, l: int, n_barriers: int, m: int) -> int:
    """The design's column count; raises if it exceeds the ``m`` samples."""
    count = _term_count(cfg, d, l, n_barriers)
    if count > m:
        raise ValueError(f"underdetermined basis: {count} columns but only {m} samples")
    return count


def build_basis(cfg: RegressionConfig, w_state: np.ndarray, dB_i: np.ndarray | None,
                barriers=()) -> np.ndarray:
    """Assemble the M x B design matrix for one time step, in the column
    order of :func:`basis_labels`.  ``barriers`` holds the step's
    non-constant barrier values, one M vector each.

    The matrix is the transpose of a C-ordered B x M array that is filled
    one contiguous row per term.  Each monomial is computed once, as a lower
    monomial times one W component, and reused by the dB and barrier
    products.
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

    rows = np.empty((_determined_count(cfg, d, l, len(barriers), m), m))
    monomials = {(0,) * d: 1.0}
    for row, (exponents, factor) in zip(rows, _terms(cfg, d, l, len(barriers))):
        mono = monomials.get(exponents)
        if mono is None:
            # each block runs in degree order, so the lower monomial is known;
            # a W-block monomial is built in its own row
            k = max(j for j, e in enumerate(exponents) if e)
            lower = exponents[:k] + (exponents[k] - 1,) + exponents[k + 1:]
            mono = monomials[exponents] = np.multiply(monomials[lower], w_state[:, k],
                                                      out=None if factor else row)
        if factor is not None:
            np.multiply(mono, factors[factor], out=row)
        elif mono is not row:  # the constant
            row[:] = mono
    return rows.T


@dataclass(frozen=True, eq=False)
class Design:
    """A regression design factored for least squares: the M x B matrix A,
    the scale s = 1/sqrt(diag G) of its ridge Gram G = A'A + ridge I, and the
    lower Cholesky factor of the unit-diagonal sG s.  Built once, it serves
    every fit on the same matrix.

    With ``ridge == 0`` a zero or dependent column raises instead of giving
    an arbitrary fit; with ``ridge > 0`` a ridge below the rounding of the
    Gram sums is raised to the smallest one they resolve
    (``ridge_floor``).

    ``factored`` is the ``(scale, factor, ridge_floor)`` of an earlier
    design on a bit-identical matrix and the same ridge, which a ladder
    stores per step; with it the Gram is not formed again."""

    matrix: np.ndarray
    ridge: InitVar[float] = 0.0
    factored: InitVar[tuple[np.ndarray, np.ndarray, bool] | None] = None
    scale: np.ndarray = field(init=False)
    factor: np.ndarray = field(init=False)
    ridge_floor: bool = field(init=False)

    def __post_init__(self, ridge: float, factored):
        matrix = np.asarray(self.matrix, dtype=float)
        m, b = matrix.shape
        if b > m:
            raise ValueError(f"underdetermined basis: {b} columns but only {m} samples")
        if not 0 <= ridge < math.inf:
            raise ValueError(f"ridge must be >= 0 and finite, got {ridge!r}")

        if factored is None:
            gram = matrix.T @ matrix
            gram[np.diag_indices(b)] += ridge
            diag = gram.diagonal()
            if ridge == 0 and np.any(diag == 0):
                raise ValueError(f"singular design: column {int(np.argmax(diag == 0))} is zero (ridge=0)")
            scale = 1.0 / np.sqrt(diag)
            scaled = gram * np.outer(scale, scale)
            # A pivot of the unit-diagonal G whose square is within the
            # rounding of the Gram sums, eps * max(M, B) (numpy lstsq's
            # default rcond), is a dependent column.
            tol = np.finfo(float).eps * max(m, b)
            try:
                factor = np.linalg.cholesky(scaled)
                dependent = np.min(factor.diagonal()) ** 2 <= tol
            except np.linalg.LinAlgError:
                dependent = True
            if dependent:
                if ridge == 0:
                    raise ValueError(f"singular design: {b} columns are linearly dependent (ridge=0)")
                # the requested ridge is below what the Gram sums resolve
                factor = np.linalg.cholesky(scaled + tol * np.eye(b))
            factored = scale, factor, bool(dependent)
        if factored[1].shape != (b, b):
            raise ValueError("stored factor does not match the design's columns")
        for name, value in zip(("matrix", "scale", "factor", "ridge_floor"), (matrix, *factored)):
            object.__setattr__(self, name, value)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


# Every fitted-rows product is formed over this many blocks of paths, or
# fewer, each a multiple of 64 paths long but for the last
_PATH_BLOCKS = 16


def path_blocks(m: int, b: int) -> list[slice]:
    """The slices of M paths over which a fitted-rows product on B columns
    is formed: about M/16 paths each, at least B, rounded up to a multiple
    of 64.  A last block shorter than B joins the one before it, so that
    with M >= B no block's basis is underdetermined."""
    size = 64 * -(-max(-(-m // _PATH_BLOCKS), b) // 64)
    starts = list(range(0, m, size))
    if len(starts) > 1 and m - starts[-1] < b:
        starts.pop()
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [m])]


def fitted_rows(betas, m: int, basis, outs=None) -> list:
    """The fitted values of each (B, k) array of coefficients in ``betas``
    on M paths, each a (k, M) array, into ``outs`` if given.
    ``basis(paths)`` returns the design matrix's rows on a slice of
    ``path_blocks(m, B)``; it is called once per block, and each array's
    product on that block is formed on its own.  Every fit forms its fitted
    values here, on its design's rows, and so does every later read of
    stored fits, on a basis it builds for one block at a time: the same
    products on the same blocks, so a read has the fit's bits and holds one
    block's basis."""
    if outs is None:
        outs = [np.empty((beta.shape[1], m)) for beta in betas]
    for paths in path_blocks(m, betas[0].shape[0]):
        block = basis(paths).T
        for beta, out in zip(betas, outs):
            out[:, paths] = beta.T @ block
        del block  # not held while the next block's basis is built
    return outs


def condexp_fit_eval(targets: np.ndarray, design: Design) -> tuple[np.ndarray, RegressionFit]:
    """Project targets onto the design's columns by (ridge) least squares,
    min |A beta - y|^2 + ridge |beta|^2.

    Two solves with the design's triangular factor give the coefficients of
    every target.  ``targets`` may be a single M vector or an M x k stack
    sharing the design.  The products run on the targets as k contiguous
    rows, copied only if the stack is not already stored that way (the
    transpose of a k x M array is); the fitted values come back as the
    transpose of k contiguous rows.
    """
    y = np.asarray(targets, dtype=float)
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    if y.shape[0] != design.shape[0]:
        raise ValueError("targets and basis must share the sample dimension")
    rows = np.ascontiguousarray(y.T)

    # BLAS may split a matrix-vector product's sum over the paths among its
    # threads, so one row goes through einsum, which sums in one order
    products = np.einsum("km,mb->kb", rows, design.matrix) if len(rows) == 1 else rows @ design.matrix
    scale = design.scale[:, None]
    half = np.linalg.solve(design.factor, scale * products.T)
    beta = scale * np.linalg.solve(design.factor.T, half)

    fitted, = fitted_rows([beta], rows.shape[1], lambda paths: design.matrix[paths])
    residual = rows - fitted
    residual_norm = np.sqrt(np.einsum("ji,ji->j", residual, residual))
    fitted = fitted.T
    fit = RegressionFit(
        coefficients=beta[:, 0] if squeeze else beta,
        residual_norm=residual_norm,
    )
    return (fitted[:, 0] if squeeze else fitted), fit
