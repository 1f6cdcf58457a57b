"""Solution ensembles built by hand from whole arrays.

A solver's ensemble holds Y and Z as each step's fit coefficients and its
reflection as a ``SignedPushes`` store.  Tests that need an ensemble with
chosen values build one here instead: ``from_dense`` holds a whole Y and Z
in a store with the two reads ``SolutionEnsemble`` makes of its store,
``shape`` and ``rows(with_y)``, and ``pushes_of`` compacts a dense (M, N)
array of signed pushes into the store the sweep fills.
"""
from __future__ import annotations

import numpy as np

from rbdsde import SignedPushes, SolutionEnsemble


class _Dense:
    """Y and Z held whole, (M, N+1) and (M, N, d), read by
    ``SolutionEnsemble`` like the solver's ``StepFits``."""

    def __init__(self, y, z):
        self.y, self.z = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
        m, n_plus_1 = self.y.shape
        if self.z.shape[:2] != (m, n_plus_1 - 1):
            raise ValueError("Z shape inconsistent with Y")
        self.shape = self.z.shape
        self.nbytes = self.y.nbytes + self.z.nbytes

    def rows(self, with_y: bool = True):
        n = self.shape[1]
        if with_y:
            yield n, self.y[:, n], None
        for i in range(n - 1, -1, -1):
            yield i, self.y[:, i] if with_y else None, self.z[:, i, :]


def from_dense(Y, Z, pushes, meta, obstacle_grid=None) -> SolutionEnsemble:
    """An ensemble on a whole M x (N+1) Y and M x N x d Z."""
    return SolutionEnsemble(_Dense(Y, Z), pushes, meta, obstacle_grid)


def pushes_of(dk) -> SignedPushes:
    """The store of a dense (M, N) array of signed pushes, holding the
    nonzero entries of each column."""
    dk = np.asarray(dk, dtype=float)
    pushes = SignedPushes(*dk.shape)
    for j, row in enumerate(dk.T):
        contact = row != 0.0
        pushes.put(j, contact, row[contact])
    return pushes
