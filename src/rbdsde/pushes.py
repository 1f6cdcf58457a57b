"""The store of a solve's signed reflection pushes.

By the Skorohod condition a barrier pushes a path only while Y sits on it,
so most of the pushes dK+ - dK- of a solve, one per path and step, are
zero: on a corridor a few percent of the path-steps are pushed.  The store
keeps one contact bit per path and step and the pushes of the paths in
contact; ``SolutionEnsemble`` forms dK and K from it where they are read.
"""
from __future__ import annotations

import numpy as np


class SignedPushes:
    """The signed reflection pushes of a solve, dK_j = dK+_j - dK-_j per
    path and step j, held only where a barrier pushed.  Per step: one
    ``np.packbits`` row of the contact mask (M/8 bytes) and the pushes of
    the paths in contact, in path order.  ``put`` holds one step: the sweep
    puts each step's contact and pushes as its reflection returns them (a
    path beyond a barrier whose push rounded to zero is held as +0.0), and
    ``of`` compacts a dense (M, N) array, holding the nonzero entries of
    each column.  A path not in contact reads back as +0.0.  A store is
    filled once, then only read."""

    def __init__(self, m: int, n: int):
        self.m = m
        self.contact = np.zeros((n, -(-m // 8)), dtype=np.uint8)
        self.values = [np.empty(0)] * n

    @classmethod
    def of(cls, dk) -> SignedPushes:
        """The store of a dense (M, N) array of signed pushes."""
        dk = np.asarray(dk, dtype=float)
        pushes = cls(*dk.shape)
        for j, row in enumerate(dk.T):
            contact = row != 0.0
            pushes.put(j, contact, row[contact])
        return pushes

    def put(self, j: int, contact: np.ndarray, values: np.ndarray) -> None:
        """Hold step j: ``contact`` is the boolean M-mask of the paths in
        contact and ``values`` their pushes in path order, kept as given."""
        self.contact[j] = np.packbits(contact)
        self.values[j] = values

    def paths(self, j: int) -> np.ndarray:
        """The paths pushed at step j, in order: the nonzero bits of its
        contact row."""
        if not self.values[j].size:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(np.unpackbits(self.contact[j], count=self.m).view(bool))

    @property
    def nbytes(self) -> int:
        """The bytes held: the contact rows and the pushes."""
        return self.contact.nbytes + sum(v.nbytes for v in self.values)

    def dense(self) -> np.ndarray:
        """The (M, N) array of pushes, held time first, so each ``[:, j]``
        is a contiguous row."""
        n = len(self.values)
        dk = np.zeros((n, self.m))
        for j, values in enumerate(self.values):
            dk[j, self.paths(j)] = values
        return dk.T
