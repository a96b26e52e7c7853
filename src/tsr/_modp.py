"""Dense linear algebra over the prime fields F_p (small p), numpy-backed.

One elimination kernel serves every caller: ``SpanTracker`` keeps a row
space in reduced row echelon form (unit pivots, every pivot column zero
in the other rows) as vectors are added one at a time.  ``rank_mod``
and ``nullspace_mod`` feed a matrix's rows through it.  Entries stay in
[0, p), and the sizes here stay in the low thousands, so int64
arithmetic is exact.
"""

from __future__ import annotations

import numpy as np


class SpanTracker:
    """Incrementally maintained row space over F_p with membership tests.

    The rows are kept fully reduced, so reducing a vector against them is
    one step, ``v - v[pivots] @ rows``.  At most ``max_rank`` rows are
    stored (default ``dim``); the space for them is allocated up front.
    """

    def __init__(self, dim: int, p: int, max_rank: int | None = None):
        self.p = p
        self.dim = dim
        cap = dim if max_rank is None else min(dim, max_rank)
        self._rows = np.zeros((cap, dim), dtype=np.int64)
        self._pivots = np.zeros(cap, dtype=np.intp)
        self.rank = 0

    def _reduce(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64) % self.p
        r = self.rank
        if r:
            v -= v[self._pivots[:r]] @ self._rows[:r]
            v %= self.p
        return v

    def contains(self, vec) -> bool:
        return not self._reduce(vec).any()

    def add(self, vec) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        v = self._reduce(vec)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        c = int(nz[0])
        if v[c] != 1:
            v = (v * pow(int(v[c]), self.p - 2, self.p)) % self.p
        r = self.rank
        hit = np.flatnonzero(self._rows[:r, c])  # clear column c in the old rows
        if hit.size:
            self._rows[hit] = (self._rows[hit] - np.outer(self._rows[hit, c], v)) % self.p
        self._rows[r] = v
        self._pivots[r] = c
        self.rank = r + 1
        return True


def _row_space(a: np.ndarray, p: int) -> SpanTracker:
    tracker = SpanTracker(a.shape[1], p, max_rank=a.shape[0])
    for row in a:
        tracker.add(row)
    return tracker


def _matrix(mat) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2-dimensional matrix")
    return a


def rank_mod(mat, p: int) -> int:
    a = _matrix(mat)
    if a.shape[1] < a.shape[0]:
        a = a.T  # fewer, longer rows: fewer reduction steps
    return _row_space(a, p).rank


def nullspace_mod(mat, p: int) -> np.ndarray:
    """Basis of the right null space over F_p, one vector per row of the
    returned array.  The basis is the canonical one read off the RREF
    (the identity on the free columns), so it is deterministic."""
    a = _matrix(mat)
    cols = a.shape[1]
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    span = _row_space(a, p)
    pivots = span._pivots[:span.rank]
    free = np.setdiff1d(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-span._rows[:span.rank][:, free].T) % p
    return basis
