"""Properties of the F_p kernel on random matrices."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr._modp import SpanTracker, nullspace_mod, rank_mod


@st.composite
def matrices(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    # a small entry range gives low-rank matrices often enough
    entries = draw(st.lists(st.integers(-6, 6), min_size=rows * cols,
                            max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols), p


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_and_rank(case):
    a, p = case
    cols = a.shape[1]
    rank = rank_mod(a, p)
    assert rank == rank_mod(a.T, p)
    n = nullspace_mod(a, p)
    if cols == 0:
        assert n.size == 0
        return
    assert n.shape == (cols - rank, cols)
    assert not ((a @ n.T) % p).any()
    # free columns: those that do not raise the rank of the columns before them
    free = [j for j in range(cols)
            if rank_mod(a[:, :j + 1], p) == rank_mod(a[:, :j], p)]
    assert len(free) == len(n)
    assert (n[:, free] == np.eye(len(free), dtype=np.int64)).all()
    assert ((n >= 0) & (n < p)).all()


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_span_tracker_spans_the_rows(case):
    a, p = case
    tracker = SpanTracker(a.shape[1], p)
    grew = [tracker.add(row) for row in a]
    assert sum(grew) == tracker.rank == rank_mod(a, p)
    assert all(tracker.contains(row) for row in a)
    assert tracker.contains(np.arange(len(a)) @ a)  # a combination of the rows
