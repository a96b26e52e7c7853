"""Properties of the sparse elimination kernel on random matrices, over
F_p and over Z (against the Smith normal form)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr._modp import SpanTracker, nullspace_mod, rank_mod
from tsr.bredon import elementary_divisors, smith_normal_form


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
    basis = nullspace_mod(a, p, cols)
    n = np.array(basis, dtype=np.int64).reshape(len(basis), cols)
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
    tracker = SpanTracker(p)
    grew = [tracker.add(row) for row in a]
    assert sum(grew) == tracker.rank == rank_mod(a, p)
    assert all(tracker.contains(row) for row in a)
    assert tracker.contains(np.arange(len(a)) @ a)  # a combination of the rows


@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    # mostly zeros and small non-units, so that the unit-pivot
    # elimination often leaves a non-empty core for the SNF
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -6, 9))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_elementary_divisors_match_the_smith_normal_form(m):
    _, d, _ = smith_normal_form(m)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    assert elementary_divisors(m) == [x for x in diag if x]


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.sampled_from((2, 3, 5)))
def test_rank_mod_p_counts_divisors_prime_to_p(m, p):
    assert rank_mod(m, p) == sum(1 for d in elementary_divisors(m) if d % p)
