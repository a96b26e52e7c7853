"""Properties of the sparse elimination kernel on random matrices, over
F_p and over Z (against the dense reference Smith normal form)."""

from math import gcd
from random import Random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tsr._modp
from tsr._modp import SpanTracker, nullspace_mod, rank_mod
from tsr.bredon import (AbelianGroup, IntegerChainComplex, bredon_complex, homology,
                        smith_normal_form)
from tsr.complexes import parse_complex

from documents import clean, strip
from documents import smith_normal_form as reference_snf


@st.composite
def matrices(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    # a small entry range gives low-rank matrices often enough
    entries = draw(st.lists(st.integers(-6, 6), min_size=rows * cols,
                            max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols), p


def _dense(rows, cols):
    """The {column: entry} rows as one dense len(rows) x cols array."""
    out = np.zeros((len(rows), cols), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[i, j] = x
    return out


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_nullspace_and_rank(case):
    a, p = case
    cols = a.shape[1]
    rank = rank_mod(a, p)
    assert rank == rank_mod(a.T, p)
    basis = nullspace_mod(clean(a, p), p, cols)
    n = _dense(basis, cols)
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


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_rows_are_clean_and_sparse(case):
    a, p = case
    cols = a.shape[1]
    basis = nullspace_mod(clean(a, p), p, cols)
    free = [j for j in range(cols)
            if rank_mod(a[:, :j + 1], p) == rank_mod(a[:, :j], p)]
    assert len(basis) == len(free)
    for f, row in zip(free, basis):
        assert all(type(j) is int and 0 <= j < cols and type(x) is int and 0 < x < p
                   for j, x in row.items())
        assert row[f] == 1 and not any(g in row for g in free if g != f)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_does_not_depend_on_the_elimination_order(case):
    # rank_mod renumbers the columns and sorts the rows; the tracker takes them as given
    a, p = case
    assert rank_mod(a, p) == _tracker(clean(a, p), p).rank == \
        _tracker(clean(a[::-1, ::-1], p), p).rank


def test_rank_mod_eliminates_a_dense_row_last(monkeypatch):
    # a work count: the pivot rows' nonzeros.  The full row, given first,
    # would fill the rows of the cycle after it (500,000 nonzeros at
    # n = 1,000); taken last, it is reduced against pivots of <= 2 entries
    trackers = []

    class Tracker(SpanTracker):
        def __init__(self, p):
            super().__init__(p)
            trackers.append(self)

    monkeypatch.setattr(tsr._modp, "SpanTracker", Tracker)
    n = 1000
    cycle = [{i: 1, (i + 1) % n: 1} for i in range(n)]
    for p in (2, 3):  # n is even: the full row is an alternating sum of the cycle
        assert rank_mod([dict.fromkeys(range(n), 1)] + cycle, p) == n - 1
        assert sum(map(len, trackers.pop().pivots.values())) <= 2 * n


@pytest.mark.parametrize("mat, p, cols", [
    ([[2]], 0, None), ([[3]], 1, None), ([[1, 2], [2, 4]], 6, None), ([[2]], 4, None),
    ([[2, 0]], 0, 2), ([[1, 0, 1]], 4, 2),  # the last also misfits: the prime check is first
])
def test_a_modulus_that_is_not_prime_is_refused(mat, p, cols):
    # cols None: rank_mod
    with pytest.raises(ValueError, match=rf"^{p} is not prime$"):
        rank_mod(mat, p) if cols is None else nullspace_mod(clean(mat), p, cols)


@pytest.mark.parametrize("row", [[1, 0, 1], {0: 1, 5: 1}, {-1: 1, 0: 1}, {2: 1}])
def test_nullspace_refuses_an_entry_outside_its_columns(row):
    # the last two rows reduce to zero against the first two: the pivot
    # rows still hold the entry
    with pytest.raises(ValueError, match=r"^a row has an entry outside range\(2\)$"):
        nullspace_mod(clean([[1, 1], row, [1, 1], row], 2), 2, 2)
    with pytest.raises(ValueError, match=r"^a row has an entry outside range\(2\)$"):
        nullspace_mod(clean([row, {0: 1, 2: 1}], 3), 3, 2)
    # an entry that is zero mod p is no entry
    assert nullspace_mod(clean([[1, 1], [0, 0, 2]], 2), 2, 2) == [{1: 1, 0: 1}]


@pytest.mark.parametrize("row", [{0: 1, 1: 0}, {0: 3, 1: 1}, {0: 1, 1: -1}])
def test_nullspace_refuses_an_entry_outside_the_residues(row):
    # a zero, an unreduced and a negative entry: the rows must be clean
    # mod p, as the null space takes them as they are
    with pytest.raises(ValueError, match=r"^a row has an entry outside 1\.\.2$"):
        nullspace_mod([row], 3, 2)
    with pytest.raises(ValueError, match=r"^a row has an entry outside 1\.\.2$"):
        nullspace_mod([{0: 1, 1: 1}, row], 3, 2)


def _tracker(rows, p):
    """A SpanTracker over F_p (Z if p = 0) that the clean rows were added to."""
    tracker = SpanTracker(p)
    for row in rows:
        tracker.add(row)
    return tracker


def _assert_echelon(tracker):
    """Each pivot row is 1 at its pivot and zero in every older pivot
    column, in every ring."""
    seen = []
    for c, row in tracker.pivots.items():
        assert row[c] == 1 and not any(d in row for d in seen)
        seen.append(c)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_span_tracker_spans_the_rows(case):
    a, p = case
    tracker = SpanTracker(p)
    grew = [tracker.add(row) for row in clean(a, p)]
    assert sum(grew) == tracker.rank == rank_mod(a, p)
    _assert_echelon(tracker)
    # a row of the span, or a combination of the rows, leaves the rank as it is
    for row in clean([*a, np.arange(len(a)) @ a], p):
        assert not tracker.add(row)
        assert tracker.rank == rank_mod(a, p)


# mostly zeros and small non-units, so that the unit-pivot elimination
# often leaves a non-empty core
ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, 6, -6, 9))


def _block(draw, side, entry=ENTRY):
    rows, cols = draw(st.integers(0, side)), draw(st.integers(0, side))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def _diagonal(a, b):
    """The block-diagonal matrix with blocks a and b."""
    ca, cb = (len(m[0]) if m else 0 for m in (a, b))
    return [row + [0] * cb for row in a] + [[0] * ca + row for row in b]


@st.composite
def integer_matrices(draw):
    m = _block(draw, 8)
    if draw(st.booleans()):
        return m
    # the block scaled by g, sometimes inside a second scaled block, next
    # to a unit part: the unit pivots leave a core of content g, which
    # _diagonal finishes
    for _ in range(draw(st.integers(1, 2))):
        g = draw(st.sampled_from((2, 3, 4, 6)))
        m = [[g * x for x in row] for row in _diagonal(_block(draw, 3), m)]
    return _diagonal(_block(draw, 4, st.sampled_from((0, 1, -1))), m)


@st.composite
def unitless_matrices(draw):
    """Matrices of content 1 with no unit entry: no unit pivot is found,
    and _diagonal does all the work."""
    m = _block(draw, 6, st.sampled_from((0, 0, 2, -2, 3, -3, 4, 6, -9, 10, 15)))
    assume(gcd(*(x for row in m for x in row)) == 1)
    return m


def _reference(m) -> list[int]:
    """The nonzero diagonal of the dense reference Smith normal form of m."""
    _, d, _ = reference_snf(m)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_elementary_divisors_match_the_smith_normal_form(m):
    divisors = _reference(m)
    # dense rows, numpy's among them, and clean rows, which are copied
    rows = clean(m)
    assert smith_normal_form(m) == smith_normal_form(np.array(m, dtype=np.int64)) \
        == smith_normal_form(rows) == divisors
    assert rows == clean(m)
    # the one path from outside: dense rows, normalised by the complex
    rows, cols = len(m), len(m[0]) if m else 0
    h0 = homology(IntegerChainComplex(m, [{}] * cols, (rows, cols, 0)))[0]
    assert h0 == AbelianGroup(rows - len(divisors), tuple(x for x in divisors if x > 1))


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.randoms(use_true_random=False))
def test_elementary_divisors_do_not_depend_on_the_row_order(m, rng):
    # the elimination takes the rows shortest first, whatever their order
    rows = list(m)
    rng.shuffle(rows)
    assert smith_normal_form(rows) == smith_normal_form(m) == _reference(m)


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.randoms(use_true_random=False))
# written with explicit zeros, [[0, 2]] is [{0: 0, 1: 2}]: a dict row that
# holds a zero, which a reader chosen by the first row took as clean
@example([[0, 2]], Random(0))
def test_every_row_is_read_by_one_rule(m, rng):
    # one matrix written four ways: dense rows, clean dict rows, dict rows
    # with explicit zeros, and a mix of the three, row by row
    ways = [list(m), clean(m), [dict(enumerate(r)) for r in m]]
    ways.append([rng.choice(forms) for forms in zip(*ways)])
    divisors = _reference(m)
    for rows in ways:
        assert smith_normal_form(rows) == divisors, rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices(), st.sampled_from((2, 3, 5)))
def test_rank_mod_p_counts_divisors_prime_to_p(m, p):
    assert rank_mod(m, p) == sum(1 for d in smith_normal_form(m) if d % p)


@settings(max_examples=300, deadline=None)
@given(unitless_matrices())
# 5 pivots first and leaves the remainder 2 in its row; the 1 that
# clears the 2 never touches the 5, so the 5 must be queued again
@example([[5, 7], [5, 8]])
def test_a_core_without_units_is_diagonalised_sparsely(m):
    assert _tracker(clean(m), 0).rank == 0
    assert smith_normal_form(m) == smith_normal_form(clean(m)) == _reference(m)


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_core_over_z_is_zero_in_every_pivot_column(m):
    span = _tracker(clean(m), 0)
    assert not any(c in row for row in span.core for c in span.pivots)
    _assert_echelon(span)


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices(), integer_matrices().map(lambda m: (m, 0))))
def test_no_pivot_row_changes_once_made(case):
    # over F_p as over Z: the elimination edits only the incoming row
    m, p = case
    tracker, snapshots = SpanTracker(p), {}
    for row in clean(m, p):
        tracker.add(row)
        assert all(tracker.pivots[c] == old for c, old in snapshots.items())
        snapshots.update((c, dict(row)) for c, row in tracker.pivots.items()
                         if c not in snapshots)
    _assert_echelon(tracker)


def test_echelon_elimination_of_a_strip_makes_no_fill():
    # psi_1 of 1,000 triangles has 2,004 rows of at most 4 nonzeros; kept
    # in reduced echelon form, its pivot rows filled to 823,202 nonzeros
    psi1 = bredon_complex(parse_complex(strip(1000))).chain().psi1
    span = _tracker(clean(psi1), 0)
    assert sum(len(row) for row in span.pivots.values()) <= 15_000
