"""Exact sparse elimination over Z and over the prime fields F_p.

One kernel serves every caller: ``SpanTracker(p)`` keeps a row space in
echelon form as rows are added one at a time (p = 0 means Z).  Rows are
clean ``{column: entry}`` dicts of nonzero ints, reduced mod p, which a
kernel takes over.  A pivot must be a unit (any nonzero residue over
F_p, +-1 over Z); a row's pivot is its least unit column once the row
is reduced, scaled to 1.  A reduced row is the one element of its
coset, modulo the pivot rows, that is zero in every pivot column, so
the pivots do not depend on the echelon form kept.  Over Z a reduced
row with no unit joins the ``core``, read zero in every pivot column,
so the elementary divisors are one 1 per pivot plus those of the core
(Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001), which
``bredon._diagonal`` reads off a sparse diagonal form of the core.

The form is the same in every ring: a pivot row is zero in the older
pivot columns, and no pivot row changes once it is made.  Clearing each
new pivot column from every older row would scan them all and fill
them (psi_1 of a 1,000-triangle strip: 823,202 pivot nonzeros against
11,818).  ``rank_mod`` reads only the rank, which no order of rows or
columns changes: it renumbers the columns by how many rows use them,
fewest first, and feeds the rows shortest first, so a dense row or
column (a star's hub) pivots last and fills nothing, however its ids
sort.  ``nullspace_mod`` keeps the given order, as its canonical basis
depends on which columns are pivots, and alone needs the reduced echelon
form: it clears its own pivot rows into it once, newest first, and reads
its basis off them in one pass, as ``{column: entry}`` rows like every
other row here.  Both refuse a modulus that is not prime, and
``nullspace_mod`` a row with an entry outside its columns; ``rank_mod``
reduces its integer rows mod p with ``_row``.

``assemble`` builds those rows: every matrix of a cell complex here (the
Bredon differentials, their split, the graph oracle's restriction maps)
is a signed sum of small per-inclusion blocks at the cells' offsets.
It builds the matrices of all parts in one pass over the terms: a cell
spans ``widths(tag)[w]`` rows or columns of part w, the block callback
returns a key's block for each part, read once per key, and the result
is one list of rows per part (one part for the Bredon total and the
oracle's maps, three for the Bredon split).  It drops an entry whose
terms cancel as it sums, so its rows are clean over Z (nonzero Python
ints) and the Bredon chain check takes them as they are.
The module holds elimination and assembly only.
"""

from __future__ import annotations

from collections import Counter
from heapq import heapify, heappop, heappush
from itertools import accumulate

from .complexes import _check_prime


def _row(vec, p: int) -> dict[int, int]:
    """The nonzero entries of a dense or dict row, reduced mod p if p > 0."""
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    if p:
        return {j: y for j, x in items if x and (y := int(x) % p)}
    return {j: int(x) for j, x in items if x}


def _subtract(row: dict[int, int], a: int, v: dict[int, int], p: int) -> None:
    """row -= a * v mod p, in place."""
    for j, x in v.items():
        y = (row.get(j, 0) - a * x) % p
        if y:
            row[j] = y
        else:
            del row[j]


def assemble(terms, rows, cols, widths, block,
             parts: int = 1) -> list[list[dict[int, int]]]:
    """Per part w, the sparse rows of the sum of sign * block(column tag,
    row tag, emb)[w] over the terms (row cell, column cell, sign, emb),
    given as indices into the cell sequences rows and cols; a cell spans
    widths(its tag)[w] rows or columns of part w.  Returns parts lists of
    rows, however few the cells.  An entry whose terms cancel is dropped
    when it reaches zero, so the rows hold no zeros."""
    offsets = []
    for cells in (rows, cols):
        ws = [widths(c.stabilizer) for c in cells]
        offsets.append([list(accumulate((w[p] for w in ws), initial=0))
                        for p in range(parts)])
    outs: list[list[dict[int, int]]] = [[{} for _ in range(roff[-1])]
                                        for roff in offsets[0]]
    # per key, the parts it adds to: (rows, row offsets, column offsets, entries)
    entries: dict[tuple, list[tuple]] = {}
    for i, j, sign, emb in terms:
        key = (cols[j].stabilizer, rows[i].stabilizer, emb)
        if key not in entries:
            entries[key] = [(out, roff, coff, es) for out, roff, coff, part
                            in zip(outs, *offsets, block(*key))
                            if (es := [(r, c, x) for r, brow in enumerate(part)
                                       for c, x in enumerate(brow) if x])]
        for out, roff, coff, es in entries[key]:
            r0, c0 = roff[i], coff[j]
            for r, c, x in es:
                row, c = out[r0 + r], c0 + c
                x = row.get(c, 0) + sign * x
                if x:
                    row[c] = x
                else:  # cancelled: the entry was there, and goes
                    del row[c]
    return outs


class SpanTracker:
    """Incrementally maintained row space over F_p, or row lattice over
    Z (p = 0).  ``pivots`` maps each pivot column to its row, oldest
    first; ``rank`` counts the pivots (over Z the core adds to the rank
    of the lattice).

    The pivot rows are in echelon form, which does not fill: a row is
    reduced against the pivots oldest first, from a heap of their
    creation indices (a pivot row is zero in the older pivot columns,
    so a subtraction only brings in newer ones), and no row is cleared
    afterwards.  The core is cleared when ``core`` is read.

    ``add`` takes a clean row (nonzero int entries, reduced mod p) as it
    is and keeps it, so a caller passes a copy of any row it still
    reads."""

    def __init__(self, p: int):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}
        self._index: dict[int, int] = {}  # pivot column -> creation index
        self._created: list[tuple[int, dict[int, int]]] = []  # (column, row) by index
        self._core: list[dict[int, int]] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def core(self) -> list[dict[int, int]]:
        """The rows without a unit, each zero in every pivot column (an
        empty row is one that the later pivots cleared)."""
        for row in self._core:
            self._echelon(row)
        return self._core

    def _echelon(self, v: dict[int, int]) -> dict[int, int]:
        """v reduced in place against the pivot rows, oldest first (mod p
        if p > 0); the subtraction is inlined, as this loop is the hot one."""
        index, created, p = self._index, self._created, self.p
        heap = [index[c] for c in v if c in index]
        heapify(heap)
        while heap:
            c, row = created[heappop(heap)]
            a = v.get(c)
            if a is None:  # cancelled by a subtraction, or a repeated entry
                continue
            for j, x in row.items():
                y = v.get(j)
                if y is None:  # nonzero mod p too, as p is prime
                    v[j] = -a * x % p if p else -a * x
                    if j in index:
                        heappush(heap, index[j])
                else:
                    y = (y - a * x) % p if p else y - a * x
                    if y:
                        v[j] = y
                    else:
                        del v[j]
        return v

    def add(self, v: dict[int, int]) -> bool:
        """Add a clean row; returns True if it enlarged the span."""
        p = self.p
        v = self._echelon(v)
        if not v:
            return False
        units = v if p else [j for j, x in v.items() if x in (1, -1)]  # F_p: all of v
        if not units:
            self._core.append(v)
            return True
        c = min(units)
        inv = pow(v[c], -1, p) if p else v[c]
        if inv != 1:
            v = {j: x * inv % p if p else -x for j, x in v.items()}
        self._index[c] = len(self._created)
        self._created.append((c, v))
        self.pivots[c] = v
        return True


def rank_mod(mat, p: int) -> int:
    """Rank over F_p of a matrix given as a list of rows.  The rank does
    not depend on the order of rows or columns, so the columns are
    renumbered by how many rows use them, fewest first, and the rows are
    fed shortest first: a dense row or column then pivots last, against
    sparse pivots, whatever its ids (a star's hub fills nothing)."""
    _check_prime(p)
    rows = [v for vec in mat if (v := _row(vec, p))]
    uses = Counter(j for v in rows for j in v)
    order = {j: k for k, j in enumerate(sorted(uses, key=uses.__getitem__))}
    tracker = SpanTracker(p)
    for v in sorted(rows, key=len):
        tracker.add({order[j]: x for j, x in v.items()})
    return tracker.rank


def nullspace_mod(rows, p: int, cols: int) -> list[dict[int, int]]:
    """Basis of the right null space over F_p of a matrix with ``cols``
    columns, given as clean rows, which it takes as they are and edits.
    The basis is the canonical one read off the RREF (the identity on the
    free columns), so it is deterministic: one clean ``{column: entry}``
    row per free column, in column order, with entries in 1..p-1 and 1 at
    its free column."""
    _check_prime(p)
    if any(min(v) < 0 or max(v) >= cols for v in rows if v):
        raise ValueError(f"a row has an entry outside range({cols})")
    tracker = SpanTracker(p)
    for v in rows:
        tracker.add(v)
    pivots = tracker.pivots
    # into reduced echelon form, newest pivot first: each row is zero in
    # the older pivot columns, and every newer row is reduced already
    for c, row in reversed(pivots.items()):
        for d in [d for d in row if d != c and d in pivots]:
            _subtract(row, row[d], pivots[d], p)
    # the other entries of a reduced pivot row all sit in free columns
    basis = {f: {f: 1} for f in range(cols) if f not in pivots}
    for c, row in pivots.items():
        for f, x in row.items():
            if f != c:
                basis[f][c] = p - x
    return list(basis.values())
