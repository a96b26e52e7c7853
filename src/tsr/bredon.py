"""Bredon chain complexes over complex representation rings.

The coefficient data is pinned as integers: for each catalog inclusion
of stabilizers, the induced map on representation rings and the same
map in unimodular splitting bases, where it is block diagonal: a rank-1
block, a 2-torsion block and a 3-torsion block.  The test suite rebuilds
every pinned block from the character tables, class fusions and
splitting bases in ``tsr.groups``, by Frobenius reciprocity.
Each block of the split sums the split blocks' corners on its part over
the incidence terms of ``complexes.edge_end_assignments``, the one
cellular reading, which a Bredon complex holds verbatim, as sparse rows
that go straight to the elimination; the three blocks of a differential
come from one pass over its terms, and ``split_blocks`` checks every split
block it reads for an entry that links two parts.  Assembled rows are
clean, so a built complex keeps them without a copy and checks them once;
rows from outside are normalised by ``IntegerChainComplex``.  The total,
whose homology is the blocks' direct sum, is assembled only by
``BredonComplex.chain``.  ``smith_normal_form``, the one integer
elimination, runs in two stages.  The unit pivots of ``SpanTracker(0)``
take the nonempty rows sparsest first, so a dense row (a star's hub, a
book's spine) is reduced against sparse pivots last instead of filling
every row after it, however the cells are spelled; ``_diagonal`` then
diagonalises the core they leave, sparsely.  Dense rows are made only for
the ``BredonComplex.psi1``/``psi2`` views.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict, namedtuple
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from ._modp import SpanTracker, _row, assemble
from .complexes import OrbitComplex, _is_int, check_inclusion, edge_end_assignments

#: Index partition of the split coordinates into the rank-1 part, the
#: 2-torsion part and the 3-torsion part.
BLOCK_PARTS: dict[str, tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]] = {
    "C1": ((0,), (), ()),
    "C2": ((0,), (1,), ()),
    "C3": ((0,), (), (1, 2)),
    "D2": ((0,), (1, 2, 3), ()),
    "D3": ((0,), (1,), (2,)),
    "A4": ((0,), (1,), (2, 3)),
}

SUPPORTED_VERTEX_TAGS = tuple(BLOCK_PARTS)
SUPPORTED_EDGE_TAGS = ("C1", "C2", "C3")

#: Rank of the complex representation ring: the number of irreducible
#: characters, which the parts split.
RANKS = {tag: sum(map(len, parts)) for tag, parts in BLOCK_PARTS.items()}

Matrix = tuple[tuple[int, ...], ...]  # rows, rank(target) x rank(source)

#: Per inclusion (source, target, embedding index): the induced map on
#: representation rings in the basis of irreducible characters, and the
#: same map in the splitting bases (U_target M U_source^-1).  The test
#: suite rebuilds both from the character tables in tsr.groups.
_BLOCKS: dict[tuple[str, str, int], tuple[Matrix, Matrix]] = {
    ("C1", "C1", 0): (((1,),), ((1,),)),
    ("C1", "C2", 0): (((1,), (1,)), ((1,), (0,))),
    ("C1", "C3", 0): (((1,), (1,), (1,)), ((1,), (0,), (0,))),
    ("C1", "D2", 0): (((1,), (1,), (1,), (1,)), ((1,), (0,), (0,), (0,))),
    ("C1", "D3", 0): (((1,), (1,), (2,)), ((1,), (0,), (0,))),
    ("C1", "A4", 0): (((1,), (1,), (1,), (3,)), ((1,), (0,), (0,), (0,))),
    ("C2", "C2", 0): (((1, 0), (0, 1)), ((1, 0), (0, 1))),
    ("C3", "C3", 0): (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                      ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    ("C2", "D2", 0): (((1, 0), (1, 0), (0, 1), (0, 1)),
                      ((1, 0), (0, 0), (0, 1), (0, 1))),
    ("C2", "D2", 1): (((1, 0), (0, 1), (1, 0), (0, 1)),
                      ((1, 0), (0, 1), (0, 0), (0, 1))),
    ("C2", "D2", 2): (((1, 0), (0, 1), (0, 1), (1, 0)),
                      ((1, 0), (0, 1), (0, 1), (0, 0))),
    ("C2", "D3", 0): (((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (0, 0))),
    ("C3", "D3", 0): (((1, 0, 0), (1, 0, 0), (0, 1, 1)),
                      ((1, 0, 0), (0, 0, 0), (0, 1, 1))),
    ("C2", "A4", 0): (((1, 0), (1, 0), (1, 0), (1, 2)),
                      ((1, 0), (0, 2), (0, 0), (0, 0))),
    ("C3", "A4", 0): (((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
                      ((1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 1))),
}


class BlockSplitError(AssertionError):
    """A split Bredon differential links two different parts; this would
    falsify the splitting for the given data and aborts the run (an
    internal invariant failure, exit 2 from the command line)."""


def _blocks(source: str, target: str, embedding: int) -> tuple[Matrix, Matrix]:
    if (source, target, embedding) in _BLOCKS:
        return _BLOCKS[source, target, embedding]
    check_inclusion(source, target, embedding)
    raise ValueError(  # D2 in D2, D3 in D3
        f"no pinned block for the inclusion {source!r} in {target!r}")


def induction_matrix(source: str, target: str, embedding: int = 0) -> Matrix:
    """The induced map on representation rings, rank(target) x
    rank(source): entry (psi, chi) is the multiplicity of psi in the
    induction of chi."""
    return _blocks(source, target, embedding)[0]


def transformed_induction(source: str, target: str, embedding: int = 0) -> Matrix:
    """The induced map in the splitting bases, block diagonal by
    BLOCK_PARTS."""
    return _blocks(source, target, embedding)[1]


# --------------------------------------------------------------------------
# Abelian groups and Smith normal form


def _invariant_factors(entries) -> tuple[int, ...]:
    """Normalize torsion entries (> 1) into a divisibility chain.  Each
    entry moves down the chain as (lcm, gcd) pairs, which sorts the
    valuations at every prime at once, with no factoring.  The pairs
    leave the suffix of entries it divides as it is, so the walk starts
    below that suffix."""
    chain: list[int] = []
    for n in entries:
        n = int(n)
        for i in reversed(range(bisect_left(chain, True, key=lambda c: c % n == 0))):
            chain[i], n = lcm(chain[i], n), gcd(chain[i], n)
        if n > 1:
            chain.insert(0, n)
    return tuple(chain)


class AbelianGroup(namedtuple("AbelianGroup", "free_rank torsion")):
    """Z^free_rank plus the cyclic groups of its torsion, which the
    constructor checks and puts in invariant-factor form."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        if not _is_int(free_rank):
            raise ValueError(f"free rank must be an integer, got {free_rank!r}")
        if free_rank < 0:
            raise ValueError(f"free rank must be non-negative, got {free_rank}")
        if not all(map(_is_int, torsion)):
            raise ValueError(f"torsion coefficients must be integers, got {list(torsion)}")
        if any(n < 1 for n in torsion):
            raise ValueError(f"torsion coefficients must be positive, got {list(torsion)}")
        return super().__new__(cls, free_rank, _invariant_factors(torsion))

    def __add__(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup(self.free_rank + other.free_rank,
                            self.torsion + other.torsion)

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def smith_normal_form(mat) -> list[int]:
    """The nonzero elementary divisors of an integer matrix, in
    divisibility order: one 1 per unit pivot of the sparse elimination,
    then those of the core it leaves, read off the diagonal of
    ``_diagonal``.  Clean ``{column: entry}`` rows, as a built complex
    stores them, are copied with ``dict``; dense rows, numpy's included,
    are normalised with ``_row``.  The rows are fed shortest first: the
    order changes no divisor, and a dense row fed last is reduced against
    the sparse pivots instead of filling every later row."""
    if isinstance(next(iter(mat), None), dict):
        rows = list(map(dict, filter(None, mat)))
    else:
        rows = [v for r in mat if (v := _row(r, 0))]
    if not rows:
        return []
    span = SpanTracker(0)
    for row in sorted(rows, key=len):
        span.add(row)
    core = [row for row in span.core if row]
    if not core:
        return [1] * span.rank
    diag = _diagonal(core)
    chain = _invariant_factors(diag)
    return [1] * (span.rank + len(diag) - len(chain)) + list(chain)


def _diagonal(rows: list[dict[int, int]]) -> list[int]:
    """The absolute diagonal of a diagonal form of the clean rows, which
    it takes over, by unimodular row and column operations.  Each pivot
    is an entry of least absolute value, from a heap of the entries as
    they are written.  Row operations clear its column and then column
    operations, which touch the pivot row alone, clear its row, each by
    floor division.  A remainder is less than the pivot, so a lesser
    pivot comes next, until a pivot is alone in its row and column."""
    at: dict[int, set[int]] = defaultdict(set)  # column -> the rows with an entry there
    heap = []
    for i, row in enumerate(rows):
        for j, x in row.items():
            at[j].add(i)
            heap.append((abs(x), i, j))
    heapify(heap)
    diag = []
    while heap:
        a, i, j = heappop(heap)
        prow = rows[i]
        if abs(prow.get(j, 0)) != a:  # rewritten since, or its row is done
            continue
        for k in at[j] - {i} if len(at[j]) > 1 else ():
            row = rows[k]
            q = row[j] // prow[j]  # nonzero, as the pivot is least
            for c, x in prow.items():
                if y := row.get(c, 0) - q * x:
                    row[c] = y
                    at[c].add(k)
                    heappush(heap, (abs(y), k, c))
                else:
                    del row[c]
                    at[c].discard(k)
        if len(at[j]) == 1:  # the column is clear: the column operations touch prow alone
            for c in [c for c in prow if c != j]:
                if y := prow[c] % prow[j]:
                    prow[c] = y
                    heappush(heap, (abs(y), i, c))
                else:
                    del prow[c]
                    at[c].discard(i)
        if len(at[j]) > 1 or len(prow) > 1:  # remainders
            heappush(heap, (a, i, j))
        else:
            diag.append(a)
            prow.clear()
            del at[j]
    return diag


def _in_range(rows, n: int) -> bool:
    """Whether the least and greatest key of the nonempty rows are in range(n)."""
    rows = list(filter(None, rows))
    return not rows or (min(map(min, rows)) >= 0 and max(map(max, rows)) < n)


def _check_chain(psi1, psi2, dims: tuple[int, int, int]) -> None:
    """ValueError unless the sparse rows fit dims and psi1 @ psi2 = 0.  The
    product is formed one row at a time, up to the first nonzero row, and
    only when psi2 has an entry: a zero psi2 composes to zero."""
    n0, n1, n2 = dims
    if not (len(psi1) == n0 and len(psi2) == n1
            and _in_range(psi1, n1) and _in_range(psi2, n2)):
        raise ValueError("psi1 and psi2 are not composable with dims "
                         f"{dims}")
    if not any(psi2):
        return
    for row in psi1:
        acc: dict[int, int] = {}
        for k, x in row.items():
            for j, y in psi2[k].items():
                acc[j] = acc.get(j, 0) + x * y
        if any(acc.values()):
            raise ValueError("not a chain complex: psi1 @ psi2 != 0")


class IntegerChainComplex(namedtuple("IntegerChainComplex", "psi1 psi2 dims")):
    """0 -> Z^{n2} --psi2--> Z^{n1} --psi1--> Z^{n0} -> 0 with
    dims = (n0, n1, n2).  The differentials may be given as dense or
    sparse rows; the constructor normalises them once with ``_row``
    into sparse {column: entry} rows of Python ints, which it stores.
    ``_of_clean_rows`` takes rows that are clean already, as assembled,
    and keeps them as they are.  Either way a complex is checked once,
    when it is built: the rows must fit dims and psi1 @ psi2 must
    vanish, or ValueError is raised."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, psi1, psi2, dims: tuple[int, int, int]):
        return cls._of_clean_rows(*([_row(r, 0) for r in rows] for rows in (psi1, psi2)),
                                  dims)

    @classmethod
    def _of_clean_rows(cls, psi1, psi2, dims: tuple[int, int, int]) -> IntegerChainComplex:
        _check_chain(psi1, psi2, dims)
        return super().__new__(cls, psi1, psi2, dims)


def homology(chain: IntegerChainComplex) -> list[AbelianGroup]:
    """[H0, H1, H2] of the two-step integer chain complex, from the
    elementary divisors of both differentials (the complex checked
    itself when it was built)."""
    n0, n1, n2 = chain.dims
    div1, div2 = smith_normal_form(chain.psi1), smith_normal_form(chain.psi2)
    rank1, rank2 = len(div1), len(div2)
    h0 = AbelianGroup(n0 - rank1, tuple(d for d in div1 if d > 1))
    h1 = AbelianGroup((n1 - rank1) - rank2, tuple(d for d in div2 if d > 1))
    h2 = AbelianGroup(n2 - rank2)
    return [h0, h1, h2]


# --------------------------------------------------------------------------
# The Bredon complex of a reduced orbit complex


class BredonComplex(namedtuple("BredonComplex", "vertices edges faces terms1 terms2")):
    """The cells by dimension and the incidence terms (row cell, column
    cell, sign, embedding) the Bredon differentials are summed from, with
    cells as indices: terms1 (vertex, edge), terms2 (edge, face).  psi1
    and psi2 are dense copies of the rows of chain()."""

    __slots__ = ()

    @property
    def psi1(self) -> list[list[int]]:
        total = self.chain()
        return [[r.get(j, 0) for j in range(total.dims[1])] for r in total.psi1]

    @property
    def psi2(self) -> list[list[int]]:
        total = self.chain()
        return [[r.get(j, 0) for j in range(total.dims[2])] for r in total.psi2]

    def chain(self) -> IntegerChainComplex:
        """The total chain complex, assembled and checked on each call."""
        return _summed(self, {t: (n,) for t, n in RANKS.items()}.__getitem__,
                       lambda *key: (induction_matrix(*key),), 1)[0]


def _summed(bc: BredonComplex, widths, block, parts: int) -> list[IntegerChainComplex]:
    """The chain complexes, one per part, summed from bc's terms in one
    pass per differential: a cell spans widths(tag)[w] coordinates of
    part w, and an inclusion adds block(source, target, embedding)[w]."""
    n2 = [sum(widths(f.stabilizer)[w] for f in bc.faces) for w in range(parts)]
    return [IntegerChainComplex._of_clean_rows(psi1, psi2, (len(psi1), len(psi2), cols))
            for psi1, psi2, cols in zip(
                assemble(bc.terms1, bc.vertices, bc.edges, widths, block, parts),
                assemble(bc.terms2, bc.edges, bc.faces, widths, block, parts), n2)]


#: The stabilizers bredon_complex supports on cells of each dimension.
_SUPPORTED_TAGS = {0: SUPPORTED_VERTEX_TAGS, 1: SUPPORTED_EDGE_TAGS, 2: ("C1",)}


def bredon_complex(cx: OrbitComplex) -> BredonComplex:
    """The terms of the chain complex of representation rings, refusing a
    non-inclusion: those of edge_end_assignments, verbatim, with a face's
    block the induction from C1, the regular representation."""
    if cx.dimension > 2:
        raise ValueError("complex dimension must be <= 2")
    # the first unsupported cell by (dimension, id) is the one reported
    bad = min((c for c in cx.cells if c.stabilizer not in _SUPPORTED_TAGS[c.dim]),
              key=lambda c: (c.dim, c.id), default=None)
    if bad is not None:
        raise ValueError((f"unsupported vertex stabilizer {bad.stabilizer!r}",
                          f"edge stabilizer {bad.stabilizer!r} is not cyclic of order <= 3",
                          "cells of dimension 2 must be trivially stabilized")[bad.dim])
    vertices, edges, _, terms1, _ = bc = BredonComplex(*edge_end_assignments(cx))
    # once per distinct inclusion, in the order of first use
    for key in dict.fromkeys((edges[j].stabilizer, vertices[i].stabilizer, emb)
                             for i, j, _, emb in terms1):
        check_inclusion(*key)
    return bc


SplitBlocks = namedtuple("SplitBlocks", "trivial two three")


def _corners(source: str, target: str, emb: int) -> list[list[list[int]]]:
    """The corners of the split block on the rows and columns of each part
    in BLOCK_PARTS; BlockSplitError at its first entry, in row order, that
    links two parts."""
    mat = transformed_induction(source, target, emb)
    rparts, cparts = BLOCK_PARTS[target], BLOCK_PARTS[source]
    rpart, cpart = ({k: w for w, idx in enumerate(parts) for k in idx}
                    for parts in (rparts, cparts))
    for r, row in enumerate(mat):
        for c, x in enumerate(row):
            if x and rpart[r] != cpart[c]:
                raise BlockSplitError(
                    f"off-block entry {x} at ({r}, {c}) of the split block "
                    f"of {source!r} in {target!r} (embedding {emb})")
    return [[[mat[r][c] for c in cols] for r in rows] for rows, cols in zip(rparts, cparts)]


def split_blocks(bc: BredonComplex) -> SplitBlocks:
    """The Bredon differentials in the pinned splitting bases, split into
    the orbit-space block and the 2- and 3-torsion blocks.  The blocks
    are summed from the same terms as chain(), all three in one pass per
    differential, with each induction replaced by the corners of its
    split block on the rows and columns of each part in BLOCK_PARTS, so
    a cell spans its part w in block w.  Each split block read raises
    BlockSplitError at an entry that links two parts."""
    widths = {tag: tuple(map(len, parts)) for tag, parts in BLOCK_PARTS.items()}
    return SplitBlocks(*_summed(bc, widths.__getitem__, _corners, 3))


# --------------------------------------------------------------------------
# Closed-form homology, K-homology, orbifold dimensions


def bredon_homology_formula(census) -> dict[str, AbelianGroup]:
    """The displayed closed forms for the torsion blocks, from a
    series.SubgroupCensus: the 2-block has H0 = Z^z2 + (Z/2)^(d2/2),
    H1 = Z^o2; the 3-block has H0 = H1 = Z^(2 o3 + iota3)."""
    three = AbelianGroup(2 * census.o3 + census.iota3)
    return {
        "H0_2block": AbelianGroup(census.z2, (2,) * (census.d2 // 2)),
        "H1_2block": AbelianGroup(census.o2),
        "H0_3block": three,
        "H1_3block": three,
    }


def k_homology(census, h1_torsion: tuple[int, ...] = ()) -> dict[str, AbelianGroup]:
    """Equivariant K-homology in degrees 0 and 1 from a
    series.SubgroupCensus, whose beta1 and beta2 are the orbit space's
    Betti numbers, and the torsion coefficients of the orbit space's H1
    (the classifying space is assumed at most 2-dimensional, where the
    spectral sequence collapses)."""
    k0 = AbelianGroup(1 + census.beta2 + census.z2 + 2 * census.o3 + census.iota3,
                      (2,) * (census.d2 // 2))
    k1 = AbelianGroup(census.beta1 + census.o2 + 2 * census.o3 + census.iota3, h1_torsion)
    return {"K0": k0, "K1": k1}


def chen_ruan_dims(census, quotient_dims: list[int], complexified: bool) -> dict[int, int]:
    """Orbifold cohomology dimensions by degree: the quotient-space
    contribution, entry d of quotient_dims in degree d, plus the
    twisted-sector counts of a series.SubgroupCensus.

    Complexified: sectors add in degrees 2 and 3.  Real: each edge-type
    sector adds a point contribution (degree 0) and each circle-type
    sector a circle contribution (degrees 0 and 1)."""
    for d, v in enumerate(quotient_dims):
        if not _is_int(v) or v < 0:
            raise ValueError(f"quotient dimension {v!r} in degree {d} "
                             "is not a non-negative integer")
    dims = dict(enumerate(quotient_dims))
    circle3 = 2 * census.lambda6 - census.lambda6star
    if complexified:
        add = {2: census.lambda4 + circle3,
               3: census.o2 + circle3}
    else:
        add = {0: census.lambda4star + census.o2 + circle3,
               1: census.o2 + circle3}
    for d, extra in add.items():
        if extra:
            dims[d] = dims.get(d, 0) + extra
    return dims
