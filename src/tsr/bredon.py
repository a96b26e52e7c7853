"""Bredon chain complexes over complex representation rings.

The coefficient data is pinned as integers: for each catalog inclusion
of stabilizers, the induced map on representation rings and the same
map in unimodular splitting bases, where it is block diagonal: a rank-1
block, a 2-torsion block and a 3-torsion block.  The test suite rebuilds
every pinned block from the character tables, class fusions and
splitting bases in ``tsr.groups``, by Frobenius reciprocity.
The Bredon differentials are signed sums of these blocks over the
incidence terms of the complex, assembled as sparse rows that go
straight to the elimination; each block of the split is the same sum
of the split blocks' corners on its part, and ``split_blocks`` checks
every split block it reads for an entry that links two parts.  Dense
rows are made only for the Smith normal form of the elimination's core
and for the dense ``BredonComplex.psi1``/``psi2`` views.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
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


def _matmul(a, b) -> list[dict[int, int]]:
    """a @ b as sparse rows; a and b are lists of sparse rows."""
    out = []
    for r in a:
        acc: dict[int, int] = {}
        for k, x in r.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: x for j, x in acc.items() if x})
    return out


def _dense(rows: list[dict[int, int]], width: int) -> list[list[int]]:
    """Sparse rows with columns in range(width) as dense rows."""
    return [[r.get(j, 0) for j in range(width)] for r in rows]


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


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """(U, D, V) with U, V unimodular, D = U @ mat @ V diagonal with a
    divisibility chain, each as a list of rows.  Exact integer arithmetic
    throughout; the reference the sparse elimination is tested against."""
    a = [[int(x) for x in row] for row in mat]
    rows = len(a)
    cols = len(a[0]) if a else 0
    if any(len(row) != cols for row in a):
        raise ValueError("expected a matrix")
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def axpy(x, q, y):  # the row x + q * y
        return [s + q * t for s, t in zip(x, y)]

    k = 0
    while k < min(rows, cols):
        # locate a pivot of least magnitude, the first in row-major order
        nonzero = [(abs(a[i][j]), i, j) for i in range(k, rows)
                   for j in range(k, cols) if a[i][j]]
        if not nonzero:
            break
        _, bi, bj = min(nonzero)
        a[k], a[bi] = a[bi], a[k]
        u[k], u[bi] = u[bi], u[k]
        for m in (a, v):
            for row in m:
                row[k], row[bj] = row[bj], row[k]
        piv = a[k][k]
        dirty = False
        for i in range(k + 1, rows):
            q = a[i][k] // piv
            if q:
                a[i] = axpy(a[i], -q, a[k])
                u[i] = axpy(u[i], -q, u[k])
            dirty = dirty or a[i][k] != 0
        for j in range(k + 1, cols):
            q = a[k][j] // piv
            if q:
                for m in (a, v):
                    for row in m:
                        row[j] -= q * row[k]
            dirty = dirty or a[k][j] != 0
        if dirty:
            continue
        # enforce divisibility of the remaining block
        offender = next((i for i in range(k + 1, rows)
                         if any(a[i][j] % piv for j in range(k + 1, cols))), None)
        if offender is not None:
            a[k] = axpy(a[k], 1, a[offender])
            u[k] = axpy(u[k], 1, u[offender])
            continue
        if piv < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
        k += 1
    return u, a, v


def elementary_divisors(mat) -> list[int]:
    """The nonzero elementary divisors of a matrix given as a list of
    dense or dict rows, in divisibility order: one 1 per unit pivot of
    the sparse elimination, then those of the core it leaves.  When the
    core's entries share a factor g > 1, its divisors are g times those
    of the core divided by g, so the elimination runs again on the
    quotient and its pivots count g each; this repeats on whatever core
    is left.  Only a core of content 1 with no unit entry goes to the
    Smith normal form."""
    return _divisors([_row(r, 0) for r in mat])


def _divisors(rows: list[dict[int, int]]) -> list[int]:
    """elementary_divisors of clean rows, which the elimination takes over."""
    out, scale = [], 1
    while rows:
        span = SpanTracker(0)
        for row in rows:
            span._add(row)
        out += [scale] * span.rank
        rows = [row for row in span.core if row]
        g = gcd(*(x for row in rows for x in row.values()))
        if g > 1:
            scale *= g
            rows = [{j: x // g for j, x in row.items()} for row in rows]
        elif rows and not any(x in (1, -1) for row in rows for x in row.values()):
            cols = sorted({j for row in rows for j in row})
            _, d, _ = smith_normal_form([[row.get(j, 0) for j in cols] for row in rows])
            return out + [scale * d[i][i] for i in range(min(len(d), len(cols))) if d[i][i]]
    return out


class IntegerChainComplex(namedtuple("IntegerChainComplex", "psi1 psi2 dims")):
    """0 -> Z^{n2} --psi2--> Z^{n1} --psi1--> Z^{n0} -> 0 with
    dims = (n0, n1, n2).  The differentials may be given as dense or
    sparse rows; they are stored as sparse {column: entry} rows, and a
    complex is checked once, when it is built: the rows must fit dims
    and psi1 @ psi2 must vanish, or ValueError is raised."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, psi1, psi2, dims: tuple[int, int, int]):
        psi1, psi2 = ([_row(r, 0) for r in rows] for rows in (psi1, psi2))
        n0, n1, n2 = dims
        if (len(psi1) != n0 or len(psi2) != n1
                or any(not 0 <= j < n1 for row in psi1 for j in row)
                or any(not 0 <= j < n2 for row in psi2 for j in row)):
            raise ValueError("psi1 and psi2 are not composable with dims "
                             f"{dims}")
        if any(_matmul(psi1, psi2)):
            raise ValueError("not a chain complex: psi1 @ psi2 != 0")
        return super().__new__(cls, psi1, psi2, dims)


def homology(chain: IntegerChainComplex) -> list[AbelianGroup]:
    """[H0, H1, H2] of the two-step integer chain complex, from the
    elementary divisors of both differentials (the complex checked
    itself when it was built)."""
    n0, n1, n2 = chain.dims
    # the stored rows are clean; the elimination edits its own copies
    div1, div2 = (_divisors([dict(r) for r in rows]) for rows in (chain.psi1, chain.psi2))
    rank1, rank2 = len(div1), len(div2)
    h0 = AbelianGroup(n0 - rank1, tuple(d for d in div1 if d > 1))
    h1 = AbelianGroup((n1 - rank1) - rank2, tuple(d for d in div2 if d > 1))
    h2 = AbelianGroup(n2 - rank2)
    return [h0, h1, h2]


# --------------------------------------------------------------------------
# The Bredon complex of a reduced orbit complex


class BredonComplex(namedtuple("BredonComplex", "vertices edges faces total terms1 terms2")):
    """The cells by dimension, the total chain complex (vertices x edges,
    edges x faces), and the incidence terms (row cell, column cell, sign,
    embedding) its differentials are summed from, with cells as indices:
    terms1 (vertex, edge), terms2 (edge, face).  psi1 and psi2 are dense
    copies of the total's rows."""

    __slots__ = ()

    @property
    def psi1(self) -> list[list[int]]:
        return _dense(self.total.psi1, self.total.dims[1])

    @property
    def psi2(self) -> list[list[int]]:
        return _dense(self.total.psi2, self.total.dims[2])

    def chain(self) -> IntegerChainComplex:
        return self.total


def _oriented_boundary_walk(face_id: str, uses: list[int],
                            ends: tuple) -> list[tuple[int, int]]:
    """Sign a 2-cell boundary, given as one edge index per use, by a
    depth-first walk from its least vertex: the top vertex takes its first
    unused use, and a vertex with none left is popped.  Each use is signed
    by the direction in which the walk first takes it, compared with the
    edge's intrinsic direction (second end slot -> first end slot); returns
    (edge index, sign) per use, in the order of uses.  Edge j's end slots
    are ends[2j] and ends[2j + 1], as edge_end_assignments orders them."""
    # each use is an undirected connection (tail, head) between end vertices
    joins = [(ends[2 * j + 1][0], ends[2 * j][0]) for j in uses]
    adj: dict[int, list[int]] = {}
    for k, (tail, head) in enumerate(joins):
        adj.setdefault(tail, []).append(k)
        adj.setdefault(head, []).append(k)
    if any(len(v) % 2 for v in adj.values()):
        raise ValueError(f"boundary of {face_id!r} is not a closed walk")
    signs = [0] * len(uses)  # 0 until the walk takes the use
    st: list[int] = [min(adj)] if adj else []
    while st:
        v = st[-1]
        found = next((k for k in adj[v] if not signs[k]), None)
        if found is None:
            st.pop()
        else:
            tail, head = joins[found]
            signs[found] = 1 if v == tail else -1
            st.append(head if v == tail else tail)
    if not all(signs):
        raise ValueError(f"boundary of {face_id!r} is not connected")
    return list(zip(uses, signs))


#: The stabilizers bredon_complex supports on cells of each dimension.
_SUPPORTED_TAGS = {0: SUPPORTED_VERTEX_TAGS, 1: SUPPORTED_EDGE_TAGS, 2: ("C1",)}


def bredon_complex(cx: OrbitComplex) -> BredonComplex:
    """Block differential matrices of the chain complex of representation
    rings: psi1 from the edge-to-vertex inductions over the edge end
    terms of edge_end_assignments, taken verbatim, and psi2 from oriented
    2-cell boundaries through the regular representation."""
    if cx.dimension > 2:
        raise ValueError("complex dimension must be <= 2")
    # the first unsupported cell by (dimension, id) is the one reported
    bad = min((c for c in cx.cells if c.stabilizer not in _SUPPORTED_TAGS[c.dim]),
              key=lambda c: (c.dim, c.id), default=None)
    if bad is not None:
        raise ValueError((f"unsupported vertex stabilizer {bad.stabilizer!r}",
                          f"edge stabilizer {bad.stabilizer!r} is not cyclic of order <= 3",
                          "cells of dimension 2 must be trivially stabilized")[bad.dim])
    vertices, edges, terms1 = edge_end_assignments(cx)
    faces = tuple(sorted(cx.cells_of_dim(2), key=lambda c: c.id))
    eindex = {e.id: j for j, e in enumerate(edges)}
    # a face's block is the induction from C1: the regular representation
    terms2 = tuple((k, j, sign, 0) for j, f in enumerate(faces)
                   for k, sign in _oriented_boundary_walk(f.id, [
                       eindex[inc.face] for inc in cx.faces(f.id)
                       for _ in range(inc.multiplicity)], terms1))
    psi1 = assemble(terms1, vertices, edges, RANKS.__getitem__, induction_matrix)
    psi2 = assemble(terms2, edges, faces, RANKS.__getitem__, induction_matrix)
    total = IntegerChainComplex(psi1, psi2, (len(psi1), len(psi2), len(faces)))
    return BredonComplex(vertices, edges, faces, total, terms1, terms2)


SplitBlocks = namedtuple("SplitBlocks", "trivial two three")


def split_blocks(bc: BredonComplex) -> SplitBlocks:
    """The Bredon differentials in the pinned splitting bases, split into
    the orbit-space block and the 2- and 3-torsion blocks.  Block w is
    summed from the same terms as bredon_complex, with each induction
    replaced by the corner of its split block on the rows and columns of
    part w in BLOCK_PARTS, so a cell spans its part w.  Each split block
    read raises BlockSplitError at an entry that links two parts."""

    def block(w: int) -> IntegerChainComplex:
        def width(tag):
            return len(BLOCK_PARTS[tag][w])

        def corner(source, target, emb):
            mat = transformed_induction(source, target, emb)
            rows, cols = BLOCK_PARTS[target][w], BLOCK_PARTS[source][w]
            for r, row in enumerate(mat):
                for c, x in enumerate(row):
                    if x and (r in rows) != (c in cols):
                        raise BlockSplitError(
                            f"off-block entry {x} at ({r}, {c}) of the split block "
                            f"of {source!r} in {target!r} (embedding {emb})")
            return [[mat[r][c] for c in cols] for r in rows]

        psi1 = assemble(bc.terms1, bc.vertices, bc.edges, width, corner)
        psi2 = assemble(bc.terms2, bc.edges, bc.faces, width, corner)
        return IntegerChainComplex(psi1, psi2, (len(psi1), len(psi2), sum(
            width(f.stabilizer) for f in bc.faces)))

    return SplitBlocks(*map(block, range(3)))


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
