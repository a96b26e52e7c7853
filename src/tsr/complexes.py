"""Orbit-level data model for polytopal cell complexes with stabilizer tags.

A complex stores one record per orbit of cells, labelled by the
isomorphism type of its stabilizer, plus face/coface incidences with
multiplicities (the number of orbit representatives of the face in the
coface's boundary).  Everything downstream (reduction, Bredon chains,
the graph cohomology oracle) reads only this quotient data, and assumes
what the paper's suitable cell complexes are: rigid, each stabilizer
fixing its cell pointwise.  A document states it with ``"rigid": true``,
and ``parse_complex`` refuses any other value.

``parse_complex`` checks the shape of a document and of each record, and
the ``OrbitComplex`` constructor every field, parsed or built by hand.
``edge_end_assignments`` is the one reading of a complex as cellular
chains; outside this module only the reducer reads a complex's index.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter

_int = int.__repr__  # as json.dumps prints an int, whatever its subclass

#: A high surrogate before a low one: JSON reads the pair back as one
#: astral character, so an id holding it cannot be written faithfully.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")

#: Catalog tags and their group orders.  D2 is the Klein four-group.
TAG_ORDERS = {
    "C1": 1, "C2": 2, "C3": 3, "C4": 4, "C6": 6,
    "D2": 4, "D3": 6, "D4": 8, "D6": 12, "A4": 12, "S4": 24,
}

#: The tag of G/O_ell'(G), the quotient of each catalog group G by its
#: largest normal subgroup of order prime to ell.  Clause B'(1) holds
#: exactly when these agree, and on the catalog the other two clauses
#: never hold without it: 64 passing (sigma, tau, ell), 21 at ell = 2 and
#: 43 at ell = 3.  Every catalog order is 2^a 3^b, so at a prime ell >= 5
#: every quotient is C1.
_ELL_QUOTIENT = {
    2: {"C1": "C1", "C2": "C2", "C3": "C1", "C4": "C4", "C6": "C2", "D2": "D2",
        "D3": "C2", "D4": "D4", "D6": "D2", "A4": "A4", "S4": "S4"},
    3: {"C1": "C1", "C2": "C1", "C3": "C3", "C4": "C1", "C6": "C3", "D2": "C1",
        "D3": "D3", "D4": "C1", "D6": "D3", "A4": "C3", "S4": "D3"},
}


#: The stabilizer inclusions that the Bredon complex and the cohomology
#: oracle read: (subgroup tag, group tag) -> the number of conjugacy
#: classes of that subgroup, more than one only for C2 in D2 (its three
#: involutions).  A pair that is missing is no inclusion.
INCLUSIONS = {
    ("C1", "C1"): 1, ("C1", "C2"): 1, ("C1", "C3"): 1, ("C1", "D2"): 1, ("C1", "D3"): 1,
    ("C1", "A4"): 1, ("C2", "C2"): 1, ("C3", "C3"): 1, ("D2", "D2"): 1, ("D3", "D3"): 1,
    ("C2", "D2"): 3, ("C2", "D3"): 1, ("C3", "D3"): 1, ("C2", "A4"): 1, ("C3", "A4"): 1,
}


def check_inclusion(subgroup: str, group: str, embedding: int) -> None:
    """The one refusal of a non-inclusion, which the Bredon blocks and the
    oracle's restriction blocks share: ValueError when the pair is not in
    INCLUSIONS or the embedding index is outside its conjugacy classes."""
    classes = INCLUSIONS.get((subgroup, group), 0)
    if embedding not in range(classes):
        pair = f"{subgroup!r} in {group!r}"
        raise ValueError(f"unsupported inclusion {pair} (embedding {embedding})" if classes
                         else f"unsupported inclusion {pair}")


class ComplexSchemaError(ValueError):
    """Raised on malformed complex documents; the message leads with its path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)


OrbitCell = namedtuple("OrbitCell", "id dim stabilizer self_identified", defaults=(False,))
Incidence = namedtuple("Incidence", "face coface multiplicity", defaults=(1,))


# Connected component types of reduced torsion subcomplex quotients.
COMPONENT_POINT = "Point"
COMPONENT_CIRCLE = "Circle"
COMPONENT_EDGE = "Edge"
COMPONENT_GRAPH_FIVE = "GraphFive"
COMPONENT_GRAPH_TWO = "GraphTwo"
COMPONENT_OTHER = "Other"
#: A one-edge component's shape by its edge's incidence multiplicities
#: (a loop, or two distinct ends), a multi-edge one's by its sorted
#: non-cyclic vertex tags; any other shape is Other.
_SEGMENTS = {(2,): COMPONENT_CIRCLE, (1, 1): COMPONENT_EDGE}
_GRAPHS = {("D2", "D2"): COMPONENT_GRAPH_FIVE, ("A4", "D2"): COMPONENT_GRAPH_TWO}


class OrbitComplex:
    """Cell and incidence records and their index: cells by id, each
    cell's faces in incidence order, its cofaces keyed by coface id, and
    the records in order.  The constructor checks every record field,
    parsed or built by hand, cells first; _derived indexes records derived
    from checked ones without a check.  cell(), faces() and cofaces() read the
    index, the last two into new lists.  The reducer edits a complex it
    derived through _add and _drop, then _settle sets its records.  Two
    complexes are equal when their records are."""

    __slots__ = ("cells", "incidences", "_cells", "_faces", "_cofaces", "_records")

    def __init__(self, cells: tuple[OrbitCell, ...], incidences: tuple[Incidence, ...]):
        for k, c in enumerate(cells):
            if not (isinstance(c.id, str) and c.id):
                problem = "id must be a string"
            elif not isinstance(c.self_identified, bool):
                problem = "self_identified must be a boolean"
            elif not (_is_int(c.dim) and c.dim >= 0):
                problem = "dim must be a non-negative integer"
            elif not (isinstance(c.stabilizer, str) and c.stabilizer in TAG_ORDERS):
                problem = f"stabilizer must be one of {sorted(TAG_ORDERS)}"
            else:
                continue
            raise ComplexSchemaError(problem, f"$.cells[{k}]")
        if _SURROGATE_PAIR.search("\n".join([c.id for c in cells])):
            k = next(k for k, c in enumerate(cells) if _SURROGATE_PAIR.search(c.id))
            raise ComplexSchemaError("id must not hold a surrogate pair", f"$.cells[{k}]")
        for k, inc in enumerate(incidences):
            if not isinstance(inc.face, str):
                problem = "face must be a string"
            elif not isinstance(inc.coface, str):
                problem = "coface must be a string"
            elif not (_is_int(inc.multiplicity) and inc.multiplicity >= 1):
                problem = "multiplicity must be a positive integer"
            else:
                continue
            raise ComplexSchemaError(problem, f"$.incidences[{k}]")
        self._link(cells, incidences)
        if len(self._cells) != len(cells):
            raise ComplexSchemaError("duplicate cell ids")
        if len({(i.face, i.coface) for i in incidences}) != len(incidences):
            raise ComplexSchemaError(
                "duplicate incidence records (use multiplicity instead)")
        for inc in incidences:
            face, coface = self._cells.get(inc.face), self._cells.get(inc.coface)
            if face is None:
                raise ComplexSchemaError(f"unknown face {inc.face!r}")
            if coface is None:
                raise ComplexSchemaError(f"unknown coface {inc.coface!r}")
            if coface.dim != face.dim + 1:
                raise ComplexSchemaError(
                    f"incidence {inc.face!r} -> {inc.coface!r} must raise dimension by 1")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cells, self.incidences) == (other.cells, other.incidences)

    def __hash__(self):
        return hash((self.cells, self.incidences))

    def __repr__(self):
        return f"OrbitComplex(cells={self.cells!r}, incidences={self.incidences!r})"

    @classmethod
    def _derived(cls, cells, incidences) -> OrbitComplex:
        """A complex over records derived from checked ones, indexed unchecked."""
        return object.__new__(cls)._link(tuple(cells), tuple(incidences))

    def _link(self, cells, incidences) -> OrbitComplex:
        """Set the records and build their index."""
        self.cells, self.incidences = cells, incidences
        self._cells, self._faces, self._cofaces, self._records = {}, {}, {}, []
        self._add(cells, incidences)
        return self

    def _add(self, cells, incidences) -> None:
        """Link new cells and incidences in, unchecked."""
        self._cells.update((c.id, c) for c in cells)
        for inc in incidences:
            self._faces.setdefault(inc.coface, []).append(inc)
            self._cofaces.setdefault(inc.face, {})[inc.coface] = inc
        self._records.extend(incidences)

    def _drop(self, cell_id: str) -> None:
        """Unlink a cell with every incidence it takes part in."""
        del self._cells[cell_id]
        for inc in self._faces.pop(cell_id, ()):
            del self._cofaces[inc.face][cell_id]
        for inc in self._cofaces.pop(cell_id, {}).values():
            self._faces[inc.coface].remove(inc)

    def _settle(self) -> OrbitComplex:
        """Set the records to the cells and incidences left, in record order."""
        live = {id(i) for incs in self._faces.values() for i in incs}
        self.cells = tuple(self._cells.values())
        self.incidences = tuple(i for i in self._records if id(i) in live)
        return self

    def cell(self, cell_id: str) -> OrbitCell:
        return self._cells[cell_id]

    @property
    def dimension(self) -> int:
        return max((c.dim for c in self.cells), default=-1)

    def cofaces(self, cell_id: str) -> list[Incidence]:
        return list(self._cofaces.get(cell_id, {}).values())

    def faces(self, cell_id: str) -> list[Incidence]:
        return list(self._faces.get(cell_id, ()))


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)  # JSON true is no integer


def _check_prime(ell: int) -> None:
    if ell < 2 or any(ell % d == 0 for d in range(2, int(ell ** 0.5) + 1)):
        raise ValueError(f"{ell} is not prime")


def _unique_keys(pairs) -> dict:
    """The object_pairs_hook of every JSON document and option: an object,
    or ComplexSchemaError naming the first key given a second time."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ComplexSchemaError(f"key {key!r} appears twice")
            seen.add(key)
    return obj


def parse_complex(text: str) -> OrbitComplex:
    """Parse the JSON document format; schema errors carry a field path.
    Messages and paths are formatted only for a check that fails."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ComplexSchemaError(f"invalid JSON (line {exc.lineno}): {exc.msg}")
    except RecursionError:
        raise ComplexSchemaError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ComplexSchemaError("document must be an object", "$")
    if extra := doc.keys() - {"rigid", "cells", "incidences"}:
        raise ComplexSchemaError(f"unknown keys {sorted(extra)}", "$")
    if doc.get("rigid") is not True:
        raise ComplexSchemaError("rigid must be true", "$.rigid")
    for key in ("cells", "incidences"):
        if not isinstance(doc.get(key), list):
            raise ComplexSchemaError(f"{key} must be a list", f"$.{key}")
    for kind, record in (("cell", OrbitCell), ("incidence", Incidence)):
        for k, raw in enumerate(doc[kind + "s"]):
            if not isinstance(raw, dict):
                raise ComplexSchemaError(f"{kind} must be an object", f"$.{kind}s[{k}]")
            if extra := raw.keys() - record._fields:
                raise ComplexSchemaError(f"unknown keys {sorted(extra)}", f"$.{kind}s[{k}]")
    return OrbitComplex(
        tuple(OrbitCell(r.get("id"), r.get("dim"), r.get("stabilizer"), r.get("self_identified"))
              for r in doc["cells"]),
        tuple(Incidence(r.get("face"), r.get("coface"), r.get("multiplicity", 1))
              for r in doc["incidences"]))


def serialize_complex(cx: OrbitComplex, *, sort_keys: bool = False) -> str:
    """Canonical serialization, byte-stable across runs: one object with
    the keys rigid (always true), cells and incidences, in that order;
    cells sorted by (dim, id), each with the keys id, dim, stabilizer,
    self_identified; incidences sorted by (face, coface), each with the
    keys face, coface, multiplicity.  Two-space indent, one key or list
    item per line, an empty list as [], strings with ASCII-only JSON
    escapes, a newline at the end.  These are the bytes of
    json.dumps(doc, indent=2, sort_keys=sort_keys) + "\\n", the tests'
    reference, written by a template: the C escaper of json.dumps quotes
    every string.  Under sort_keys every object lists its keys sorted."""
    cells = sorted(cx.cells, key=attrgetter("dim", "id"))
    incidences = sorted(cx.incidences, key=attrgetter("face", "coface"))
    if sort_keys:
        cells = ",\n".join(
            f'    {{\n      "dim": {_int(c.dim)},\n      "id": {_quote(c.id)},\n'
            f'      "self_identified": {"true" if c.self_identified else "false"},\n'
            f'      "stabilizer": {_quote(c.stabilizer)}\n    }}' for c in cells)
        incidences = ",\n".join(
            f'    {{\n      "coface": {_quote(i.coface)},\n      "face": {_quote(i.face)},\n'
            f'      "multiplicity": {_int(i.multiplicity)}\n    }}' for i in incidences)
        return (f'{{\n  "cells": {_listed(cells)},\n  "incidences": {_listed(incidences)},\n'
                f'  "rigid": true\n}}\n')
    cells = ",\n".join(
        f'    {{\n      "id": {_quote(c.id)},\n      "dim": {_int(c.dim)},\n'
        f'      "stabilizer": {_quote(c.stabilizer)},\n'
        f'      "self_identified": {"true" if c.self_identified else "false"}\n    }}'
        for c in cells)
    incidences = ",\n".join(
        f'    {{\n      "face": {_quote(i.face)},\n      "coface": {_quote(i.coface)},\n'
        f'      "multiplicity": {_int(i.multiplicity)}\n    }}'
        for i in incidences)
    return (f'{{\n  "rigid": true,\n  "cells": {_listed(cells)},\n'
            f'  "incidences": {_listed(incidences)}\n}}\n')


def _listed(items: str) -> str:
    return f"[\n{items}\n  ]" if items else "[]"


def torsion_subcomplex(cx: OrbitComplex, ell: int) -> OrbitComplex:
    """Cells whose stabilizer order is divisible by ell (equivalently, by
    Cauchy's theorem, whose stabilizer contains an element of order ell),
    with incidences restricted accordingly."""
    _check_prime(ell)
    keep = {c.id for c in cx.cells if TAG_ORDERS[c.stabilizer] % ell == 0}
    return OrbitComplex._derived([c for c in cx.cells if c.id in keep], [
        i for i in cx.incidences if i.face in keep and i.coface in keep])


def edge_end_assignments(cx: OrbitComplex) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The one reading of a complex as cellular chains: (vertices, edges,
    faces, ends, boundaries), the 0-, 1- and 2-cells, each sorted by id,
    one term (vertex index, edge index, sign, embedding index) per end
    slot, edge by edge, and one term (edge index, face index, sign, 0)
    per boundary use, face by face, signed by _oriented_boundary_walk.
    An edge's two slots are taken in (vertex id, slot) order; the first
    carries sign +1 and the second sign -1.  A multiplicity-2 incidence
    (a loop) contributes both slots on one vertex.  Embedding indices
    enumerate the ends at each vertex, grouped by edge tag and ordered by
    (edge id, slot), and rotate through the conjugacy classes counted in
    INCLUSIONS (a pair outside it gets 0, for its consumer to refuse).
    ValueError names the first edge without exactly two end slots, else
    the first face whose boundary is no closed connected walk."""
    vertices, edges, faces, pairs = [], [], [], {}
    for c in cx.cells:  # in record order, so the first bad edge is named
        if c.dim == 0:
            vertices.append(c)
        elif c.dim == 1:
            # positive multiplicities summing to 2: one loop incidence or two ends
            incs = cx._faces.get(c.id, ())
            if len(incs) == 1 and incs[0].multiplicity == 2:
                pairs[c.id] = (incs[0].face,) * 2
            elif len(incs) == 2 and incs[0].multiplicity == incs[1].multiplicity == 1:
                pairs[c.id] = sorted((incs[0].face, incs[1].face))
            else:
                raise ValueError(f"edge {c.id!r} must have exactly two end slots")
            edges.append(c)
        elif c.dim == 2:
            faces.append(c)
    for cells in (vertices, edges, faces):
        cells.sort(key=attrgetter("id"))
    index = {v.id: i for i, v in enumerate(vertices)}
    counters: dict[tuple[int, str], int] = {}  # ends so far per (vertex, edge tag)
    ends = []
    for j, e in enumerate(edges):
        for face, sign in zip(pairs[e.id], (1, -1)):
            i = index[face]
            classes = INCLUSIONS.get((e.stabilizer, vertices[i].stabilizer), 1)
            n = 0
            if classes > 1:  # counted only where the ends rotate
                n = counters.get((i, e.stabilizer), 0)
                counters[i, e.stabilizer] = n + 1
            ends.append((i, j, sign, n % classes))
    ends, boundaries = tuple(ends), ()
    if faces:
        eindex = {e.id: j for j, e in enumerate(edges)}
        boundaries = tuple((k, j, sign, 0) for j, f in enumerate(faces)
                           for k, sign in _oriented_boundary_walk(f.id, [
                               use for inc in cx._faces.get(f.id, ())
                               for use in [eindex[inc.face]] * inc.multiplicity], ends))
    return tuple(vertices), tuple(edges), tuple(faces), ends, boundaries


def _oriented_boundary_walk(face_id: str, uses: list[int],
                            ends: tuple) -> list[tuple[int, int]]:
    """Sign a 2-cell boundary, given as one edge index per use, by a
    depth-first walk from its least vertex: the top vertex takes its first
    unused use, and a vertex with none left is popped.  A use, once taken,
    stays taken, so each vertex keeps a cursor into its uses that only
    moves forward, and the walk is linear in the uses.  Each use is signed
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
    cursor = dict.fromkeys(adj, 0)
    st: list[int] = [min(adj)] if adj else []
    while st:
        v = st[-1]
        at, n = adj[v], cursor[v]
        while n < len(at) and signs[at[n]]:
            n += 1
        cursor[v] = n
        if n == len(at):
            st.pop()
        else:
            tail, head = joins[at[n]]
            signs[at[n]] = 1 if v == tail else -1
            st.append(head if v == tail else tail)
    if not all(signs):
        raise ValueError(f"boundary of {face_id!r} is not connected")
    return list(zip(uses, signs))


def classify_components(cx: OrbitComplex) -> list[tuple[str, str]]:
    """The connected components of a reduced torsion subcomplex, one row
    each: its least cell id and its shape, sorted by least id.  The
    components are the union-find's groups of cells over the incidences;
    no complex is built for one.

    Point: a lone vertex; Circle: a single loop edge; Edge: a single
    segment with distinct endpoints; GraphFive / GraphTwo: multi-edge
    1-dimensional components whose non-cyclic vertex stabilizers follow
    the (D2, D2) resp. (D2, A4) endpoint pattern; anything else, a
    2-dimensional component among them, is Other.
    """
    parent = {c.id: c.id for c in cx.cells}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for inc in cx.incidences:
        a, b = find(inc.face), find(inc.coface)
        if a != b:
            parent[a] = b
    groups: dict[str, list[OrbitCell]] = {}
    for c in cx.cells:
        groups.setdefault(find(c.id), []).append(c)
    rows = []
    for cells in groups.values():
        dim = max(c.dim for c in cells)
        edges = [c for c in cells if c.dim == 1]
        if dim != 1:  # no incidence joins two vertices, so dim 0 is a lone one
            shape = COMPONENT_POINT if dim == 0 else COMPONENT_OTHER
        elif len(edges) == 1:  # its other cells are the faces of its one edge
            ends = tuple(i.multiplicity for i in cx._faces.get(edges[0].id, ()))
            shape = _SEGMENTS.get(ends, COMPONENT_OTHER)
        else:
            noncyclic = sorted(c.stabilizer for c in cells if c.dim == 0
                               and c.stabilizer in ("D2", "D3", "A4", "D4", "D6", "S4"))
            shape = _GRAPHS.get(tuple(noncyclic), COMPONENT_OTHER)
        rows.append((min(c.id for c in cells), shape))
    rows.sort()
    return rows
