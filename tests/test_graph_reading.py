"""The cellular reading and its 2-cell boundary walk against the
straightforward versions they replaced, kept here as references:
``edge_end_assignments`` read each edge's incidences twice, through two
list copies, and the walk rescanned a vertex's uses at every step."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.bredon import bredon_complex
from tsr.complexes import (INCLUSIONS, Incidence, OrbitCell, OrbitComplex,
                           _oriented_boundary_walk, edge_end_assignments)

from documents import cells_of_dim


def reference_edge_end_assignments(cx):
    for e in cx.cells:  # in record order, so the first bad edge is named
        if e.dim == 1 and sum(i.multiplicity for i in cx.faces(e.id)) != 2:
            raise ValueError(f"edge {e.id!r} must have exactly two end slots")
    vertices = tuple(sorted(cells_of_dim(cx, 0), key=lambda c: c.id))
    edges = tuple(sorted(cells_of_dim(cx, 1), key=lambda c: c.id))
    index = {v.id: i for i, v in enumerate(vertices)}
    counters = {}  # ends so far per (vertex, edge tag)
    ends = []
    for j, e in enumerate(edges):
        slots = [index[inc.face] for inc in sorted(cx.faces(e.id), key=lambda i: i.face)
                 for _ in range(inc.multiplicity)]
        for i, sign in zip(slots, (1, -1)):
            n = counters.get((i, e.stabilizer), 0)
            counters[i, e.stabilizer] = n + 1
            classes = INCLUSIONS.get((e.stabilizer, vertices[i].stabilizer), 1)
            ends.append((i, j, sign, n % classes))
    return vertices, edges, tuple(ends)


def reference_walk(face_id, uses, ends):
    joins = [(ends[2 * j + 1][0], ends[2 * j][0]) for j in uses]
    adj = {}
    for k, (tail, head) in enumerate(joins):
        adj.setdefault(tail, []).append(k)
        adj.setdefault(head, []).append(k)
    if any(len(v) % 2 for v in adj.values()):
        raise ValueError(f"boundary of {face_id!r} is not a closed walk")
    signs = [0] * len(uses)
    st_ = [min(adj)] if adj else []
    while st_:
        v = st_[-1]
        found = next((k for k in adj[v] if not signs[k]), None)
        if found is None:
            st_.pop()
        else:
            tail, head = joins[found]
            signs[found] = 1 if v == tail else -1
            st_.append(head if v == tail else tail)
    if not all(signs):
        raise ValueError(f"boundary of {face_id!r} is not connected")
    return list(zip(uses, signs))


def reference_reading(cx):
    """The five parts of edge_end_assignments: the graph-of-groups reading,
    then each face's boundary walked over its uses expanded one at a time."""
    vertices, edges, ends = reference_edge_end_assignments(cx)
    faces = tuple(sorted(cells_of_dim(cx, 2), key=lambda c: c.id))
    eindex = {e.id: j for j, e in enumerate(edges)}
    boundaries = []
    for j, f in enumerate(faces):
        uses = [eindex[inc.face] for inc in cx.faces(f.id) for _ in range(inc.multiplicity)]
        boundaries += [(k, j, sign, 0) for k, sign in reference_walk(f.id, uses, ends)]
    return vertices, edges, faces, ends, tuple(boundaries)


def outcome(fn, *args):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


#: ids that sort differently from their record order, non-ASCII among them
IDS = st.text("aZ0_é字\U0001d538", min_size=1, max_size=3)


@st.composite
def graphs_with_faces(draw):
    """A complex of dimension <= 2 with its cells in a drawn record order:
    vertices of the Bredon tags (D2 among them, whose C2 ends rotate
    through three embeddings), edges that are loops, segments or (rarely)
    without two end slots, and C1 faces that use edges several times,
    with every use doubled on some so that their boundaries are closed."""
    sizes = [draw(st.integers(1, 4)), draw(st.integers(0, 6)), draw(st.integers(0, 3))]
    ids = iter(draw(st.lists(IDS, unique=True, min_size=sum(sizes), max_size=sum(sizes))))
    vertices, edges, faces = ([next(ids) for _ in range(n)] for n in sizes)
    vtags = st.sampled_from(("C1", "C2", "C3", "D2", "D2", "D2", "D3", "A4"))
    cells = [OrbitCell(v, 0, draw(vtags)) for v in vertices]
    cells += [OrbitCell(e, 1, draw(st.sampled_from(("C1", "C2", "C2", "C2", "C3"))))
              for e in edges]
    cells += [OrbitCell(f, 2, "C1") for f in faces]
    incidences = []
    vertex = st.sampled_from(vertices)
    for e in edges:
        kind = draw(st.sampled_from(("loop", "loop", "segment", "segment", "segment",
                                     "segment", "segment", "segment", "segment", "bad")))
        if kind == "loop":
            incidences.append(Incidence(draw(vertex), e, 2))
        elif kind == "segment" and len(vertices) > 1:
            a, b = draw(st.lists(vertex, unique=True, min_size=2, max_size=2))
            incidences += [Incidence(a, e), Incidence(b, e)]
        else:  # one, three or no end slots, or a loop and one more end
            ends = draw(st.lists(vertex, unique=True, max_size=2))
            mults = draw(st.lists(st.integers(1, 3), min_size=len(ends), max_size=len(ends)))
            if sum(mults) != 2:
                incidences += [Incidence(v, e, m) for v, m in zip(ends, mults)]
    for f in faces:
        used = draw(st.lists(st.sampled_from(edges), unique=True, max_size=4)) if edges else []
        double = draw(st.booleans())
        incidences += [Incidence(e, f, draw(st.integers(1, 3)) * (1 + double)) for e in used]
    cells = draw(st.permutations(cells))
    return OrbitComplex(tuple(cells), tuple(draw(st.permutations(incidences))))


@settings(max_examples=400, deadline=None)
@given(graphs_with_faces())
def test_edge_end_assignments_matches_the_reference(cx):
    assert outcome(edge_end_assignments, cx) == outcome(reference_reading, cx)


@settings(max_examples=400, deadline=None)
@given(graphs_with_faces())
def test_bredon_complex_walks_as_the_reference(cx):
    # the reference reading, or its first refusal; a refused inclusion only
    # where the reading and its walks succeed (every drawn tag is supported)
    got, want = outcome(bredon_complex, cx), outcome(reference_reading, cx)
    if isinstance(want, str) or not isinstance(got, str):
        assert got == want
    else:
        assert got.startswith("ValueError: unsupported inclusion")


@st.composite
def walks(draw):
    """Edges as (tail, head) on a few vertices, loops among them, and a
    list of uses that may repeat an edge, leave a vertex of odd degree
    or fall into two pieces."""
    vertex = st.integers(0, 4)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    ends = tuple(end for j, (tail, head) in enumerate(pairs)
                 for end in ((head, j, 1, 0), (tail, j, -1, 0)))
    uses = draw(st.lists(st.integers(0, len(pairs) - 1), max_size=10))
    if draw(st.booleans()):
        uses += draw(st.permutations(uses))
    return uses, ends


@settings(max_examples=600, deadline=None)
@given(walks())
def test_boundary_walk_matches_the_reference(uses_and_ends):
    uses, ends = uses_and_ends
    assert (outcome(_oriented_boundary_walk, "f", uses, ends)
            == outcome(reference_walk, "f", uses, ends))


@pytest.mark.parametrize("m", [1, 2, 7])
def test_wound_loop_walks_each_use_forward(m):
    # one C1 face winding a C1 loop m times: every use is taken from the
    # vertex it leaves, so each is signed +1 and psi_2 is the entry m
    cx = OrbitComplex((OrbitCell("v", 0, "C1"), OrbitCell("e", 1, "C1"), OrbitCell("f", 2, "C1")),
                      (Incidence("v", "e", 2), Incidence("e", "f", m)))
    assert bredon_complex(cx).terms2 == ((0, 0, 1, 0),) * m
    assert bredon_complex(cx).chain().psi2 == [{0: m}]
