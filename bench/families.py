"""Generated inputs with answers known in closed form.

Every generator is a pure function of its size arguments and a
``random.Random``; the same seed gives the same inputs.  The random
stream only permutes cell labels (which changes the order in which the
reducer meets cells, not the amount of work) and draws the random
graphs, so instance sizes stay fixed per workload and timings stay
comparable across seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tsr.complexes import Incidence, OrbitCell, OrbitComplex


def _labels(prefix: str, n: int, rng: random.Random) -> list[str]:
    """n distinct zero-padded labels in seeded order."""
    nums = list(range(n))
    rng.shuffle(nums)
    return [f"{prefix}{k:05d}" for k in nums]


def _graph(vtags: list[str], edges: list[tuple[int, int, str]],
           rng: random.Random) -> OrbitComplex:
    """1-dimensional complex from vertex tags and (u, v, edge tag)
    triples; u == v makes a loop (one incidence of multiplicity 2)."""
    vid = _labels("v", len(vtags), rng)
    eid = _labels("e", len(edges), rng)
    cells = [OrbitCell(vid[k], 0, t) for k, t in enumerate(vtags)]
    cells += [OrbitCell(eid[k], 1, t) for k, (_, _, t) in enumerate(edges)]
    incs = []
    for k, (u, v, _) in enumerate(edges):
        if u == v:
            incs.append(Incidence(vid[u], eid[k], 2))
        else:
            incs += [Incidence(vid[u], eid[k]), Incidence(vid[v], eid[k])]
    return OrbitComplex(tuple(cells), tuple(incs))


# --------------------------------------------------------------------------
# Reduction families (prime 2 unless stated)


def d3_c2_path(n: int, rng: random.Random) -> OrbitComplex:
    """n + 1 D3 vertices joined in a line by n C2 edges."""
    return _graph(["D3"] * (n + 1), [(k, k + 1, "C2") for k in range(n)], rng)


def d3_c2_circle(n: int, rng: random.Random) -> OrbitComplex:
    """n D3 vertices joined in a cycle by n C2 edges (n >= 2)."""
    return _graph(["D3"] * n, [(k, (k + 1) % n, "C2") for k in range(n)], rng)


def d2_ended_path(n: int, rng: random.Random) -> OrbitComplex:
    """D2 - C2 - D3 - ... - D3 - C2 - D2 with n edges, the generalization
    of the bundled path_c2_d3_c2 fixture (n = 2)."""
    tags = ["D2"] + ["D3"] * (n - 1) + ["D2"]
    return _graph(tags, [(k, k + 1, "C2") for k in range(n)], rng)


def triangle_strip(n: int, face_tag: str, rng: random.Random) -> OrbitComplex:
    """A disc of n triangles in a row: vertices a_0..a_{n+1}, triangle k
    on a_k, a_{k+1}, a_{k+2}; vertices and edges carry C2."""
    vid = _labels("a", n + 2, rng)
    pairs = [(k, k + 1) for k in range(n + 1)] + [(k, k + 2) for k in range(n)]
    eid = _labels("b", len(pairs), rng)
    fid = _labels("t", n, rng)
    edge_of = {p: eid[k] for k, p in enumerate(pairs)}
    cells = [OrbitCell(v, 0, "C2") for v in vid]
    cells += [OrbitCell(e, 1, "C2") for e in eid]
    cells += [OrbitCell(f, 2, face_tag) for f in fid]
    incs = []
    for (u, v), e in edge_of.items():
        incs += [Incidence(vid[u], e), Incidence(vid[v], e)]
    for k in range(n):
        for p in ((k, k + 1), (k + 1, k + 2), (k, k + 2)):
            incs.append(Incidence(edge_of[p], fid[k]))
    return OrbitComplex(tuple(cells), tuple(incs))


#: Stabilizers of the timed random graphs per prime: (vertex tags, edge
#: tag).  D2 vertices stay out of them: with D2 vertices the reducer can
#: change the graph oracle's dimensions (the D2 embedding-rotation
#: defect, ROADMAP item 2), and a timed op must not fail.
RANDOM_TAGS = {2: (("C2", "D3"), "C2"), 3: (("C3", "D3"), "C3")}
#: The random graphs on which that defect is counted instead.
D2_RANDOM_TAGS = (("C2", "D2", "D3"), "C2")


def random_graph(ell: int, nv: int, extra: int, rng: random.Random,
                 stabilizers: tuple | None = None) -> OrbitComplex:
    """Connected random graph of groups on nv vertices: a random spanning
    tree plus ``extra`` random edges, which may be parallel edges or
    loops.  Sizes are arguments so a deck's mix of sizes is fixed;
    ``stabilizers`` overrides RANDOM_TAGS[ell]."""
    vtags, etag = stabilizers or RANDOM_TAGS[ell]
    tags = [rng.choice(vtags) for _ in range(nv)]
    edges = [(rng.randrange(k), k, etag) for k in range(1, nv)]
    for _ in range(extra):
        edges.append((rng.randrange(nv), rng.randrange(nv), etag))
    return _graph(tags, edges, rng)


def all_tags_cycle(ell: int) -> OrbitComplex:
    """A cycle through every vertex tag of the random graphs at ell: the
    warm-up input that meets every stabilizer pair they can contain."""
    vtags, etag = RANDOM_TAGS[ell]
    n = len(vtags)
    return _graph(list(vtags), [(k, (k + 1) % n, etag) for k in range(n)],
                  random.Random(0))


# --------------------------------------------------------------------------
# Fixpoint shapes of the reduction families


def shape(cx: OrbitComplex) -> tuple:
    """Sorted (dim, stabilizer, number of incidences as a face with their
    total multiplicity) per cell: enough to recognise the fixpoints."""
    return tuple(sorted(
        (c.dim, c.stabilizer, sum(i.multiplicity for i in cx.cofaces(c.id)))
        for c in cx.cells))


FIXPOINT_SHAPES = {
    "path": ((0, "D3", 0),),
    "circle": ((0, "D3", 2), (1, "C2", 0)),
    "d2path": ((0, "D2", 1), (0, "D2", 1), (1, "C2", 0)),
    "strip": ((0, "C2", 0),),
}


# --------------------------------------------------------------------------
# Bredon families and their homology, as (free rank, torsion) per degree


def graphfive_copies(k: int, rng: random.Random) -> OrbitComplex:
    """k disjoint theta graphs: two D2 vertices joined by three C2 edges.
    Edge labels are contiguous per copy, so the three edges at each
    vertex take the three involution classes, as in the fixture."""
    vid = _labels("u", 2 * k, rng)
    cells, incs = [], []
    for c in range(k):
        u, v = vid[2 * c], vid[2 * c + 1]
        cells += [OrbitCell(u, 0, "D2"), OrbitCell(v, 0, "D2")]
        for j in range(3):
            e = f"g{c:05d}{j}"
            cells.append(OrbitCell(e, 1, "C2"))
            incs += [Incidence(u, e), Incidence(v, e)]
    return OrbitComplex(tuple(cells), tuple(incs))


def bredon_expected(kind: str, n: int) -> dict[str, list[tuple[int, tuple]]]:
    """Closed-form Bredon homology [H0, H1, H2] of the total complex and
    of the orbit, 2-torsion and 3-torsion blocks."""
    zero = (0, ())
    if kind == "path":  # n edges
        return {"total": [(n + 3, ()), zero, zero],
                "orbit": [(1, ()), zero, zero],
                "two": [(1, ()), zero, zero],
                "three": [(n + 1, ()), zero, zero]}
    if kind == "strip":  # n triangles
        return {"total": [(2, ()), (n, ()), zero],
                "orbit": [(1, ()), zero, zero],
                "two": [(1, ()), (n, ()), zero],
                "three": [zero, zero, zero]}
    if kind == "graphfive":  # n copies
        return {"total": [(4 * n, (2,) * n), (2 * n, ()), zero],
                "orbit": [(n, ()), (2 * n, ()), zero],
                "two": [(3 * n, (2,) * n), zero, zero],
                "three": [zero, zero, zero]}
    raise ValueError(kind)


# --------------------------------------------------------------------------
# Census and graph-oracle families


def random_census(rng: random.Random) -> dict:
    """The acceptance-criterion-5 census generator with wider ranges."""
    o2, i2, th, rh, o3, i3 = (rng.randrange(40) for _ in range(6))
    return dict(lambda4=o2 + i2 + 3 * th + 2 * rh,
                lambda4star=i2 + 3 * th + 2 * rh,
                mu2=2 * (i2 + th + rh), muT=2 * i2 + rh,
                lambda6=o3 + i3, lambda6star=i3, mu3=2 * i3)


def _expand(num: list[int], den: list[int], n: int) -> list[Fraction]:
    """Power-series coefficients of num/den up to degree n."""
    out: list[Fraction] = []
    for k in range(n + 1):
        acc = Fraction(num[k] if k < len(num) else 0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc / den[0])
    return out


def component_coefficients(n: int) -> dict[str, list[Fraction]]:
    """Coefficients 0..n of the four component series, from their closed
    forms: Circle 2, Edge3 the period (2, 1, 0, 1), D2star q - 1/2 (all
    from degree 3), and A4star expanded from
    -t^3 (t^3 - 2t^2 + 2t - 3) / (2 (t - 1)^2 (t^2 + t + 1))."""
    low = [Fraction(0)] * 3
    qs = range(3, n + 1)
    return {
        "Circle": low + [Fraction(2)] * len(qs),
        "Edge3": low + [Fraction((2, 1, 0, 1)[(q - 3) % 4]) for q in qs],
        "D2star": low + [q - Fraction(1, 2) for q in qs],
        "A4star": _expand([0, 0, 0, 3, -2, 2, -1], [2, -2, 0, -2, 2], n),
    }


def poincare_expected(census: dict, comps: dict[str, list[Fraction]],
                      ell: int) -> list[Fraction]:
    """Census-weighted combination of the component coefficients."""
    if ell == 2:
        weights = {"Circle": census["lambda4"]
                   - Fraction(3 * census["mu2"] - 2 * census["muT"], 2),
                   "D2star": census["mu2"] - census["muT"],
                   "A4star": census["muT"]}
    else:
        weights = {"Circle": census["lambda6"] - Fraction(census["mu3"], 2),
                   "Edge3": Fraction(census["mu3"], 2)}
    n = len(comps["Circle"])
    return [sum(w * comps[k][q] for k, w in weights.items()) for q in range(n)]


def circle2_copies(k: int, rng: random.Random) -> OrbitComplex:
    """k disjoint copies of bianchi_circle2: a C2 vertex with a C2 loop."""
    return _graph(["C2"] * k, [(j, j, "C2") for j in range(k)], rng)


def edge3_copies(k: int, rng: random.Random) -> OrbitComplex:
    """k disjoint copies of bianchi_edge3: D3 - C3 - D3."""
    return _graph(["D3"] * (2 * k), [(2 * j, 2 * j + 1, "C3") for j in range(k)], rng)


def oracle_expected(kind: str, k: int, q: int) -> int:
    """Equivariant cohomology dimension in degree q >= 3 of the oracle
    families, from the pinned stabilizer table."""
    if kind == "path":
        return 1
    if kind == "circle2":
        return 2 * k
    if kind == "edge3":
        return k * (2, 1, 0, 1)[(q - 3) % 4]
    raise ValueError(kind)
