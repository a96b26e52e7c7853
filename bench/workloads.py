"""The in-process workloads: decks of operations and their checks.

A workload yields decks: seeded lists of operations with a fixed mix.
A run times their ops one at a time from one client (a closed loop)
and checks every answer outside the timer.  Library calls
go through module attributes (``R.reduce_complex``, not a from-import)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

import random

import families as F
from op import Op
from tsr import bredon as B, complexes as C, groups as G, reduction as R, series as S


def _ag(groups) -> list[tuple[int, tuple]]:
    return [(h.free_rank, tuple(h.torsion)) for h in groups]


class ReduceFamilies:
    """reduce_complex, then replay, then a comparison of the serialized
    results: the steps `tsr reduce` runs, in process."""

    name = "reduce-families"
    tail_pct = 95
    SIZES = {"path": (16, 32, 48, 64, 96, 128), "circle": (16, 32, 48, 64, 96, 128),
             "d2path": (16, 32, 48, 64, 96, 128), "strip": (8, 16, 24, 32, 40, 48)}
    #: Random graphs per deck: (vertices, extra edges) -> count, per prime.
    RANDOM_SIZES = {(6, 2): 12, (9, 3): 12, (12, 4): 12, (15, 5): 12}
    ORACLE_DEGREES = range(3, 11)

    def __init__(self, seed: int):
        self.seed = seed

    def _make(self, kind: str, n: int, rng):
        if kind == "path":
            return F.d3_c2_path(n, rng)
        if kind == "circle":
            return F.d3_c2_circle(n, rng)
        if kind == "d2path":
            return F.d2_ended_path(n, rng)
        return F.triangle_strip(n, "C2", rng)

    def _op(self, label, kind, cx, ell) -> Op:
        def run():
            reduced, log = R.reduce_complex(cx, ell)
            replayed = R.replay(cx, log, ell)
            return reduced, C.serialize_complex(replayed) == C.serialize_complex(reduced)

        def check(result):
            reduced, same = result
            if not same:
                return "replay diverged from the fixpoint"
            if R.reduce_complex(reduced, ell)[1].moves:
                return "output is not a fixpoint"
            if kind in F.FIXPOINT_SHAPES:
                if F.shape(reduced) != F.FIXPOINT_SHAPES[kind]:
                    return f"fixpoint shape {F.shape(reduced)}"
                return None
            before = S.equivariant_graph_cohomology_oracle(
                C.torsion_subcomplex(cx, ell), ell, self.ORACLE_DEGREES)
            after = S.equivariant_graph_cohomology_oracle(
                reduced, ell, self.ORACLE_DEGREES)
            if before != after:
                return f"oracle dims changed {before} -> {after}"
            return None

        return Op(label, run, check)

    def warmup(self) -> None:
        rng = random.Random(0)
        for kind, sizes in self.SIZES.items():
            self._op(kind, kind, self._make(kind, sizes[0], rng), 2).run()
        for ell in F.RANDOM_TAGS:
            self._op("random", "random", F.all_tags_cycle(ell), ell).run()

    def deck(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{self.name}:{k}")
        ops = [self._op(f"{kind}{n}", kind, self._make(kind, n, rng), 2)
               for kind, sizes in self.SIZES.items() for n in sizes]
        for ell in F.RANDOM_TAGS:
            for (nv, extra), count in self.RANDOM_SIZES.items():
                ops += [self._op(f"random-l{ell}-v{nv}", "random",
                                 F.random_graph(ell, nv, extra, rng), ell)
                        for _ in range(count)]
        rng.shuffle(ops)
        return ops


def oracle_mismatches(count: int = 200) -> int:
    """How many of ``count`` fixed random graphs over {C2, D2, D3} at
    prime 2 change their graph-oracle dimensions in degrees 3..10 under
    reduce_complex: the D2 embedding-rotation defect (ROADMAP item 2),
    which the timed random graphs leave out.  Zero once it is fixed."""
    rng = random.Random("d2-embedding-rotation")
    sizes = list(ReduceFamilies.RANDOM_SIZES)
    degrees = ReduceFamilies.ORACLE_DEGREES
    bad = 0
    for k in range(count):
        nv, extra = sizes[k % len(sizes)]
        cx = F.random_graph(2, nv, extra, rng, F.D2_RANDOM_TAGS)
        reduced = R.reduce_complex(cx, 2)[0]
        bad += (S.equivariant_graph_cohomology_oracle(C.torsion_subcomplex(cx, 2), 2, degrees)
                != S.equivariant_graph_cohomology_oracle(reduced, 2, degrees))
    return bad


class BredonFamilies:
    """bredon_complex, split_blocks, then homology of the total chain and
    of each block: what `tsr bredon` computes, in process."""

    name = "bredon-families"
    tail_pct = 90
    SIZES = {"path": (6, 8, 10, 12, 16, 20, 24, 32, 40, 48),
             "strip": (6, 8, 10, 12, 16, 20, 24, 32, 40, 48),
             "graphfive": (2, 3, 4, 5, 6, 8, 10, 12, 14, 16)}

    def __init__(self, seed: int):
        self.seed = seed

    def _make(self, kind, n, rng):
        if kind == "path":
            return F.d3_c2_path(n, rng)
        if kind == "strip":
            return F.triangle_strip(n, "C1", rng)
        return F.graphfive_copies(n, rng)

    def _op(self, kind, n, cx) -> Op:
        def run():
            bc = B.bredon_complex(cx)
            blocks = B.split_blocks(bc)
            return {"total": _ag(B.homology(bc.chain())),
                    "orbit": _ag(B.homology(blocks.trivial)),
                    "two": _ag(B.homology(blocks.two)),
                    "three": _ag(B.homology(blocks.three))}

        def check(got):
            want = F.bredon_expected(kind, n)
            if got != want:
                return f"homology {got} != closed form {want}"
            for d in range(3):
                blocks = sum((B.AbelianGroup(*got[b][d]) for b in ("orbit", "two", "three")),
                             B.AbelianGroup())
                if blocks != B.AbelianGroup(*got["total"][d]):
                    return f"H_{d} of the total is not the direct sum of the blocks"
            return None

        return Op(f"{kind}{n}", run, check)

    def warmup(self) -> None:
        rng = random.Random(0)
        for kind, sizes in self.SIZES.items():
            self._op(kind, sizes[0], self._make(kind, sizes[0], rng)).run()

    def deck(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{self.name}:{k}")
        ops = [self._op(kind, n, self._make(kind, n, rng))
               for kind, sizes in self.SIZES.items() for n in sizes]
        rng.shuffle(ops)
        return ops


#: Brute-force homology cases (group, prime, top degree) with
#: |G|^(q_max + 1) within tsr.groups.RESOURCE_BOUND, each with an
#: independent closed form: the pinned stabilizer table for catalog
#: groups, the dihedral formula (odd primes) for dihedral groups.
BRUTEFORCE_CASES = [
    ("C1", 2, 8), ("C2", 2, 15), ("C2", 3, 15), ("C3", 3, 9), ("C3", 2, 9),
    ("D2", 2, 7), ("D2", 3, 7), ("D3", 2, 5), ("D3", 3, 5),
    ("D3", 3, 5, "dihedral"), ("D4", 3, 4, "dihedral"), ("D5", 3, 4, "dihedral"),
    ("D5", 5, 4, "dihedral"), ("D6", 3, 3, "dihedral"), ("D7", 7, 3, "dihedral"),
    ("D7", 3, 3, "dihedral"),
]


class CensusOracles:
    """The F_p linear algebra and the exact Fraction series arithmetic:
    Poincare series of random censuses, the graph oracle over many
    degrees, and the brute-force group-homology oracle."""

    name = "census-oracles"
    tail_pct = 95
    DEGREE = 120
    ORACLE_DEGREES = range(3, 41)
    ORACLE_SIZES = {"path": (8, 16, 32, 64), "circle2": (4, 8, 16, 32),
                    "edge3": (4, 8, 16, 32)}
    CENSUSES_PER_DECK = 24

    def __init__(self, seed: int):
        self.seed = seed
        self.components = F.component_coefficients(self.DEGREE)

    def _census_op(self, census: dict) -> Op:
        def run():
            c = S.SubgroupCensus(**census).validate()
            return (S.poincare_2torsion(c).expand(self.DEGREE),
                    S.poincare_3torsion(c).expand(self.DEGREE))

        def check(result):
            for ell, coeffs in zip((2, 3), result):
                for q, c in enumerate(coeffs):
                    if c.denominator != 1 or c < 0 or (q < 3 and c):
                        return f"mod-{ell} coefficient {c} at degree {q}"
                if coeffs != F.poincare_expected(census, self.components, ell):
                    return f"mod-{ell} series differs from the component closed forms"
            return None

        return Op("census", run, check)

    def _oracle_op(self, kind: str, k: int, rng) -> Op:
        if kind == "path":
            cx, ell = F.d3_c2_path(k, rng), 2
        elif kind == "circle2":
            cx, ell = F.circle2_copies(k, rng), 2
        else:
            cx, ell = F.edge3_copies(k, rng), 3

        def check(dims):
            want = {q: F.oracle_expected(kind, k, q) for q in self.ORACLE_DEGREES}
            return None if dims == want else f"oracle dims {dims} != {want}"

        return Op(f"oracle-{kind}{k}", lambda: S.equivariant_graph_cohomology_oracle(
            cx, ell, self.ORACLE_DEGREES), check)

    def _bruteforce_op(self, case) -> Op:
        tag, ell, q_max = case[:3]
        if len(case) == 4:
            group = G.dihedral_group(int(tag[1:]))
            want = [G.dihedral_mod_ell_homology(int(tag[1:]), ell, q)
                    for q in range(q_max + 1)]
        else:
            group = G.catalog_group(tag)
            want = [S.stabilizer_cohomology_dim(tag, ell, q) for q in range(q_max + 1)]

        def check(dims):
            return None if dims == want else f"brute force {dims} != {want}"

        return Op(f"bruteforce-{tag}-l{ell}",
                  lambda: G.mod_ell_homology_bruteforce(group, ell, q_max), check)

    def warmup(self) -> None:
        rng = random.Random(0)
        for op in (self._census_op(F.random_census(rng)),
                   self._oracle_op("path", self.ORACLE_SIZES["path"][0], rng),
                   self._bruteforce_op(("D2", 2, 7))):
            op.run()

    def deck(self, k: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{self.name}:{k}")
        ops = [self._census_op(F.random_census(rng))
               for _ in range(self.CENSUSES_PER_DECK)]
        ops += [self._oracle_op(kind, n, rng)
                for kind, sizes in self.ORACLE_SIZES.items() for n in sizes]
        ops += [self._bruteforce_op(case) for case in BRUTEFORCE_CASES]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (ReduceFamilies, BredonFamilies, CensusOracles)}
