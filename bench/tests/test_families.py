"""Closed forms behind the benchmark's answer checks, at small sizes.

Run from the repository root:

    PYTHONPATH=src:bench python -m pytest -q bench/tests

A generator or closed form that drifted from the library would let a
fast wrong run be recorded; these tests pin each one to the library's
own answer on small instances.
"""

import random
from pathlib import Path

import pytest

import families as F
from tsr import bredon as B, complexes as C, reduction as R, series as S
from workloads import BRUTEFORCE_CASES, CensusOracles, ReduceFamilies, oracle_mismatches

FIXTURES = Path(C.__file__).parent / "fixtures"


def homology_of(chain):
    return [(h.free_rank, tuple(h.torsion)) for h in B.homology(chain)]


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_path_bredon_closed_form(n):
    bc = B.bredon_complex(F.d3_c2_path(n, random.Random(n)))
    blocks = B.split_blocks(bc)
    want = F.bredon_expected("path", n)
    assert homology_of(bc.chain()) == want["total"]  # H0 = Z^{n+3}
    assert homology_of(blocks.trivial) == want["orbit"]
    assert homology_of(blocks.two) == want["two"]
    assert homology_of(blocks.three) == want["three"]


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_strip_bredon_closed_form(n):
    bc = B.bredon_complex(F.triangle_strip(n, "C1", random.Random(n)))
    blocks = B.split_blocks(bc)
    want = F.bredon_expected("strip", n)
    assert homology_of(bc.chain()) == want["total"] == [(2, ()), (n, ()), (0, ())]
    assert homology_of(blocks.trivial) == want["orbit"]
    assert homology_of(blocks.two) == want["two"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_graphfive_copies_bredon_closed_form(k):
    cx = F.graphfive_copies(k, random.Random(k))
    want = F.bredon_expected("graphfive", k)
    assert homology_of(B.bredon_complex(cx).chain()) == want["total"]
    assert want["total"][0] == (4 * k, (2,) * k)


def test_one_graphfive_copy_is_the_fixture():
    fixture = C.parse_complex((FIXTURES / "graphfive.json").read_text())
    ours = F.graphfive_copies(1, random.Random(0))
    assert (homology_of(B.bredon_complex(ours).chain())
            == homology_of(B.bredon_complex(fixture).chain()))


@pytest.mark.parametrize("kind", sorted(F.FIXPOINT_SHAPES))
@pytest.mark.parametrize("n", [2, 3, 6])
def test_reduction_fixpoint_shapes(kind, n):
    wl = ReduceFamilies(0)
    cx = wl._make(kind, n, random.Random(n))
    reduced, log = R.reduce_complex(cx, 2)
    assert F.shape(reduced) == F.FIXPOINT_SHAPES[kind]
    assert log.moves and not R.reduce_complex(reduced, 2)[1].moves


def test_d2_ended_path_generalizes_the_fixture():
    fixture = C.parse_complex((FIXTURES / "path_c2_d3_c2.json").read_text())
    assert F.shape(R.reduce_complex(fixture, 2)[0]) == F.FIXPOINT_SHAPES["d2path"]


def test_defect_count_graphs_at_two_contain_d2_vertices():
    rng = random.Random(1)
    graphs = [F.random_graph(2, 9, 3, rng, F.D2_RANDOM_TAGS) for _ in range(50)]
    with_d2 = [g for g in graphs if any(c.stabilizer == "D2" and c.dim == 0
                                        for c in g.cells)]
    assert len(with_d2) >= 25
    assert all(c.stabilizer in ("C2", "D2", "D3") for g in graphs for c in g.cells)


def test_timed_random_graphs_keep_their_tags():
    rng = random.Random(1)
    for ell, (vtags, etag) in F.RANDOM_TAGS.items():
        for _ in range(20):
            g = F.random_graph(ell, 9, 3, rng)
            assert {c.stabilizer for c in g.cells if c.dim == 0} <= set(vtags)
            assert {c.stabilizer for c in g.cells if c.dim == 1} == {etag}


def test_oracle_mismatches_counts_within_its_sample():
    assert 0 <= oracle_mismatches(8) <= 8


def test_generators_are_seeded():
    a = [C.serialize_complex(F.random_graph(2, 9, 3, random.Random(7))) for _ in range(2)]
    assert a[0] == a[1]
    assert (C.serialize_complex(F.d3_c2_path(5, random.Random(1)))
            != C.serialize_complex(F.d3_c2_path(5, random.Random(2))))


def test_census_closed_forms_match_the_library():
    comps = F.component_coefficients(40)
    assert comps["A4star"] == S.canonical_series("A4star").expand(40)
    rng = random.Random(3)
    for _ in range(10):
        census = F.random_census(rng)
        c = S.SubgroupCensus(**census).validate()
        assert S.poincare_2torsion(c).expand(40) == F.poincare_expected(census, comps, 2)
        assert S.poincare_3torsion(c).expand(40) == F.poincare_expected(census, comps, 3)


@pytest.mark.parametrize("kind", ["path", "circle2", "edge3"])
def test_oracle_closed_forms(kind):
    wl = CensusOracles(0)
    op = wl._oracle_op(kind, 3, random.Random(0))
    assert op.check(op.run()) is None


@pytest.mark.parametrize("case", BRUTEFORCE_CASES)
def test_bruteforce_cases_within_bound(case):
    op = CensusOracles(0)._bruteforce_op(case)
    assert op.check(op.run()) is None


def test_every_reduce_deck_op_passes():
    wl = ReduceFamilies(5)
    wl.SIZES = {kind: sizes[:2] for kind, sizes in wl.SIZES.items()}
    reasons = [op.check(op.run()) for op in wl.deck(0)]
    assert reasons == [None] * len(reasons)
