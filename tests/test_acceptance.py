"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  All tolerances are exact (integer or byte equality); nothing is
deferred to calibration.
"""

import functools
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

from tsr.bredon import (BLOCK_PARTS, bredon_complex, bredon_homology_formula,
                        chen_ruan_dims, homology, k_homology,
                        split_blocks, transformed_induction)
from tsr.complexes import INCLUSIONS, serialize_complex, torsion_subcomplex
from tsr.groups import (SPLITTING_BASES, check_block_diagonal, dihedral_group,
                        dihedral_mod_ell_homology, mod_ell_homology_bruteforce)
from tsr.reduction import apply_move, reduce_complex, replay
from tsr.series import (SubgroupCensus, canonical_series,
                        equivariant_graph_cohomology_oracle, poincare_2torsion,
                        poincare_3torsion, sl2_mod2_dims)

from documents import cells_of_dim, load, run_cli

EXPECTED = Path(__file__).parent / "expected"


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[acceptance] criterion {number} ({title}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({title}): PASS")
        return run
    return wrap


@criterion(1, "dihedral formula vs brute-force oracle")
def test_criterion_01():
    for n, ell in [(3, 3), (5, 3), (5, 5), (3, 5)]:
        g = dihedral_group(n)
        oracle = mod_ell_homology_bruteforce(g, ell, 4)
        formula = [dihedral_mod_ell_homology(n, ell, q) for q in range(5)]
        assert oracle == formula, (n, ell, oracle, formula)


@criterion(2, "reduction fixtures match pinned outputs byte-for-byte")
def test_criterion_02():
    # path: a single merge leaves one C2 edge
    path = load("path_c2_d3_c2.json")
    reduced, log = reduce_complex(path, 2)
    edges = cells_of_dim(reduced, 1)
    assert len(edges) == 1 and edges[0].stabilizer == "C2"
    assert [m.kind for m in log.moves] == ["merge"]
    # edge3 is already reduced
    edge3 = load("bianchi_edge3.json")
    reduced3, log3 = reduce_complex(edge3, 3)
    assert log3.moves == ()
    # the terminal branch of the SL3 graph is cut via clause (1)
    for name in ("sl3z_intermediate.json", "sl3z_soule.json"):
        _, logn = reduce_complex(load(name), 2)
        n_cuts = [m for m in logn.moves if m.sigma == "N" and m.kind == "cut"]
        assert len(n_cuts) == 1 and n_cuts[0].condition == "B'(1)", name
    # byte-for-byte against the pinned expected files
    for name, ell in [("path_c2_d3_c2", 2), ("bianchi_edge3", 3),
                      ("sl3z_intermediate", 2), ("sl3z_soule", 2),
                      ("chain_c2_c2_d3", 2)]:
        cx = load(name + ".json")
        red, lg = reduce_complex(cx, ell)
        assert serialize_complex(red) == \
            EXPECTED.joinpath(f"{name}.reduced.p{ell}.json").read_text(), name
        assert lg.to_jsonl() == \
            EXPECTED.joinpath(f"{name}.log.p{ell}.jsonl").read_text(), name


@criterion(3, "moves preserve equivariant cohomology dims (q = 3..10)")
def test_criterion_03():
    moved = 0
    for name, ell in [("path_c2_d3_c2.json", 2), ("chain_c2_c2_d3.json", 2),
                      ("bianchi_edge3.json", 3), ("bianchi_circle2.json", 2)]:
        state = torsion_subcomplex(load(name), ell)
        _, log = reduce_complex(state, ell)
        qs = range(3, 11)
        before = equivariant_graph_cohomology_oracle(state, ell, qs)
        for move in log.moves:
            state = apply_move(state, move, ell)
            after = equivariant_graph_cohomology_oracle(state, ell, qs)
            assert after == before, (name, move)
            before = after
            moved += 1
    assert moved >= 3  # the fixtures do exercise both move kinds


@criterion(4, "series identities and oracle cross-checks")
def test_criterion_04():
    circle = canonical_series("Circle").expand(20)
    assert all(circle[q] == 2 for q in range(3, 21))
    edge = canonical_series("Edge3").expand(20)
    assert all(edge[q] == [2, 1, 0, 1][(q - 3) % 4] for q in range(3, 21))
    d2s = canonical_series("D2star").expand(20)
    assert all(d2s[q] == q - Fraction(1, 2) for q in range(3, 21))
    circle_dims = equivariant_graph_cohomology_oracle(
        load("bianchi_circle2.json"), 2, range(3, 11))
    assert all(circle_dims[q] == circle[q] for q in range(3, 11))
    edge_dims = equivariant_graph_cohomology_oracle(
        load("bianchi_edge3.json"), 3, range(3, 11))
    assert all(edge_dims[q] == edge[q] for q in range(3, 11))


@criterion(5, "Poincare integrality for 200 random censuses")
def test_criterion_05():
    rng = random.Random(20260810)
    for _ in range(200):
        o2, i2, th, rh, o3, i3 = (rng.randrange(5) for _ in range(6))
        census = SubgroupCensus(
            lambda4=o2 + i2 + 3 * th + 2 * rh,
            lambda4star=i2 + 3 * th + 2 * rh,
            mu2=2 * (i2 + th + rh),
            muT=2 * i2 + rh,
            lambda6=o3 + i3,
            lambda6star=i3,
            mu3=2 * i3,
        ).validate()
        for series in (poincare_2torsion(census), poincare_3torsion(census)):
            coeffs = series.expand(20)
            for q, c in enumerate(coeffs):
                assert c.denominator == 1, (census, q, c)
                assert c >= 0, (census, q, c)
                if q < 3:
                    assert c == 0, (census, q, c)


@criterion(6, "splitting lemma blocks for all five inclusions")
def test_criterion_06():
    inclusions = [("C2", "D2"), ("C2", "D3"), ("C3", "D3"), ("C2", "A4"),
                  ("C3", "A4")]
    for src, tgt in inclusions:
        for tag in (src, tgt):
            det = round(np.linalg.det(np.array(SPLITTING_BASES[tag]).astype(float)))
            assert det in (1, -1), tag
        for emb in range(INCLUSIONS[src, tgt]):
            check_block_diagonal(transformed_induction(src, tgt, emb),
                                 BLOCK_PARTS[tgt], BLOCK_PARTS[src])


@criterion(7, "Bredon homology: SNF of split blocks vs closed forms")
def test_criterion_07():
    cases = {
        "bianchi_circle2": (2, SubgroupCensus(lambda4=1, z2=1)),
        "bianchi_edge3": (3, SubgroupCensus(lambda6=1, lambda6star=1, mu3=2)),
        "graphfive": (2, SubgroupCensus(lambda4=3, lambda4star=3, mu2=2,
                                        z2=3, d2=2)),
        "graphtwo": (2, SubgroupCensus(lambda4=2, lambda4star=2, mu2=2,
                                       muT=1, z2=2, d2=2)),
    }
    for name, (ell, census) in cases.items():
        blocks = split_blocks(bredon_complex(load(name + ".json")))
        chain = blocks.two if ell == 2 else blocks.three
        hs = homology(chain)
        formulas = bredon_homology_formula(census)
        key = "2block" if ell == 2 else "3block"
        assert hs[0] == formulas[f"H0_{key}"], name
        assert hs[1] == formulas[f"H1_{key}"], name
    # the off-prime block of a pure 2-torsion component vanishes
    blocks = split_blocks(bredon_complex(load("graphfive.json")))
    assert blocks.three.dims == (0, 0, 0)


@criterion(8, "K-homology and orbifold-dimension substitutions")
def test_criterion_08():
    res = k_homology(SubgroupCensus(z2=1, lambda4=1, lambda6=1, lambda6star=1, beta1=1))
    assert str(res["K0"]) == "Z^3" and str(res["K1"]) == "Z^3"
    res = k_homology(SubgroupCensus(z2=1, d2=2, mu2=2))
    assert str(res["K0"]) == "Z^2 ⊕ Z/2"
    dims = chen_ruan_dims(SubgroupCensus(lambda4=2, lambda4star=1, lambda6=1,
                                         lambda6star=1, mu2=2), [1], True)
    assert dims == {0: 1, 2: 3, 3: 2}


@criterion(9, "mod-2 dimension table of the edge-type special linear groups")
def test_criterion_09():
    values = [sl2_mod2_dims(1, 0, q) for q in range(1, 10)]
    assert values == [1, 2, 4, 3, 1, 2, 4, 3, 1]


@criterion(10, "CLI determinism and log replay")
def test_criterion_10():
    commands = [
        ["validate", "--input", "sl3z_soule.json"],
        ["extract", "--prime", "2", "--input", "sl3z_soule.json"],
        ["reduce", "--prime", "2", "--input", "sl3z_soule.json"],
        ["reduce", "--prime", "2", "--input", "path_c2_d3_c2.json", "--json"],
        ["poincare", "--prime", "3", "--census", '{"λ6":1,"μ3":2}',
         "--degrees", "12"],
        ["poincare", "--prime", "2", "--census", '{"lambda4":2}', "--json"],
        ["bredon", "--input", "graphtwo.json"],
        ["khomology", "--census", '{"z2":1,"lambda4":1,"beta1":1}'],
        ["chenruan", "--census", '{"lambda4":1}', "--real",
         "--quotient-dims", "[1]"],
        ["e2page", "--census", '{"beta1":1,"v":1}', "--chi-xs", "1"],
        ["oracle", "--prime", "2", "--input", "graphfive.json",
         "--degrees", "8"],
        ["classify", "--prime", "2", "--input", "graphfive.json"],
    ]
    for argv in commands:
        (code, out, err), again = run_cli(*argv), run_cli(*argv)
        assert code == 0, (argv, err)
        assert (code, out) == again[:2], argv
    # reduction logs replay to the same fixpoint
    for name, ell in [("sl3z_soule.json", 2), ("path_c2_d3_c2.json", 2)]:
        cx = load(name)
        reduced, log = reduce_complex(cx, ell)
        assert serialize_complex(replay(cx, log, ell)) == \
            serialize_complex(reduced)
