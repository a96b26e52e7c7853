"""Tests for representation rings, splitting, SNF and Bredon homology."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsr.bredon
from tsr._modp import SpanTracker, assemble
from tsr.bredon import (BLOCK_PARTS, RANKS, SUPPORTED_EDGE_TAGS,
                        SUPPORTED_VERTEX_TAGS, AbelianGroup, BlockSplitError,
                        IntegerChainComplex, bredon_complex,
                        bredon_homology_formula, chen_ruan_dims,
                        homology,
                        induction_matrix, k_homology, smith_normal_form,
                        SplitBlocks, split_blocks, transformed_induction)
from tsr.cli import main
from tsr.complexes import INCLUSIONS as CLASSES
from tsr.complexes import (Incidence, OrbitCell, OrbitComplex, _oriented_boundary_walk,
                           parse_complex, serialize_complex, torsion_subcomplex)
from tsr.groups import (CHARACTER_TABLES, FUSIONS, SPLITTING_BASES,
                        check_block_diagonal, check_orthogonality,
                        induction_by_reciprocity)
from tsr.reduction import apply_move, reduce_complex
from tsr.series import SubgroupCensus, equivariant_graph_cohomology_oracle, restriction_block

from documents import (FIXTURES, book, circles, coprime, d3_c2_circle, d3_c2_path,
                       escaped_ids, graphfive_copies, star, strip, two_vertex_path,
                       wound_loop)
from documents import smith_normal_form as reference_snf

INCLUSIONS = [("C2", "D2"), ("C2", "D3"), ("C3", "D3"), ("C2", "A4"),
              ("C3", "A4")]

FIXTURE_CENSUS = {
    "bianchi_circle2": (2, SubgroupCensus(lambda4=1, z2=1)),
    "bianchi_edge3": (3, SubgroupCensus(lambda6=1, lambda6star=1, mu3=2)),
    "graphfive": (2, SubgroupCensus(lambda4=3, lambda4star=3, mu2=2, z2=3, d2=2)),
    "graphtwo": (2, SubgroupCensus(lambda4=2, lambda4star=2, mu2=2, muT=1,
                                   z2=2, d2=2)),
}


def load(name):
    return parse_complex(FIXTURES.joinpath(name + ".json").read_text())


def _order(tag):
    return sum(CHARACTER_TABLES[tag][0])


def _degrees(tag):  # the regular representation, in character coordinates
    return [chi[0][0] for chi in CHARACTER_TABLES[tag][1]]


# --------------------------------------------------------------------------
# Representation rings and induction


def test_rep_ring_ranks():
    for tag, rank in [("C1", 1), ("C2", 2), ("C3", 3), ("D2", 4),
                      ("D3", 3), ("A4", 4)]:
        assert RANKS[tag] == rank


def test_rep_ring_unsupported():
    assert "S4" not in RANKS
    with pytest.raises(ValueError, match="unsupported inclusion 'C1' in 'S4'"):
        induction_matrix("C1", "S4")


def test_pinned_blocks_match_character_tables():
    # the pinned blocks against Frobenius reciprocity on the verified
    # character tables; the split block T satisfies U_target M = T U_source
    # with unimodular U, so T = U_target M U_source^-1, with no inverse
    assert set(tsr.bredon._BLOCKS) == set(FUSIONS)
    for tag, (_, chars) in CHARACTER_TABLES.items():
        check_orthogonality(tag)
        assert RANKS[tag] == len(chars), tag
    for source, target, emb in FUSIONS:
        m = induction_by_reciprocity(source, target, emb)
        split = transformed_induction(source, target, emb)
        assert induction_matrix(source, target, emb) == m
        u_s, u_t = (np.array(SPLITTING_BASES[t], dtype=object) for t in (source, target))
        assert (u_t @ np.array(m, dtype=object)
                == np.array(split, dtype=object) @ u_s).all(), (source, target, emb)
        check_block_diagonal(split, BLOCK_PARTS[target], BLOCK_PARTS[source])


def test_identity_induction_is_identity():
    for tag in ("C1", "C2", "C3"):
        m = induction_matrix(tag, tag)
        assert np.array_equal(m, np.eye(RANKS[tag], dtype=np.int64))


def test_induction_degree_scaling():
    for src, tgt in INCLUSIONS:
        for emb in range(CLASSES[src, tgt]):
            block = induction_matrix(src, tgt, emb)
            index = _order(tgt) // _order(src)
            assert np.array_equal(np.array(_degrees(tgt)) @ np.array(block),
                                  index * np.array(_degrees(src)))


def test_induction_c3_to_d3():
    m = np.array(induction_matrix("C3", "D3"))
    # trivial induces trivial + sign; each nontrivial induces the 2-dim
    assert m[:, 0].tolist() == [1, 1, 0]
    assert m[:, 1].tolist() == [0, 0, 1]
    assert m[:, 2].tolist() == [0, 0, 1]


def test_induction_regular_goes_to_regular():
    for src, tgt in INCLUSIONS + [("C1", t) for t in
                                  ("C2", "C3", "D2", "D3", "A4")]:
        block = induction_matrix(src, tgt)
        assert np.array_equal(np.array(block) @ np.array(_degrees(src)),
                              np.array(_degrees(tgt)))


def test_embedding_tables_agree():
    # complexes.INCLUSIONS drives edge_end_assignments and
    # series.restriction_block; the pinned Bredon blocks hold one entry
    # per class of each inclusion of an edge stabilizer
    assert set(tsr.bredon._BLOCKS) == {
        (s, g, k) for (s, g), n in CLASSES.items() if s in SUPPORTED_EDGE_TAGS
        for k in range(n)}
    for q in range(1, 5):
        blocks = {tuple(map(tuple, restriction_block("D2", "C2", emb, 2, q)))
                  for emb in range(CLASSES["C2", "D2"])}
        assert len(blocks) == 3, q


def test_unsupported_inclusion():
    with pytest.raises(ValueError):
        induction_matrix("C3", "D2")


@pytest.mark.parametrize("lookup", [induction_matrix, transformed_induction])
@pytest.mark.parametrize("source,target,emb,message", [
    # rows of complexes.INCLUSIONS with no pinned block, as their
    # subgroup is no edge stabilizer; class 0 exists, so none is blamed
    ("D2", "D2", 0, "no pinned block for the inclusion 'D2' in 'D2'"),
    ("D3", "D3", 0, "no pinned block for the inclusion 'D3' in 'D3'"),
    ("D2", "D2", 1, "unsupported inclusion 'D2' in 'D2' (embedding 1)"),
    ("C2", "D2", 3, "unsupported inclusion 'C2' in 'D2' (embedding 3)"),
    ("C3", "D2", 0, "unsupported inclusion 'C3' in 'D2'"),
])
def test_block_refusals_name_what_is_missing(lookup, source, target, emb, message):
    with pytest.raises(ValueError) as exc:
        lookup(source, target, emb)
    assert str(exc.value) == message


def test_bredon_and_the_oracle_word_a_non_inclusion_alike():
    # D2 - C3 - D2: C3 is no subgroup of D2
    cx = _union([(["D2", "D2"], [(0, 1, "C3")], [])])
    messages = []
    for build in (bredon_complex,
                  lambda c: equivariant_graph_cohomology_oracle(c, 2, range(1, 3))):
        with pytest.raises(ValueError) as exc:
            build(cx)
        messages.append(str(exc.value))
    assert messages == ["unsupported inclusion 'C3' in 'D2'"] * 2


@pytest.mark.parametrize("source,target,emb", [
    ("C3", "D2", 0), ("D3", "C3", 0), ("A4", "C1", 0), ("C2", "D2", 3),
    ("C2", "D2", -1), ("C2", "C2", 1), ("C3", "D3", 2), ("D2", "D2", 1),
])
@pytest.mark.parametrize("q", [0, 2])
def test_blocks_and_restrictions_word_a_refusal_alike(source, target, emb, q):
    # a pair that is no inclusion, or a class index outside its classes,
    # is refused by complexes.check_inclusion for both lookups
    messages = []
    for lookup in (lambda: induction_matrix(source, target, emb),
                   lambda: restriction_block(target, source, emb, 2, q)):
        with pytest.raises(ValueError) as exc:
            lookup()
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"unsupported inclusion {source!r} in {target!r}")


# --------------------------------------------------------------------------
# Splitting bases (the reference in tsr.groups)


def test_splitting_bases_unimodular():
    for tag in ("C1", "C2", "C3", "D2", "D3", "A4"):
        u = np.array(SPLITTING_BASES[tag])
        assert round(np.linalg.det(u.astype(float))) in (1, -1), tag


def test_splitting_first_basis_vector_is_regular():
    # U maps the regular representation to the first split basis vector
    for tag in ("C2", "C3", "D2", "D3", "A4"):
        u = np.array(SPLITTING_BASES[tag])
        assert (u @ np.array(_degrees(tag))).tolist() == [1] + [0] * (len(u) - 1), tag


def test_all_inclusions_block_diagonal():
    for src, tgt in INCLUSIONS:
        for emb in range(CLASSES[src, tgt]):
            mat = transformed_induction(src, tgt, emb)
            check_block_diagonal(mat, BLOCK_PARTS[tgt], BLOCK_PARTS[src])


def test_block_check_catches_corruption():
    bad = np.array(transformed_induction("C3", "D3"))
    bad[1, 2] = 5  # 2-part row against a 3-part column
    with pytest.raises(AssertionError, match=r"off-block entry 5 at \(1, 2\)"):
        check_block_diagonal(bad, BLOCK_PARTS["D3"], BLOCK_PARTS["C3"])


def test_corrupted_splitting_basis_is_caught(monkeypatch, capsys):
    # a corrupted split C3 -> D3 block, the one the identity basis of D3
    # would give: the 2-part row has an entry in the rank-1 column
    induction = induction_matrix("C3", "D3")
    monkeypatch.setitem(tsr.bredon._BLOCKS, ("C3", "D3", 0),
                        (induction, ((1, 0, 0), (1, 0, 0), (0, 1, 1))))
    with pytest.raises(BlockSplitError, match="off-block entry 1"):
        split_blocks(bredon_complex(load("bianchi_edge3")))
    assert main(["bredon", "--input", str(FIXTURES / "bianchi_edge3.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal invariant failure: off-block entry")
    assert captured.err.count("\n") == 1


def test_off_block_entries_that_cancel_in_the_sum_are_caught(monkeypatch, capsys):
    # the C2 loop of bianchi_circle2 adds its split block at one end and
    # subtracts it at the other, so a corrupted entry cancels in the sum;
    # it is caught in the block itself
    induction = induction_matrix("C2", "C2")
    monkeypatch.setitem(tsr.bredon._BLOCKS, ("C2", "C2", 0), (induction, ((1, 1), (0, 1))))
    message = "off-block entry 1 at (0, 1) of the split block of 'C2' in 'C2' (embedding 0)"
    with pytest.raises(BlockSplitError) as exc:
        split_blocks(bredon_complex(load("bianchi_circle2")))
    assert str(exc.value) == message
    assert main(["bredon", "--input", str(FIXTURES / "bianchi_circle2.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"internal invariant failure: {message}"]


# --------------------------------------------------------------------------
# Smith normal form and abelian groups


def test_snf_identity():
    u, d, v = map(np.array, reference_snf(np.eye(3, dtype=int)))
    assert np.array_equal(d.astype(int), np.eye(3, dtype=int))


def test_snf_diagonal_example():
    m = [[2, 0], [0, 3]]
    u, d, v = map(np.array, reference_snf(m))
    assert [int(d[i, i]) for i in range(2)] == [1, 6]
    assert (u @ np.array(m, dtype=object) @ v == d).all()


def test_snf_zero_matrix():
    _, d, _ = map(np.array, reference_snf(np.zeros((2, 3), dtype=int)))
    assert not d.any()


def test_snf_refuses_ragged_rows():
    with pytest.raises(ValueError, match="expected a matrix"):
        reference_snf([[1, 2], [3]])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_snf_properties(rows, cols, data):
    m = [[data.draw(st.integers(-9, 9)) for _ in range(cols)]
         for _ in range(rows)]
    u, d, v = map(np.array, reference_snf(m))
    assert (u @ np.array(m, dtype=object) @ v == d).all()
    assert abs(round(np.linalg.det(u.astype(float)))) == 1
    assert abs(round(np.linalg.det(v.astype(float)))) == 1
    diag = [int(d[i, i]) for i in range(min(rows, cols))]
    for i in range(len(diag) - 1):
        if diag[i + 1]:
            assert diag[i] != 0 or diag[i + 1] == 0
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
    # off-diagonal must vanish
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i, j] == 0


def test_abelian_group_formatting():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(1)) == "Z"
    assert str(AbelianGroup(3, (2,))) == "Z^3 ⊕ Z/2"


def test_abelian_group_invariant_factors():
    assert AbelianGroup(0, (2, 3)).torsion == (6,)
    assert AbelianGroup(0, (2, 2)).torsion == (2, 2)
    assert AbelianGroup(0, (4, 6)).torsion == (2, 12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 2000), max_size=6)
       | st.lists(st.tuples(st.sampled_from((1, 2, 3, 4, 6, 12)), st.integers(1, 8)),
                  max_size=4).map(lambda runs: [e for e, k in runs for _ in range(k)]))
def test_invariant_factors_match_smith_normal_form(entries):
    # the torsion of Z/e1 + ... + Z/ek is the non-unit diagonal of the
    # Smith normal form of diag(e1, ..., ek); the second strategy draws
    # long runs of equal entries, which divide a suffix of the chain
    diag = [[e if i == j else 0 for j in range(len(entries))]
            for i, e in enumerate(entries)]
    _, d, _ = reference_snf(diag)
    want = tuple(d[i][i] for i in range(len(entries)) if d[i][i] > 1)
    assert AbelianGroup(0, tuple(entries)).torsion == want


def test_abelian_group_rejects_negative_free_rank():
    with pytest.raises(ValueError, match="free rank"):
        AbelianGroup(-3)


@pytest.mark.parametrize("torsion", [(0,), (-2,), (2, 0, 1)])
def test_abelian_group_rejects_nonpositive_torsion(torsion):
    with pytest.raises(ValueError, match="torsion"):
        AbelianGroup(0, torsion)


@pytest.mark.parametrize("args, message", [
    ((0, (2.5,)), "torsion coefficients must be integers, got [2.5]"),
    ((0, (2, True)), "torsion coefficients must be integers, got [2, True]"),
    ((1.5,), "free rank must be an integer, got 1.5"),
    ((True,), "free rank must be an integer, got True"),
])
def test_abelian_group_rejects_non_integers(args, message):
    # int() would read 2.5 as Z/2, and str() would print a rank 1.5 as Z^1.5
    with pytest.raises(ValueError) as err:
        AbelianGroup(*args)
    assert str(err.value) == message


def test_abelian_group_is_a_checked_value():
    group = AbelianGroup(1, (2,))
    assert repr(group) == "AbelianGroup(free_rank=1, torsion=(2,))"
    with pytest.raises(AttributeError):
        group.free_rank = 2
    # _replace builds through the constructor: normalised and checked
    assert group._replace(torsion=(4, 2)) == AbelianGroup(1, (2, 4))
    with pytest.raises(ValueError, match="free rank"):
        group._replace(free_rank=-1)


def test_homology_rejects_non_chain():
    psi1 = [{0: 1}, {1: 1}]
    psi2 = [{0: 1}, {}]
    with pytest.raises(ValueError, match="chain"):
        homology(IntegerChainComplex(psi1, psi2, (2, 2, 1)))


@pytest.mark.parametrize("psi1, psi2", [
    ([{0: 1}, {2: 1}], [{}, {}]),   # a psi1 column past n1
    ([{0: 1}, {-1: 1}], [{}, {}]),  # a negative psi1 column
    ([{0: 1}, {}], [{1: 1}, {}]),   # a psi2 column past n2
    ([{0: 1}, {}], [{-1: 1}, {}]),  # a negative psi2 column
    ([{0: 1}], [{}, {}]),           # one psi1 row short of n0
    ([{0: 1}, {}], [{}]),           # one psi2 row short of n1
])
def test_homology_rejects_rows_outside_dims(psi1, psi2):
    # the constructor refuses each case; the path of assembled rows, whose
    # columns are in range by construction, refuses a wrong row count alike
    builds = [IntegerChainComplex]
    if (len(psi1), len(psi2)) != (2, 2):
        builds.append(IntegerChainComplex._of_clean_rows)
    for build in builds:
        with pytest.raises(ValueError) as err:
            build(psi1, psi2, (2, 2, 1))
        assert str(err.value) == "psi1 and psi2 are not composable with dims (2, 2, 1)"


def test_chain_complex_checks_itself_when_built():
    # a product row that cancels to zero is no refusal, a later one is
    for psi1, psi2 in (([{0: 1}, {1: 1}], [{0: 1}, {}]),
                       ([{0: 1, 1: 1}, {1: 1}], [{0: 1}, {0: -1}])):
        for build in (IntegerChainComplex, IntegerChainComplex._of_clean_rows):
            with pytest.raises(ValueError) as err:
                build(psi1, psi2, (2, 2, 1))
            assert str(err.value) == "not a chain complex: psi1 @ psi2 != 0"
    chain = IntegerChainComplex([[1, 0], [0, 1]], [[0], [0]], (2, 2, 1))
    assert chain == IntegerChainComplex([{0: 1}, {1: 1}], [{}, {}], (2, 2, 1))
    with pytest.raises(ValueError, match="not a chain complex"):
        chain._replace(psi2=[{0: 1}, {}])


@pytest.mark.parametrize("psi1, psi2, dims, want", [
    ([[2]], [[]], (1, 1, 0), ["Z/2", "0", "0"]),
    ([[1]], [[0]], (1, 1, 1), ["0", "0", "Z"]),
])
def test_homology_reads_dense_rows(psi1, psi2, dims, want):
    # a dense row's entries are entries, not column indices
    assert [str(h) for h in homology(IntegerChainComplex(psi1, psi2, dims))] == want


def test_outside_dict_rows_become_python_ints():
    # dict rows from outside are normalised by the complex: int64 entries
    # would wrap at 3**60 in the elimination
    big, one = np.int64(3 ** 30), np.int64(1)
    rows = [{0: big, 1: one}, {0: one, 1: big}]
    assert homology(IntegerChainComplex(rows, [{}, {}], (2, 2, 0)))[0] == \
        AbelianGroup(0, (3 ** 60 - 1,))


def test_homology_of_trivial_complex():
    chain = IntegerChainComplex(np.zeros((0, 0), dtype=int),
                                np.zeros((0, 0), dtype=int), (0, 0, 0))
    assert all(h == AbelianGroup() for h in homology(chain))


# --------------------------------------------------------------------------
# Bredon complexes of the fixtures


def test_single_vertex_complex():
    cx = OrbitComplex((OrbitCell("v", 0, "D3"),), ())
    bc = bredon_complex(cx)
    hs = homology(bc.chain())
    assert str(hs[0]) == "Z^3"
    assert hs[1] == hs[2] == AbelianGroup()


def test_edge3_psi1_shape_and_signs():
    psi1 = np.array(bredon_complex(load("bianchi_edge3")).psi1)
    assert psi1.shape == (6, 3)
    block = np.array(induction_matrix("C3", "D3"))
    assert np.array_equal(psi1[:3], block)
    assert np.array_equal(psi1[3:], -block)


def test_circle_psi1_vanishes():
    bc = bredon_complex(load("bianchi_circle2"))
    assert not np.array(bc.psi1).any()


def test_bredon_complex_validation():
    with pytest.raises(ValueError, match="vertex stabilizer"):
        bredon_complex(OrbitComplex((OrbitCell("v", 0, "S4"),), ()))
    with pytest.raises(ValueError, match="cyclic"):
        bredon_complex(OrbitComplex(
            (OrbitCell("v", 0, "A4"), OrbitCell("w", 0, "A4"),
             OrbitCell("e", 1, "D2")),
            (Incidence("v", "e"), Incidence("w", "e"))))
    # a non-rigid document is refused where it is parsed
    with pytest.raises(ValueError, match="rigid must be true"):
        bredon_complex(parse_complex('{"rigid": false, "cells": [{"id": "v", "dim": 0, '
                                     '"stabilizer": "C2", "self_identified": false}], '
                                     '"incidences": []}'))


def test_fixture_blocks_match_formula():
    for name, (ell, census) in FIXTURE_CENSUS.items():
        blocks = split_blocks(bredon_complex(load(name)))
        chain = blocks.two if ell == 2 else blocks.three
        hs = homology(chain)
        formulas = bredon_homology_formula(census)
        key = "2block" if ell == 2 else "3block"
        assert hs[0] == formulas[f"H0_{key}"], name
        assert hs[1] == formulas[f"H1_{key}"], name


def test_edge3_block3_rank_one():
    blocks = split_blocks(bredon_complex(load("bianchi_edge3")))
    assert smith_normal_form(blocks.three.psi1) == [1]


def test_splitting_theorem_direct_sum():
    for name in FIXTURE_CENSUS:
        bc = bredon_complex(load(name))
        blocks = split_blocks(bc)
        full = homology(bc.chain())
        parts = [homology(blocks.trivial), homology(blocks.two),
                 homology(blocks.three)]
        for i in range(3):
            assert full[i] == parts[0][i] + parts[1][i] + parts[2][i], name


def test_many_theta_components():
    # 64 graphfive copies: each θ component adds one Z/2 to H0
    bc = bredon_complex(parse_complex(graphfive_copies(64)))
    full = homology(bc.chain())
    assert full == [AbelianGroup(256, (2,) * 64), AbelianGroup(128), AbelianGroup()]
    blocks = split_blocks(bc)
    parts = [homology(b) for b in (blocks.trivial, blocks.two, blocks.three)]
    assert full == [parts[0][i] + parts[1][i] + parts[2][i] for i in range(3)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 80))
def test_coprime_presentation(n):
    # psi2 is 2I + 3P for the cyclic shift P: content 1 and no unit entry,
    # so its divisors come from _diagonal alone
    h = homology(bredon_complex(parse_complex(coprime(n))).chain())
    assert h == [AbelianGroup(1), AbelianGroup(0, (abs(2 ** n - (-3) ** n),)), AbelianGroup()]


def _union(parts) -> OrbitComplex:
    """Disjoint union of components, each given as vertex tags, (u, v,
    edge tag) edges (u == v is a loop) and C1 faces as edge-index triples."""
    cells, incs = [], []
    for c, (vtags, edges, faces) in enumerate(parts):
        vid = [f"c{c}v{k}" for k in range(len(vtags))]
        eid = [f"c{c}e{k}" for k in range(len(edges))]
        cells += [OrbitCell(v, 0, t) for v, t in zip(vid, vtags)]
        cells += [OrbitCell(e, 1, t) for e, (_, _, t) in zip(eid, edges)]
        cells += [OrbitCell(f"c{c}f{k}", 2, "C1") for k in range(len(faces))]
        for e, (u, v, _) in zip(eid, edges):
            incs += ([Incidence(vid[u], e, 2)] if u == v else
                     [Incidence(vid[u], e), Incidence(vid[v], e)])
        incs += [Incidence(eid[j], f"c{c}f{k}") for k, face in enumerate(faces)
                 for j in face]
    return OrbitComplex(tuple(cells), tuple(incs))


def _subgroup_tags(*vtags):
    return [t for t in SUPPORTED_EDGE_TAGS
            if all((t, v) in CLASSES for v in vtags)]


@st.composite
def bredon_components(draw):
    kind = draw(st.sampled_from(("path", "circle", "theta", "strip", "loops",
                                 "d2star")))
    if kind == "path":  # D3 - C2 - D3 - ... - D3
        n = draw(st.integers(1, 6))
        return ["D3"] * (n + 1), [(k, k + 1, "C2") for k in range(n)], []
    if kind == "circle":  # n = 1 is a loop
        n = draw(st.integers(1, 6))
        return ["D3"] * n, [(k, (k + 1) % n, "C2") for k in range(n)], []
    if kind == "theta":
        a, b = (draw(st.sampled_from(SUPPORTED_VERTEX_TAGS)) for _ in range(2))
        k = draw(st.integers(2, 4))
        return [a, b], [(0, 1, draw(st.sampled_from(_subgroup_tags(a, b))))
                        for _ in range(k)], []
    if kind == "strip":  # triangle k on vertices k, k + 1, k + 2
        n = draw(st.integers(1, 5))
        tag = draw(st.sampled_from(SUPPORTED_EDGE_TAGS))
        edges = ([(k, k + 1, tag) for k in range(n + 1)]
                 + [(k, k + 2, tag) for k in range(n)])
        return [tag] * (n + 2), edges, [(k, k + 1, n + 1 + k) for k in range(n)]
    if kind == "loops":
        v = draw(st.sampled_from(SUPPORTED_VERTEX_TAGS))
        loops = draw(st.lists(st.sampled_from(_subgroup_tags(v)), min_size=1,
                              max_size=3))
        return [v], [(0, 0, t) for t in loops], []
    # a D2 vertex whose C2 edge ends take all three embeddings
    leaves = draw(st.lists(st.sampled_from(("C2", "D2", "D3", "A4")),
                           min_size=3, max_size=4))
    return ["D2"] + leaves, [(0, k + 1, "C2") for k in range(len(leaves))], []


def _whole_base_change(cells):
    """Block-diagonal matrix of the splitting bases."""
    mats = [SPLITTING_BASES[c.stabilizer] for c in cells]
    n = sum(len(u) for u in mats)
    out = np.zeros((n, n), dtype=object)
    pos = 0
    for u in mats:
        out[pos:pos + len(u), pos:pos + len(u)] = np.array(u, dtype=object)
        pos += len(u)
    return out


def _to_array(rows, width):
    """Dense object array of sparse {column: entry} rows, whose columns
    must lie in range(width)."""
    out = np.zeros((len(rows), width), dtype=object)
    for i, row in enumerate(rows):
        for j, x in row.items():
            assert 0 <= j < width, (j, width)
            out[i, j] = x
    return out


def _part_labels(cells):
    return [w for c in cells for i in range(RANKS[c.stabilizer])
            for w, idx in enumerate(BLOCK_PARTS[c.stabilizer]) if i in idx]


@settings(max_examples=150, deadline=None)
@given(st.lists(bredon_components(), min_size=1, max_size=3))
def test_split_blocks_match_whole_matrix_base_change(parts):
    bc = bredon_complex(_union(parts))
    blocks = split_blocks(bc)
    total_chain = bc.chain()
    n0, n1, n2 = total_chain.dims
    whole1, whole2 = _to_array(total_chain.psi1, n1), _to_array(total_chain.psi2, n2)
    # the dense views are the stored sparse rows
    assert (np.array(bc.psi1, dtype=object).reshape(n0, n1) == whole1).all()
    assert (np.array(bc.psi2, dtype=object).reshape(n1, n2) == whole2).all()
    # the split, reassembled from its blocks, satisfies U_v psi = split U_e
    # as whole-matrix products; U_e is unimodular, so this fixes every
    # entry of the split, off-block zeros included
    labels = [_part_labels(cells) for cells in (bc.vertices, bc.edges, bc.faces)]
    rebuilt1 = np.zeros((n0, n1), dtype=object)
    rebuilt2 = np.zeros((n1, n2), dtype=object)
    for w, chain in enumerate((blocks.trivial, blocks.two, blocks.three)):
        rows, mid, cols = ([i for i, x in enumerate(part) if x == w]
                           for part in labels)
        assert chain.dims == (len(rows), len(mid), len(cols))
        assert len(chain.psi1) == len(rows) and len(chain.psi2) == len(mid)
        rebuilt1[np.ix_(rows, mid)] = _to_array(chain.psi1, len(mid))
        rebuilt2[np.ix_(mid, cols)] = _to_array(chain.psi2, len(cols))
    u0, u1, u2 = (_whole_base_change(cells) for cells in (bc.vertices, bc.edges, bc.faces))
    assert (u0 @ whole1 == rebuilt1 @ u1).all()
    assert (u1 @ whole2 == rebuilt2 @ u2).all()
    # the Bredon homology is the direct sum of the three blocks' homology
    total = homology(bc.chain())
    split = [homology(b) for b in (blocks.trivial, blocks.two, blocks.three)]
    for d in range(3):
        assert total[d] == split[0][d] + split[1][d] + split[2][d], d


def _summed_with_zeros(terms, rows, cols) -> list[dict[int, int]]:
    """The total's sparse rows as a plain sum of induction blocks over the
    terms, keeping an entry whose terms cancel as an explicit zero."""
    roff, coff = ([0] for _ in range(2))
    for off, cells in ((roff, rows), (coff, cols)):
        for c in cells:
            off.append(off[-1] + RANKS[c.stabilizer])
    out = [{} for _ in range(roff[-1])]
    for i, j, sign, emb in terms:
        for r, brow in enumerate(induction_matrix(cols[j].stabilizer, rows[i].stabilizer, emb)):
            for c, x in enumerate(brow):
                if x:
                    row = out[roff[i] + r]
                    row[coff[j] + c] = row.get(coff[j] + c, 0) + sign * x
    return out


@settings(max_examples=150, deadline=None)
@given(st.lists(bredon_components(), min_size=1, max_size=3))
def test_assembled_complex_equals_the_public_constructor(parts):
    # the total as chain() builds it, from assembled rows taken as they
    # are, is the complex the constructor builds from the plain sum, whose
    # cancelled entries (a loop's two ends on one embedding) it cleans
    bc = bredon_complex(_union(parts))
    chain = bc.chain()
    raw = (_summed_with_zeros(bc.terms1, bc.vertices, bc.edges),
           _summed_with_zeros(bc.terms2, bc.edges, bc.faces))
    assert chain == IntegerChainComplex(*raw, chain.dims)
    assert all(type(x) is int and x for rows in chain[:2] for row in rows for x in row.values())


def test_a_loop_cancels_in_assembly():
    bc = bredon_complex(load("bianchi_circle2"))
    assert _summed_with_zeros(bc.terms1, bc.vertices, bc.edges) == [{0: 0}, {1: 0}]
    assert bc.chain().psi1 == [{}, {}]


#: The fixtures whose stabilizers bredon_complex supports.
BREDON_FIXTURES = ("bianchi_circle2", "bianchi_edge3", "chain_c2_c2_d3", "graphfive",
                   "graphtwo", "path_c2_d3_c2")


@pytest.mark.parametrize("name", BREDON_FIXTURES + ("c1_strip",))
def test_bredon_json_triples_rebuild_the_differentials(name, tmp_path, capsys):
    # bredon --json prints each nonzero entry of psi1 and psi2 once, as
    # [row, column, entry] in row order, and the dims; together they
    # rebuild the dense views exactly
    path = FIXTURES / f"{name}.json"
    if name == "c1_strip":  # its 2-cells go through _oriented_boundary_walk
        n = 4
        edges = [(k, k + 1, "C1") for k in range(n + 1)] + [(k, k + 2, "C1") for k in range(n)]
        strip = _union([(["C1"] * (n + 2), edges, [(k, k + 1, n + 1 + k) for k in range(n)])])
        path = tmp_path / "strip.json"
        path.write_text(serialize_complex(strip))
    assert main(["bredon", "--json", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    bc = bredon_complex(parse_complex(path.read_text()))
    assert doc["dims"] == list(bc.chain().dims)
    n0, n1, n2 = doc["dims"]
    for key, (height, width), dense in (("psi1", (n0, n1), bc.psi1),
                                        ("psi2", (n1, n2), bc.psi2)):
        triples = doc[key]
        assert triples == sorted(triples) and all(x for _, _, x in triples)
        assert len({(i, j) for i, j, _ in triples}) == len(triples)
        rebuilt = [[0] * width for _ in range(height)]
        for i, j, x in triples:
            rebuilt[i][j] = x
        assert rebuilt == dense, key
    if name == "c1_strip":
        assert n2 == n and doc["psi2"]


def _assert_torsion_blocks_live_on_the_torsion_subcomplex(cx):
    # a cell's split coordinates have an ell-part only when ell divides
    # its stabilizer's order, and 2-cells are C1, so the ell-block is a
    # chain complex on the ell-torsion subcomplex alone
    for ell, block in ((2, "two"), (3, "three")):
        whole, torsion = (homology(getattr(split_blocks(bredon_complex(c)), block))
                          for c in (cx, torsion_subcomplex(cx, ell)))
        assert whole == torsion, ell


@settings(max_examples=100, deadline=None)
@given(st.lists(bredon_components(), min_size=1, max_size=3))
def test_torsion_blocks_live_on_the_torsion_subcomplex(parts):
    _assert_torsion_blocks_live_on_the_torsion_subcomplex(_union(parts))


@pytest.mark.parametrize("name", BREDON_FIXTURES)
def test_fixture_torsion_blocks_live_on_the_torsion_subcomplex(name):
    _assert_torsion_blocks_live_on_the_torsion_subcomplex(load(name))


def _assert_moves_preserve_the_torsion_block(cx, ell):
    # each logged move, applied one at a time from the ell-torsion
    # subcomplex, keeps the homology of the ell-block
    def block_homology(c):
        return homology(getattr(split_blocks(bredon_complex(c)), {2: "two", 3: "three"}[ell]))

    state = torsion_subcomplex(cx, ell)
    want = block_homology(state)
    for move in reduce_complex(cx, ell)[1].moves:
        state = apply_move(state, move, ell)
        assert block_homology(state) == want, move


@st.composite
def torsion_graphs(draw):
    """A prime ell and a graph on vertex tags of order divisible by ell,
    D2 left out, each edge tagged with a common subgroup: a path through
    all vertices, so that merges are frequent, and a few more edges."""
    ell = draw(st.sampled_from((2, 3)))
    palette = {2: ("C2", "D3"), 3: ("C3", "D3", "A4")}[ell]
    vtags = draw(st.lists(st.sampled_from(palette), min_size=1, max_size=7))
    ends = st.integers(0, len(vtags) - 1)
    pairs = [(k, k + 1) for k in range(len(vtags) - 1)]
    pairs += draw(st.lists(st.tuples(ends, ends), max_size=3))
    return ell, _union([(vtags, [(u, v, draw(st.sampled_from(_subgroup_tags(vtags[u], vtags[v]))))
                                 for u, v in pairs], [])])


@settings(max_examples=300, deadline=None)
@given(torsion_graphs())
def test_moves_preserve_the_torsion_block(ell_and_complex):
    _assert_moves_preserve_the_torsion_block(ell_and_complex[1], ell_and_complex[0])


@pytest.mark.parametrize("ell", (2, 3))
@pytest.mark.parametrize("name", BREDON_FIXTURES)
def test_fixture_moves_preserve_the_torsion_block(name, ell):
    _assert_moves_preserve_the_torsion_block(load(name), ell)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the merge renames the edges at "
                   "the D2 vertex, which rotates their C2 embeddings")
def test_moves_preserve_the_torsion_block_next_to_d2():
    # a D2 vertex with a C2 loop and two C2 edges to a D3 vertex; merging
    # at the D3 vertex turns the two edges into a second loop
    cx = _union([(["D2", "D3"], [(1, 0, "C2"), (0, 0, "C2"), (0, 1, "C2")], [])])
    _assert_moves_preserve_the_torsion_block(cx, 2)


def test_orbit_block_is_quotient_graph_homology():
    # theta graph: one component, first Betti number 2
    blocks = split_blocks(bredon_complex(load("graphfive")))
    hs = homology(blocks.trivial)
    assert str(hs[0]) == "Z" and str(hs[1]) == "Z^2"


def test_two_dimensional_disc():
    disc = OrbitComplex(
        (OrbitCell("a", 0, "C1"), OrbitCell("b", 0, "C1"), OrbitCell("c", 0, "C1"),
         OrbitCell("ab", 1, "C1"), OrbitCell("bc", 1, "C1"), OrbitCell("ca", 1, "C1"),
         OrbitCell("f", 2, "C1")),
        (Incidence("a", "ab"), Incidence("b", "ab"), Incidence("b", "bc"),
         Incidence("c", "bc"), Incidence("c", "ca"), Incidence("a", "ca"),
         Incidence("ab", "f"), Incidence("bc", "f"), Incidence("ca", "f")))
    bc = bredon_complex(disc)
    assert not (np.array(bc.psi1) @ np.array(bc.psi2)).any()
    hs = homology(bc.chain())
    assert [str(h) for h in hs] == ["Z", "0", "0"]


def test_two_dimensional_stabilized_disc():
    # 2-cells must be trivially stabilized
    disc = OrbitComplex(
        (OrbitCell("a", 0, "C2"), OrbitCell("e", 1, "C2"), OrbitCell("f", 2, "C2")),
        (Incidence("a", "e", 2), Incidence("e", "f", 2)))
    with pytest.raises(ValueError, match="trivially"):
        bredon_complex(disc)


# --------------------------------------------------------------------------
# Closed-form groups


def test_bredon_homology_formula_examples():
    f = bredon_homology_formula(SubgroupCensus(z2=1, lambda4=1))
    assert str(f["H0_2block"]) == "Z" and str(f["H1_2block"]) == "Z"
    f = bredon_homology_formula(SubgroupCensus(lambda6=1, lambda6star=1))
    assert str(f["H0_3block"]) == "Z" and str(f["H1_3block"]) == "Z"
    f = bredon_homology_formula(SubgroupCensus())
    assert all(v == AbelianGroup() for v in f.values())


def test_k_homology_examples():
    res = k_homology(SubgroupCensus(z2=1, lambda4=1, lambda6=1, lambda6star=1, beta1=1))
    assert str(res["K0"]) == "Z^3" and str(res["K1"]) == "Z^3"
    res = k_homology(SubgroupCensus())
    assert str(res["K0"]) == "Z" and str(res["K1"]) == "0"
    res = k_homology(SubgroupCensus(z2=1, d2=2, mu2=2))
    assert str(res["K0"]) == "Z^2 ⊕ Z/2"


def test_k_homology_reads_the_orbit_space_from_the_census():
    # beta1 and the H1 torsion reach K1, beta2 reaches K0, and nothing
    # else moves: the census is the only source of the Betti numbers
    census = SubgroupCensus(z2=1, d2=2, lambda4=1, lambda6=2, lambda6star=1)
    base = k_homology(census)
    assert base == {"K0": AbelianGroup(5, (2,)), "K1": AbelianGroup(4)}
    res = k_homology(census._replace(beta1=2, beta2=3), (6, 4))
    assert res["K0"] == base["K0"] + AbelianGroup(3)
    assert res["K1"] == base["K1"] + AbelianGroup(2, (2, 12))


def test_chen_ruan_examples():
    base = [1, 2]
    assert chen_ruan_dims(SubgroupCensus(), base, True) == {0: 1, 1: 2}
    dims = chen_ruan_dims(SubgroupCensus(lambda4=2, lambda4star=1, lambda6=1,
                                         lambda6star=1, mu2=2), [1], True)
    assert dims == {0: 1, 2: 3, 3: 2}
    dims = chen_ruan_dims(SubgroupCensus(lambda4=1), [1], False)
    assert dims == {0: 2, 1: 1}
    assert chen_ruan_dims(SubgroupCensus(lambda4=1), [], True) == {2: 1, 3: 1}


@pytest.mark.parametrize("quotient_dims", [
    [1.5], ["3"], [True], [-1], [0, [1]],
])
def test_chen_ruan_rejects_invalid_dimension(quotient_dims):
    with pytest.raises(ValueError, match="dimension"):
        chen_ruan_dims(SubgroupCensus(), quotient_dims, True)


def test_boundary_walk_signs_each_use_where_it_is_first_taken():
    # edges as (tail, head): e0 and e1 run 0 -> 1, e2 is a loop at 0 and
    # e3 a loop at 3; edge j's first end slot is its head, the second its tail
    pairs = [(0, 1), (0, 1), (0, 0), (3, 3)]
    ends = tuple(end for j, (tail, head) in enumerate(pairs)
                 for end in ((head, j, 1, 0), (tail, j, -1, 0)))
    walk = _oriented_boundary_walk
    # from vertex 0 the walk takes e1 forward, e0 backward, then the loop
    assert walk("f", [1, 2, 0], ends) == [(1, 1), (2, 1), (0, -1)]
    assert walk("f", [], ends) == []
    with pytest.raises(ValueError, match="'f' is not a closed walk"):
        walk("f", [0], ends)
    with pytest.raises(ValueError, match="'f' is not connected"):
        walk("f", [2, 3], ends)


def test_lone_two_cell():
    # no vertices or edges: psi1 and psi2 have no rows, and only the dims
    # carry the one face
    bc = bredon_complex(OrbitComplex((OrbitCell("f", 2, "C1"),), ()))
    assert bc.chain().dims == (0, 0, 1)
    assert [str(h) for h in homology(bc.chain())] == ["0", "0", "Z"]


@pytest.mark.parametrize("flags,checks", [([], 3), (["--json"], 4)], ids=["text", "json"])
def test_bredon_command_checks_each_complex_once(monkeypatch, capsys, flags, checks):
    # one check per built complex: the three blocks, whose homology sums
    # to the total's, and the total only where --json prints its rows
    calls, check = [], tsr.bredon._check_chain

    def counting(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(tsr.bredon, "_check_chain", counting)
    assert main(["bredon", *flags, "--input", "graphfive.json"]) == 0
    capsys.readouterr()
    assert len(calls) == checks


# --------------------------------------------------------------------------
# The one-pass split, the chain check and the row order of the elimination


def three_pass_split_blocks(bc) -> SplitBlocks:
    """The reference split: each block w summed on its own pass over the
    terms, from the corners of part w alone, each split block read
    checked for an entry that links part w with another part."""

    def block(w: int) -> IntegerChainComplex:
        width = {tag: (len(parts[w]),) for tag, parts in BLOCK_PARTS.items()}.__getitem__

        def corner(source, target, emb):
            mat = transformed_induction(source, target, emb)
            rows, cols = BLOCK_PARTS[target][w], BLOCK_PARTS[source][w]
            for r, row in enumerate(mat):
                for c, x in enumerate(row):
                    if x and (r in rows) != (c in cols):
                        raise BlockSplitError(
                            f"off-block entry {x} at ({r}, {c}) of the split block "
                            f"of {source!r} in {target!r} (embedding {emb})")
            return ([[mat[r][c] for c in cols] for r in rows],)

        psi1, = assemble(bc.terms1, bc.vertices, bc.edges, width, corner)
        psi2, = assemble(bc.terms2, bc.edges, bc.faces, width, corner)
        n2 = sum(width(f.stabilizer)[0] for f in bc.faces)
        return IntegerChainComplex._of_clean_rows(psi1, psi2, (len(psi1), len(psi2), n2))

    return SplitBlocks(*map(block, range(3)))


#: Small documents from every generator the tests share.
DOCUMENTS = {
    "circles": circles(30), "strip": strip(12), "graphfive_copies": graphfive_copies(4),
    "d3_c2_path": d3_c2_path(12), "d3_c2_circle": d3_c2_circle(9),
    "wound_loop": wound_loop(7), "escaped_ids": escaped_ids(),
    "star": star(9), "star_hub_last": star(9, hub_first=False), "book": book(9),
    **{f"path_{v}_{e}": two_vertex_path(v, e) for e, v in CLASSES
       if e in SUPPORTED_EDGE_TAGS and v in SUPPORTED_VERTEX_TAGS},
}


@pytest.mark.parametrize("name", BREDON_FIXTURES + tuple(DOCUMENTS))
def test_one_pass_split_equals_the_three_pass_reference(name):
    cx = load(name) if name in BREDON_FIXTURES else parse_complex(DOCUMENTS[name])
    bc = bredon_complex(cx)
    assert split_blocks(bc) == three_pass_split_blocks(bc)


@settings(max_examples=150, deadline=None)
@given(st.lists(bredon_components(), min_size=1, max_size=3))
def test_one_pass_split_equals_the_three_pass_reference_on_graphs(parts):
    bc = bredon_complex(_union(parts))
    assert split_blocks(bc) == three_pass_split_blocks(bc)


def test_split_of_an_empty_complex_has_three_empty_blocks():
    bc = bredon_complex(OrbitComplex((), ()))
    empty = IntegerChainComplex([], [], (0, 0, 0))
    assert split_blocks(bc) == three_pass_split_blocks(bc) == SplitBlocks(empty, empty, empty)
    assert bc.chain() == empty


def _off_block_positions():
    for (source, target, emb), (_, split) in tsr.bredon._BLOCKS.items():
        rpart, cpart = ({k: w for w, idx in enumerate(parts) for k in idx}
                        for parts in (BLOCK_PARTS[target], BLOCK_PARTS[source]))
        for r, row in enumerate(split):
            for c in range(len(row)):
                if rpart[r] != cpart[c]:
                    yield source, target, emb, r, c


@pytest.mark.parametrize("source,target,emb,r,c", list(_off_block_positions()))
def test_each_off_block_entry_is_refused_with_its_message(monkeypatch, source, target,
                                                          emb, r, c):
    # one corrupted entry in one split block: both splits refuse it alike,
    # on a complex whose one edge end reads that block
    induction, split = tsr.bredon._BLOCKS[source, target, emb]
    bad = [list(row) for row in split]
    bad[r][c] = 7
    monkeypatch.setitem(tsr.bredon._BLOCKS, (source, target, emb), (induction, bad))
    ends = [(0, 0, 1, emb), (1, 0, -1, 0)]
    bc = tsr.bredon.BredonComplex((OrbitCell("a", 0, target), OrbitCell("b", 0, source)),
                                  (OrbitCell("e", 1, source),), (), tuple(ends), ())
    message = (f"off-block entry 7 at ({r}, {c}) of the split block "
               f"of {source!r} in {target!r} (embedding {emb})")
    for split_of in (split_blocks, three_pass_split_blocks):
        with pytest.raises(BlockSplitError) as err:
            split_of(bc)
        assert str(err.value) == message


@pytest.mark.parametrize("psi1, psi2, dims", [
    ([{0: 1, -1: 1}], [{}, {}], (1, 2, 0)),  # a negative psi1 column
    ([{0: 1, 2: 1}], [{}, {}], (1, 2, 0)),   # a psi1 column equal to n1
    ([{}], [{-1: 1}, {}], (1, 2, 1)),        # a negative psi2 column
    ([{}], [{}, {0: 1, 1: 1}], (1, 2, 1)),   # a psi2 column equal to n2
    ([{}, {}], [{}, {}], (1, 2, 0)),         # one psi1 row too many
    ([{}], [{}], (1, 2, 0)),                 # one psi2 row short
])
def test_chain_check_refuses_rows_outside_dims(psi1, psi2, dims):
    # the chain check counts the rows; a column outside dims is refused by
    # the constructor, the one entry for rows from outside
    rows_fit = (len(psi1), len(psi2)) == dims[:2]
    with pytest.raises(ValueError) as err:
        (IntegerChainComplex if rows_fit else tsr.bredon._check_chain)(psi1, psi2, dims)
    assert str(err.value) == f"psi1 and psi2 are not composable with dims {dims}"


def test_chain_check_refuses_a_nonzero_product_and_accepts_an_empty_psi2():
    check = tsr.bredon._check_chain
    with pytest.raises(ValueError, match=r"not a chain complex: psi1 @ psi2 != 0"):
        check([{}, {0: 1, 1: 1}], [{0: 1}, {0: 1}], (2, 2, 1))
    assert check([{0: 1, 1: 1}], [{0: 1}, {0: -1}], (1, 2, 1)) is None
    # a psi2 whose rows are all empty composes to zero with any psi1
    assert check([{0: 5, 1: -3}, {1: 2}], [{}, {}], (2, 2, 4)) is None


def _pivot_fill(monkeypatch, doc: str) -> int:
    """The nonzeros of the new pivot rows of every elimination that the
    homology of the total and of the three blocks runs."""
    fill, add = [0], SpanTracker.add

    def counting(self, v):
        rank = self.rank
        grew = add(self, v)
        if self.rank > rank:
            fill[0] += len(self._created[-1][1])
        return grew

    bc = bredon_complex(parse_complex(doc))
    with monkeypatch.context() as patch:
        patch.setattr(SpanTracker, "add", counting)
        for chain in (bc.chain(), *split_blocks(bc)):
            homology(chain)
    return fill[0]


def test_dense_rows_do_not_fill_the_elimination(monkeypatch):
    # a work count, not a timing: taken in id order, the hub's rows (which
    # sort first) and the book's spine row filled every later pivot row,
    # 8,004,000 and 4,006,002 nonzeros at n = 2,000; shortest first, the
    # cost does not depend on how the hub is spelled
    n = 2000
    hub_first = _pivot_fill(monkeypatch, star(n))
    assert hub_first <= 4 * n + 4
    assert hub_first == _pivot_fill(monkeypatch, star(n, hub_first=False))
    assert _pivot_fill(monkeypatch, book(n)) <= 4 * n + 4
