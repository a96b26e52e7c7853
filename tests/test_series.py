"""Tests for series arithmetic, census handling and the dimension formulas."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tsr._modp import rank_mod
from tsr.complexes import (Incidence, OrbitCell, OrbitComplex, edge_end_assignments,
                           parse_complex)
from tsr.groups import catalog_group, compose, identity_perm, mod_ell_homology_bruteforce
from tsr.series import (ORACLE_STABILIZERS, CensusError, RationalSeries, SubgroupCensus,
                        canonical_series, coxeter_homology, e2_page,
                        equivariant_graph_cohomology_oracle,
                        farrell_tate_sl2_dims, poincare_2torsion,
                        poincare_3torsion, restriction_block, sl2_mod2_dims,
                        stabilizer_cohomology_dim, triangle_group_homology)

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "tsr" / "fixtures"


def load(name):
    return parse_complex(FIXTURES.joinpath(name).read_text())


def ints(coeffs):
    return [int(c) for c in coeffs]


# --------------------------------------------------------------------------
# Rational series arithmetic


def test_geometric_series():
    s = RationalSeries([1], [1, -1])
    assert ints(s.expand(3)) == [1, 1, 1, 1]


def test_expand_circle():
    assert ints(canonical_series("Circle").expand(5)) == [0, 0, 0, 2, 2, 2]


def test_expand_edge():
    coeffs = ints(canonical_series("Edge3").expand(10))
    assert coeffs[3:] == [2, 1, 0, 1, 2, 1, 0, 1]


def test_d2star_coefficients():
    coeffs = canonical_series("D2star").expand(20)
    for q in range(3, 21):
        assert coeffs[q] == Fraction(2 * q - 1, 2)  # q - 1/2


def test_canonical_series_printing():
    assert str(canonical_series("Circle")) == "(-2*t^3) / (t - 1)"
    assert str(canonical_series("Edge3")) == \
        "(-t^5 + t^4 - 2*t^3) / (t^3 - t^2 + t - 1)"
    assert str(canonical_series("D2star")) == \
        "(-3*t^4 + 5*t^3) / (2*t^2 - 4*t + 2)"


def test_unknown_series_kind():
    with pytest.raises(ValueError):
        canonical_series("Loop")


def test_series_reduction_to_lowest_terms():
    # (t^2 - 1)/(t - 1) reduces to t + 1
    s = RationalSeries([-1, 0, 1], [-1, 1])
    assert str(s) == "t + 1"


def test_denominator_root_at_zero_rejected():
    with pytest.raises((ValueError, ZeroDivisionError)):
        RationalSeries([1], [0, 1])


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalSeries([1], [0])


def test_series_add_scale():
    a = canonical_series("Circle")
    b = a.scale(Fraction(1, 2))
    c = b + b
    assert c == a
    assert ints(a.scale(2).expand(4)) == [0, 0, 0, 4, 4]


def test_d2star_matches_oracle_excess():
    dims = mod_ell_homology_bruteforce(catalog_group("D2"), 2, 5)
    coeffs = canonical_series("D2star").expand(5)
    for q in range(3, 6):
        assert dims[q] == q + 1
        assert coeffs[q] == dims[q] - Fraction(3, 2)


def test_a4star_matches_oracle_excess():
    dims = mod_ell_homology_bruteforce(catalog_group("A4"), 2, 3)
    coeffs = canonical_series("A4star").expand(3)
    assert coeffs[3] == dims[3] - Fraction(1, 2)


# --------------------------------------------------------------------------
# Census and Poincare series


def test_census_from_greek_keys():
    census = SubgroupCensus.from_dict({"λ6": 1, "μ3": 2, "λ4*": 0})
    assert census.lambda6 == 1 and census.mu3 == 2


def test_census_unknown_key():
    with pytest.raises(CensusError, match="unknown"):
        SubgroupCensus.from_dict({"lambda9": 1})


def test_census_field_in_two_spellings_is_a_duplicate():
    with pytest.raises(CensusError, match="duplicate census field 'lambda4'"):
        SubgroupCensus.from_dict({"λ4": 1, "lambda4": 1})


def test_census_boolean_count_rejected():
    with pytest.raises(CensusError, match="lambda4 must be"):
        SubgroupCensus.from_dict({"lambda4": True})


def test_census_invariants():
    with pytest.raises(CensusError):
        SubgroupCensus(lambda4=0, lambda4star=1).validate()
    with pytest.raises(CensusError):
        SubgroupCensus(mu3=3).validate()
    with pytest.raises(CensusError):
        SubgroupCensus(d2=1).validate()
    with pytest.raises(CensusError, match="lambda6star exceeds lambda6"):
        SubgroupCensus(lambda6=1, lambda6star=2)
    # _replace builds through the constructor, so it validates too
    with pytest.raises(CensusError, match="mu3 must be even"):
        SubgroupCensus(mu3=2)._replace(mu3=3)


@pytest.mark.parametrize("fields", [{"d2": 1}, {"beta2": -1}, {"beta2": -1, "c": True}])
def test_census_is_validated_when_built(fields):
    with pytest.raises(CensusError):
        SubgroupCensus(**fields)


def test_poincare_2torsion_circle_case():
    s = poincare_2torsion(SubgroupCensus(lambda4=1))
    assert s == canonical_series("Circle")
    assert ints(s.expand(6))[3:] == [2, 2, 2, 2]


def test_poincare_2torsion_zero():
    assert poincare_2torsion(SubgroupCensus()) == RationalSeries(())


def test_poincare_2torsion_theta_component():
    census = SubgroupCensus(lambda4=3, lambda4star=3, mu2=2)
    coeffs = ints(poincare_2torsion(census).expand(20))
    assert coeffs[:3] == [0, 0, 0]
    assert all(coeffs[q] == 2 * q - 1 for q in range(3, 21))


def test_poincare_2torsion_rejects_inconsistent_census():
    with pytest.raises(CensusError, match="inconsistency"):
        poincare_2torsion(SubgroupCensus(lambda4=2, mu2=1))


def test_poincare_3torsion_cases():
    assert poincare_3torsion(SubgroupCensus(lambda6=1, mu3=2)) == \
        canonical_series("Edge3")
    assert poincare_3torsion(SubgroupCensus(lambda6=1)) == \
        canonical_series("Circle")
    assert poincare_3torsion(SubgroupCensus()) == RationalSeries(())


def test_poincare_3torsion_rejects_odd_mu3():
    with pytest.raises(CensusError):
        poincare_3torsion(SubgroupCensus(lambda6=1, mu3=1))


def component_census(o2, i2, th, rh, o3, i3):
    """Census of a disjoint union of components of the five shape types."""
    return SubgroupCensus(
        lambda4=o2 + i2 + 3 * th + 2 * rh,
        lambda4star=i2 + 3 * th + 2 * rh,
        mu2=2 * (i2 + th + rh),
        muT=2 * i2 + rh,
        lambda6=o3 + i3,
        lambda6star=i3,
        mu3=2 * i3,
        z2=o2 + i2 + 3 * th + 2 * rh,
        d2=2 * (i2 + th + rh),
    )


def test_poincare_additivity_over_components():
    rng = random.Random(7)
    for _ in range(25):
        a = [rng.randrange(3) for _ in range(6)]
        b = [rng.randrange(3) for _ in range(6)]
        both = [x + y for x, y in zip(a, b)]
        for poincare in (poincare_2torsion, poincare_3torsion):
            s = poincare(component_census(*both))
            parts = poincare(component_census(*a)) + poincare(component_census(*b))
            assert s == parts


# --------------------------------------------------------------------------
# Equivariant cohomology oracle


def test_oracle_circle():
    dims = equivariant_graph_cohomology_oracle(load("bianchi_circle2.json"), 2,
                                               range(3, 7))
    assert dims == {3: 2, 4: 2, 5: 2, 6: 2}


def test_oracle_edge3():
    dims = equivariant_graph_cohomology_oracle(load("bianchi_edge3.json"), 3,
                                               range(3, 7))
    assert dims == {3: 2, 4: 1, 5: 0, 6: 1}


def test_oracle_empty_graph():
    from tsr.complexes import OrbitComplex
    dims = equivariant_graph_cohomology_oracle(OrbitComplex((), ()), 2,
                                               range(3, 6))
    assert all(v == 0 for v in dims.values())


def test_oracle_theta_matches_series():
    census = SubgroupCensus(lambda4=3, lambda4star=3, mu2=2)
    coeffs = ints(poincare_2torsion(census).expand(10))
    dims = equivariant_graph_cohomology_oracle(load("graphfive.json"), 2,
                                               range(3, 11))
    assert all(dims[q] == coeffs[q] for q in range(3, 11))


@pytest.mark.parametrize("name,ell,calls,expected", [
    ("bianchi_circle2.json", 2, 1, [2] * 38),
    ("bianchi_edge3.json", 3, 2, [2, 1, 0, 1] * 9 + [2, 1]),
    # D2's blocks grow with q, so no two of the 39 maps alpha_2..alpha_40 agree
    ("graphfive.json", 2, 39, [2 * q - 1 for q in range(3, 41)]),
])
def test_oracle_eliminates_each_distinct_map_once(monkeypatch, name, ell, calls, expected):
    counted = []
    monkeypatch.setattr("tsr.series.rank_mod",
                        lambda mat, p: counted.append(p) or rank_mod(mat, p))
    dims = equivariant_graph_cohomology_oracle(load(name), ell, range(3, 41))
    assert dims == dict(zip(range(3, 41), expected))
    assert len(counted) == calls


def test_oracle_rejects_non_prime():
    # F_4 is no field: a rank over Z/4 is no dimension
    with pytest.raises(ValueError, match="is not prime"):
        equivariant_graph_cohomology_oracle(load("bianchi_edge3.json"), 4, range(1, 4))


def test_oracle_rejects_degree_zero():
    with pytest.raises(ValueError, match="oracle degrees must be >= 1"):
        equivariant_graph_cohomology_oracle(load("bianchi_circle2.json"), 2, range(0, 3))


def test_oracle_rejects_non_rigid_complex():
    # the rigid flag is read only by parse_complex, so a non-rigid document
    # is refused before the oracle sees it
    text = FIXTURES.joinpath("graphfive.json").read_text()
    equivariant_graph_cohomology_oracle(parse_complex(text), 2, range(3, 6))
    with pytest.raises(ValueError, match="rigid must be true"):
        cx = parse_complex(text.replace('"rigid": true', '"rigid": false'))
        equivariant_graph_cohomology_oracle(cx, 2, range(3, 6))


def test_oracle_rejects_unsupported_stabilizer():
    with pytest.raises(ValueError, match="unsupported"):
        equivariant_graph_cohomology_oracle(load("graphtwo.json"), 2, range(3, 4))


def reference_oracle(cx, ell, q_range):
    """The graph oracle with alpha_q written out as a dense matrix, one
    restriction block per edge end added entry by entry at the offsets of
    its cells, and alpha_{q-1} rebuilt for every degree."""
    vertices, edges, ends = edge_end_assignments(cx)

    def alpha(q):
        vdims = [stabilizer_cohomology_dim(v.stabilizer, ell, q) for v in vertices]
        edims = [stabilizer_cohomology_dim(e.stabilizer, ell, q) for e in edges]
        voff = list(itertools.accumulate(vdims, initial=0))
        eoff = list(itertools.accumulate(edims, initial=0))
        mat = [[0] * voff[-1] for _ in range(eoff[-1])]
        for k, j, sign, emb in ends:
            block = restriction_block(vertices[k].stabilizer, edges[j].stabilizer,
                                      emb, ell, q)
            for i, brow in enumerate(block):
                for c, x in enumerate(brow):
                    mat[eoff[j] + i][voff[k] + c] += sign * x
        return rank_mod(mat, ell), eoff[-1], voff[-1]

    dims = {}
    for q in q_range:
        (rank, _, cols), (prev_rank, prev_rows, _) = alpha(q), alpha(q - 1)
        dims[q] = (cols - rank) + (prev_rows - prev_rank)
    return dims


#: The edge tags that embed in each oracle vertex tag.
_ORACLE_SUBGROUPS = {"C1": ("C1",), "C2": ("C1", "C2"), "C3": ("C1", "C3"),
                     "D2": ("C1", "C2", "D2"), "D3": ("C1", "C2", "C3", "D3")}


@st.composite
def oracle_graphs(draw):
    """Graphs over the oracle's stabilizers, with loops and parallel
    edges, and optionally a D2 hub whose C2 edge ends take all three
    embeddings."""
    vtags = draw(st.lists(st.sampled_from(ORACLE_STABILIZERS), min_size=1, max_size=5))
    edges = []
    for _ in range(draw(st.integers(0, 7))):
        u, v = (draw(st.integers(0, len(vtags) - 1)) for _ in range(2))
        common = [t for t in _ORACLE_SUBGROUPS[vtags[u]]
                  if t in _ORACLE_SUBGROUPS[vtags[v]]]
        edges.append((u, v, draw(st.sampled_from(common))))
    if draw(st.booleans()):
        hub = len(vtags)
        vtags.append("D2")
        targets = [k for k, t in enumerate(vtags) if "C2" in _ORACLE_SUBGROUPS[t]]
        edges += [(hub, draw(st.sampled_from(targets)), "C2")
                  for _ in range(draw(st.integers(3, 4)))]
    cells = [OrbitCell(f"v{k}", 0, t) for k, t in enumerate(vtags)]
    cells += [OrbitCell(f"e{k}", 1, t) for k, (_, _, t) in enumerate(edges)]
    incs = []
    for k, (u, v, _) in enumerate(edges):
        incs += ([Incidence(f"v{u}", f"e{k}", 2)] if u == v else
                 [Incidence(f"v{u}", f"e{k}"), Incidence(f"v{v}", f"e{k}")])
    return OrbitComplex(tuple(cells), tuple(incs))


def test_degree_zero_restriction_is_identity():
    for vtag, subgroups in _ORACLE_SUBGROUPS.items():
        for etag in subgroups:
            for ell in (2, 3):
                assert restriction_block(vtag, etag, 0, ell, 0) == [[1]], (vtag, etag)


@settings(max_examples=150, deadline=None)
@given(oracle_graphs(), st.sampled_from((2, 3)))
def test_oracle_matches_dense_reference(cx, ell):
    degrees = range(1, 13)
    assert (equivariant_graph_cohomology_oracle(cx, ell, degrees)
            == reference_oracle(cx, ell, degrees))


def _cochain_cohomology_restriction_rank(vtag, etag, fusion, ell, q):
    """Independent check of the pinned restriction ranks: cohomology of
    the normalized inhomogeneous cochain complex plus the cochain-level
    restriction along an explicit subgroup inclusion."""
    G = catalog_group(vtag)
    H_elems = fusion  # list of elements of G forming the subgroup

    def cochain_data(elems, degree):
        ident = identity_perm(len(elems[0]))
        nontriv = [g for g in elems if g != ident]
        tuples = list(itertools.product(nontriv, repeat=degree))
        index = {t: i for i, t in enumerate(tuples)}
        return nontriv, tuples, index

    def delta(elems, degree):
        ident = identity_perm(len(elems[0]))
        nontriv, tuples, _ = cochain_data(elems, degree)
        _, tuples1, index1 = cochain_data(elems, degree + 1)
        mat = np.zeros((len(tuples1), len(tuples)), dtype=np.int64)
        for r, tup in enumerate(tuples1):
            terms = [tup[1:]]
            signs = [1]
            for i in range(degree):
                g = compose(tup[i], tup[i + 1])
                if g != ident:
                    terms.append(tup[:i] + (g,) + tup[i + 2:])
                    signs.append((-1) ** (i + 1))
            terms.append(tup[:-1])
            signs.append((-1) ** (degree + 1))
            idx = {t: i for i, t in enumerate(tuples)}
            for t, s in zip(terms, signs):
                mat[r, idx[t]] += s
        return mat

    def cocycle_basis(elems, degree):
        d_up = delta(elems, degree)
        from tsr._modp import nullspace_mod
        z = nullspace_mod(d_up, ell, d_up.shape[1])
        z = np.array(z, dtype=np.int64).reshape(len(z), d_up.shape[1])
        d_down = delta(elems, degree - 1) if degree >= 1 else None
        return z, d_down

    z_g, _ = cocycle_basis(G.elements, q)
    _, tuples_g, index_g = cochain_data(G.elements, q)
    _, tuples_h, _ = cochain_data(H_elems, q)
    res = np.zeros((len(tuples_h), len(tuples_g)), dtype=np.int64)
    for r, tup in enumerate(tuples_h):
        res[r, index_g[tup]] = 1
    restricted = (res @ z_g.T) % ell
    d_down_h = delta(H_elems, q - 1)
    b_h = (d_down_h % ell)
    stacked = np.concatenate([b_h.T, restricted.T], axis=0)
    return rank_mod(stacked, ell) - rank_mod(b_h, ell)


def test_pinned_restriction_ranks_against_cochains():
    from tsr.groups import invert, perm_order
    d3 = catalog_group("D3")
    c2_in_d3 = [g for g in d3.elements
                if g == d3.identity or perm_order(g) == 2][:2]
    c3_in_d3 = [g for g in d3.elements if perm_order(g) in (1, 3)]
    d2 = catalog_group("D2")
    embeds = {
        0: [d2.identity, (1, 0, 3, 2)],
        1: [d2.identity, (2, 3, 0, 1)],
        2: [d2.identity, (3, 2, 1, 0)],
    }
    for q in (1, 2, 3):
        got = _cochain_cohomology_restriction_rank("D3", "C2", c2_in_d3, 2, q)
        assert got == int(np.array(restriction_block("D3", "C2", 0, 2, q)).any())
        got = _cochain_cohomology_restriction_rank("D3", "C3", c3_in_d3, 3, q)
        assert got == int(np.array(restriction_block("D3", "C3", 0, 3, q)).any())
        for emb, sub in embeds.items():
            got = _cochain_cohomology_restriction_rank("D2", "C2", sub, 2, q)
            assert got == rank_mod(restriction_block("D2", "C2", emb, 2, q), 2)


def test_stabilizer_dims_match_bruteforce():
    for tag in ("C2", "C3", "D2", "D3"):
        G = catalog_group(tag)
        for ell in (2, 3):
            dims = mod_ell_homology_bruteforce(G, ell, 3)
            for q in range(4):
                assert stabilizer_cohomology_dim(tag, ell, q) == dims[q], (tag, ell, q)


def _branch_cohomology_dim(tag, ell, q):
    """The oracle's dimensions as hand-written branches per prime, which
    the quotient table G/O_ell'(G) replaced."""
    if q < 0:
        return 0
    if q == 0:
        return 1
    if ell == 2:
        if tag in ("C2", "D3"):
            return 1
        if tag == "D2":
            return q + 1
        return 0
    if ell == 3:
        if tag == "C3":
            return 1
        if tag == "D3":
            return 1 if q % 4 in (0, 3) else 0
        return 0
    return 0


def test_stabilizer_dims_match_branches_through_two_periods():
    # D3 at ell = 3 has period 4, past the brute-force degrees above
    for tag in ORACLE_STABILIZERS:
        for ell in (2, 3, 4, 5):
            for q in range(-1, 41):
                assert (stabilizer_cohomology_dim(tag, ell, q)
                        == _branch_cohomology_dim(tag, ell, q)), (tag, ell, q)


def test_stabilizer_dims_reject_tags_outside_the_oracle():
    with pytest.raises(ValueError, match="unsupported stabilizer 'A4'"):
        stabilizer_cohomology_dim("A4", 3, 2)


@pytest.mark.parametrize("vtag,etag,emb", [
    ("D2", "C2", 3), ("D2", "C2", -1), ("C2", "C2", 7), ("D3", "C2", 1), ("D3", "C3", 2),
])
def test_restriction_block_rejects_embedding_outside_its_classes(vtag, etag, emb):
    with pytest.raises(ValueError, match=f"embedding {emb}"):
        restriction_block(vtag, etag, emb, 2, 2)


def _path(*tags):
    """The path v0 - e0 - v1 - e1 - ... with the given alternating vertex
    and edge stabilizers."""
    cells = tuple(OrbitCell(f"{'ve'[k % 2]}{k // 2}", k % 2, t) for k, t in enumerate(tags))
    return OrbitComplex(cells, tuple(
        Incidence(f"v{k}", f"e{j}") for j in range(len(tags) // 2) for k in (j, j + 1)))


@pytest.mark.parametrize("tags,ell,degrees", [
    (("D2", "C3", "D2"), 2, range(1, 6)),
    (("C3", "D3", "C3"), 3, range(1, 3)),
])
def test_oracle_refuses_a_non_inclusion(tags, ell, degrees):
    with pytest.raises(ValueError, match="unsupported inclusion"):
        equivariant_graph_cohomology_oracle(_path(*tags), ell, degrees)


@pytest.mark.parametrize("q", [0, 3])
def test_restriction_block_refuses_a_non_inclusion(q):
    # C3 is no subgroup of D2, also where its block would be empty (q = 3)
    # or the identity (q = 0)
    with pytest.raises(ValueError, match=r"^unsupported inclusion 'C3' in 'D2'$"):
        restriction_block("D2", "C3", 0, 2, q)


# --------------------------------------------------------------------------
# Closed-form dimension formulas


def test_coxeter_homology():
    assert coxeter_homology(2, 3, 3) == 2
    assert coxeter_homology(0, 3, 3) == 0
    assert coxeter_homology(1, 5, 4) == 1
    with pytest.raises(ValueError):
        coxeter_homology(1, 2, 3)


def test_triangle_group_homology():
    assert triangle_group_homology(3, 3, 3, 3, 3) == 3
    assert triangle_group_homology(2, 4, 4, 3, 3) == 0
    assert triangle_group_homology(3, 3, 4, 5, 2) == 0
    with pytest.raises(ValueError, match="spherical"):
        triangle_group_homology(2, 3, 3, 5, 3)


def test_sl2_mod2_dims():
    assert sl2_mod2_dims(1, 0, 3) == 4
    assert sl2_mod2_dims(1, 0, 1) == 1
    assert sl2_mod2_dims(1, 0, 6) == 2
    with pytest.raises(ValueError):
        sl2_mod2_dims(1, 0, 0)


def test_e2_page_assembly():
    zeros = {"E01": 0, "E11": 0, "E03": 0, "E13": 0, "H2Xsprime": 0}
    page = e2_page(SubgroupCensus(), 1, zeros)
    assert page.row(0) == (1, 0, 0)
    assert page.entries[(0, 2)] == 1  # the (F_2)^(1 - sign(v)) summand at v = 0
    page = e2_page(SubgroupCensus(beta1=2, v=3), 1, zeros)
    assert page.a3 == 4
    assert page.entries[(0, 2)] == 0
    with pytest.raises(ValueError, match="a1"):
        e2_page(SubgroupCensus(), 0, zeros)
    # an entry left out reads 0; a key that names no entry is refused
    assert e2_page(SubgroupCensus(beta1=2, v=3), 1, {}) == page
    with pytest.raises(ValueError, match="unknown xs_rows key 'BOGUS'"):
        e2_page(SubgroupCensus(), 1, {"E01": 0, "BOGUS": 0})


@pytest.mark.parametrize("key, val", [("E11", 0.5), ("E03", "x"), ("E01", -1),
                                      ("H2Xsprime", True)])
def test_e2_page_rejects_non_dimension_rows(key, val):
    rows = {"E01": 0, "E11": 0, "E03": 0, "E13": 0, "H2Xsprime": 0, key: val}
    with pytest.raises(ValueError, match=f"xs_rows entry {key}"):
        e2_page(SubgroupCensus(), 1, rows)


def test_farrell_tate_examples():
    for q in (0, 4, 8, -4):
        assert farrell_tate_sl2_dims(0, True, q, 3) == 1
    for q in (2, 6, 1, 3, -2):
        assert farrell_tate_sl2_dims(0, True, q, 3) == 0
    for q in range(-3, 4):
        assert farrell_tate_sl2_dims(1, False, q, 3) == 1
    assert farrell_tate_sl2_dims(2, False, 4, 3) == 2
    with pytest.raises(ValueError):
        farrell_tate_sl2_dims(1, False, 0, 2)


def test_farrell_tate_binomial_identity():
    for r in range(1, 7):
        for q in range(-2, 6):
            assert farrell_tate_sl2_dims(r, False, q, 5) == 2 ** (r - 1)


def test_farrell_tate_invariant_splitting():
    # invariants plus sign-twisted invariants exhaust the module
    def anti(r, q):
        total = 0
        from math import comb
        for k in range(r + 1):
            if (q - k) % 2 == 0 and ((q - k) // 2 + k) % 2 == 1:
                total += comb(r, k)
        return total

    for r in range(5):
        for q in range(-4, 8):
            inv = farrell_tate_sl2_dims(r, True, q, 3)
            tot = farrell_tate_sl2_dims(r, False, q, 3)
            assert inv + anti(r, q) == tot


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5))
def test_rational_series_addition_matches_expansion(a, b):
    try:
        sa = RationalSeries(a, [1, -1])
        sb = RationalSeries(b, [1, 2])
    except (ValueError, ZeroDivisionError):
        return
    lhs = (sa + sb).expand(8)
    rhs = [x + y for x, y in zip(sa.expand(8), sb.expand(8))]
    assert lhs == rhs


# --------------------------------------------------------------------------
# The integer series kernel

int_polys = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=6)
fraction_values = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                            st.integers(min_value=1, max_value=9))


def times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def series(num, den):
    """RationalSeries(num, den), for a den that is nonzero at t = 0."""
    assume(den[0] != 0)
    return RationalSeries(num, den)


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, st.integers(min_value=0, max_value=25))
def test_denominator_times_expansion_is_numerator(num, den, n):
    coeffs = series(num, den).expand(n)
    for k in range(n + 1):
        lhs = sum((Fraction(den[j]) * coeffs[k - j] for j in range(min(k + 1, len(den)))),
                  Fraction(0))
        assert lhs == (num[k] if k < len(num) else 0)


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, int_polys, st.integers(min_value=1, max_value=7))
def test_common_factor_cancels(num, den, g, q):
    assume(g[0] != 0)
    s = series(num, den)
    assert RationalSeries(times(num, g), times(den, g)) == s
    assert RationalSeries([Fraction(x, q) for x in times(num, g)], times(den, g)) \
        == RationalSeries(num, [q * x for x in den])


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, fraction_values, st.integers(min_value=0, max_value=20))
def test_scale_scales_every_coefficient(num, den, c, n):
    s = series(num, den)
    assert s.scale(c).expand(n) == [c * x for x in s.expand(n)]


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, int_polys, int_polys, st.integers(min_value=0, max_value=20))
def test_sum_expands_termwise(num_a, den_a, num_b, den_b, n):
    a, b = series(num_a, den_a), series(num_b, den_b)
    assert (a + b).expand(n) == [x + y for x, y in zip(a.expand(n), b.expand(n))]


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, fraction_values)
def test_normal_form(num, den, c):
    s = series(num, den).scale(c)
    assert all(type(x) is int for x in s.num + s.den)
    assert math.gcd(*s.num, *s.den) == 1 and s.den[-1] > 0 and s.den[0] != 0
    assert not s.num or s.num[-1] != 0
    assert s.num or s.den == (1,)
    assert RationalSeries(s.num, s.den) == s


def test_d2star_expansion_at_large_degree():
    coeffs = canonical_series("D2star").expand(2000)
    assert coeffs[:3] == [0, 0, 0]
    assert all(coeffs[q] == q - Fraction(1, 2) for q in range(3, 2001))


# Seeded censuses with the mod-2 and mod-3 series as the Fraction-coefficient
# implementation printed them, each with the first 16 hex digits of the
# SHA-256 of its comma-joined coefficients to degree 120.
PINNED_CENSUS_SERIES = [
    ({'lambda4': 5, 'lambda4star': 5, 'mu2': 10, 'muT': 10, 'lambda6': 15, 'lambda6star': 15, 'mu3': 30},
     ('(-5*t^6 + 10*t^5 - 10*t^4 + 15*t^3) / (t^4 - t^3 - t + 1)', 'a6c29d5a932e3a4c'),
     ('(-15*t^5 + 15*t^4 - 30*t^3) / (t^3 - t^2 + t - 1)', 'e15b99e514b0f219'),
    ),
    ({'lambda4': 36, 'lambda4star': 36, 'mu2': 24, 'lambda6': 9, 'lambda6star': 9, 'mu3': 18},
     ('(-36*t^4 + 60*t^3) / (t^2 - 2*t + 1)', '7f5be9a911937fb5'),
     ('(-9*t^5 + 9*t^4 - 18*t^3) / (t^3 - t^2 + t - 1)', '8a67570dba6df416'),
    ),
    ({'lambda4': 66, 'lambda4star': 66, 'mu2': 104, 'muT': 90},
     ('(-66*t^6 + 104*t^5 - 76*t^4 + 170*t^3) / (t^4 - t^3 - t + 1)', 'e1144ce20a3106d9'),
     ('0', '7848f184e4776277'),
    ),
    ({'lambda4': 47, 'lambda4star': 47, 'mu2': 74, 'muT': 64},
     ('(-47*t^6 + 74*t^5 - 54*t^4 + 121*t^3) / (t^4 - t^3 - t + 1)', 'b9896649dec5a719'),
     ('0', '7848f184e4776277'),
    ),
    ({'lambda4': 72, 'lambda4star': 72, 'mu2': 72, 'muT': 36, 'lambda6': 19, 'lambda6star': 19, 'mu3': 38},
     ('(-72*t^6 + 72*t^5 + 144*t^3) / (t^4 - t^3 - t + 1)', 'e98919256305701d'),
     ('(-19*t^5 + 19*t^4 - 38*t^3) / (t^3 - t^2 + t - 1)', '06894b2b36a135dd'),
    ),
    ({'lambda4': 34, 'lambda4star': 30, 'mu2': 60, 'muT': 60, 'lambda6': 28, 'lambda6star': 28, 'mu3': 56},
     ('(-38*t^6 + 60*t^5 - 60*t^4 + 98*t^3) / (t^4 - t^3 - t + 1)', 'c57e86ece945c601'),
     ('(-28*t^5 + 28*t^4 - 56*t^3) / (t^3 - t^2 + t - 1)', '16295a92232b423f'),
    ),
    ({'lambda4': 32, 'lambda4star': 32, 'mu2': 64, 'muT': 64, 'lambda6': 10, 'lambda6star': 8, 'mu3': 16},
     ('(-32*t^6 + 64*t^5 - 64*t^4 + 96*t^3) / (t^4 - t^3 - t + 1)', '1594bf725e9ac1e8'),
     ('(-12*t^5 + 8*t^4 - 20*t^3) / (t^3 - t^2 + t - 1)', '6cec702255cf884a'),
    ),
    ({'lambda4': 117, 'lambda4star': 104, 'mu2': 76, 'muT': 10, 'lambda6': 15, 'lambda6star': 15, 'mu3': 30},
     ('(-130*t^6 + 76*t^5 + 56*t^4 + 206*t^3) / (t^4 - t^3 - t + 1)', 'c7318b01b7582532'),
     ('(-15*t^5 + 15*t^4 - 30*t^3) / (t^3 - t^2 + t - 1)', 'e15b99e514b0f219'),
    ),
    ({'lambda4': 6, 'lambda4star': 6, 'mu2': 12, 'muT': 12, 'lambda6': 33, 'lambda6star': 33, 'mu3': 66},
     ('(-6*t^6 + 12*t^5 - 12*t^4 + 18*t^3) / (t^4 - t^3 - t + 1)', '42a27580692bbbe8'),
     ('(-33*t^5 + 33*t^4 - 66*t^3) / (t^3 - t^2 + t - 1)', '355d8cec418bff70'),
    ),
    ({'lambda4': 102, 'lambda4star': 63, 'mu2': 76, 'muT': 51, 'lambda6': 36, 'lambda6star': 15, 'mu3': 30},
     ('(-141*t^6 + 76*t^5 - 26*t^4 + 217*t^3) / (t^4 - t^3 - t + 1)', '62c48ad5101778d5'),
     ('(-57*t^5 + 15*t^4 - 72*t^3) / (t^3 - t^2 + t - 1)', '011e4e780b13f321'),
    ),
    ({'lambda4': 37, 'lambda4star': 37, 'mu2': 74, 'muT': 74},
     ('(-37*t^6 + 74*t^5 - 74*t^4 + 111*t^3) / (t^4 - t^3 - t + 1)', '47c0afc4c240067f'),
     ('0', '7848f184e4776277'),
    ),
    ({'lambda4': 107, 'lambda4star': 72, 'mu2': 84, 'muT': 54, 'lambda6': 38, 'lambda6star': 9, 'mu3': 18},
     ('(-142*t^6 + 84*t^5 - 24*t^4 + 226*t^3) / (t^4 - t^3 - t + 1)', '92dd6eaf49ad320e'),
     ('(-67*t^5 + 9*t^4 - 76*t^3) / (t^3 - t^2 + t - 1)', 'fc6bdae6f4d32dda'),
    ),
    ({'lambda4': 16, 'lambda4star': 3, 'mu2': 6, 'muT': 6, 'lambda6': 43, 'lambda6star': 17, 'mu3': 34},
     ('(-29*t^6 + 6*t^5 - 6*t^4 + 35*t^3) / (t^4 - t^3 - t + 1)', 'e1417aa8f9fcdd21'),
     ('(-69*t^5 + 17*t^4 - 86*t^3) / (t^3 - t^2 + t - 1)', 'f649e86a4ad18fcd'),
    ),
    ({'lambda4': 22, 'lambda4star': 22, 'mu2': 44, 'muT': 44, 'lambda6': 25, 'lambda6star': 12, 'mu3': 24},
     ('(-22*t^6 + 44*t^5 - 44*t^4 + 66*t^3) / (t^4 - t^3 - t + 1)', 'bbf0b9a00d5b3208'),
     ('(-38*t^5 + 12*t^4 - 50*t^3) / (t^3 - t^2 + t - 1)', '6200baecb503bf4b'),
    ),
    ({'lambda4': 68, 'lambda4star': 68, 'mu2': 68, 'muT': 34, 'lambda6': 4},
     ('(-68*t^6 + 68*t^5 + 136*t^3) / (t^4 - t^3 - t + 1)', '5e370ca2da9e892c'),
     ('(-8*t^3) / (t - 1)', 'b70e99a0d3b5e061'),
    ),
    ({'lambda4': 103, 'lambda4star': 103, 'mu2': 94, 'muT': 38},
     ('(-103*t^6 + 94*t^5 + 18*t^4 + 197*t^3) / (t^4 - t^3 - t + 1)', '31a6fd4f28a01e9f'),
     ('0', '7848f184e4776277'),
    ),
    ({'lambda4': 88, 'lambda4star': 71, 'mu2': 74, 'muT': 40, 'lambda6': 48, 'lambda6star': 33, 'mu3': 66},
     ('(-105*t^6 + 74*t^5 - 6*t^4 + 179*t^3) / (t^4 - t^3 - t + 1)', '4b6c7be5787ab958'),
     ('(-63*t^5 + 33*t^4 - 96*t^3) / (t^3 - t^2 + t - 1)', '7f03a77e66c93eed'),
    ),
    ({'lambda6': 39, 'lambda6star': 39, 'mu3': 78},
     ('0', '7848f184e4776277'),
     ('(-39*t^5 + 39*t^4 - 78*t^3) / (t^3 - t^2 + t - 1)', 'cfe1ea5a92b2356b'),
    ),
    ({'lambda4': 14, 'lambda4star': 14, 'mu2': 14, 'muT': 7, 'lambda6': 51, 'lambda6star': 12, 'mu3': 24},
     ('(-14*t^6 + 14*t^5 + 28*t^3) / (t^4 - t^3 - t + 1)', 'f9e55b836f96d51d'),
     ('(-90*t^5 + 12*t^4 - 102*t^3) / (t^3 - t^2 + t - 1)', '76d8599252d3fcca'),
    ),
    ({'lambda4': 129, 'lambda4star': 129, 'mu2': 94, 'muT': 12},
     ('(-129*t^6 + 94*t^5 + 70*t^4 + 223*t^3) / (t^4 - t^3 - t + 1)', '45cb96c2f793c247'),
     ('0', '7848f184e4776277'),
    ),
]


@pytest.mark.parametrize("census,two,three", PINNED_CENSUS_SERIES)
def test_census_series_match_pinned_outputs(census, two, three):
    c = SubgroupCensus(**census)
    for s, (text, digest) in zip((poincare_2torsion(c), poincare_3torsion(c)), (two, three)):
        assert str(s) == text
        coeffs = ",".join(str(x) for x in s.expand(120))
        assert hashlib.sha256(coeffs.encode()).hexdigest()[:16] == digest
