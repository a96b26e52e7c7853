"""Tests for the finite group engine and the homology oracle."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

import tsr.groups as groups
from tsr._modp import rank_mod
from tsr.groups import (CATALOG_TAGS, CHARACTER_TABLES, FUSIONS, TAG_ORDERS,
                        FiniteGroup, are_isomorphic, catalog_group, center,
                        check_orthogonality, compose, dihedral_group,
                        induction_by_reciprocity,
                        dihedral_mod_ell_homology, has_trivial_mod_ell_cohomology,
                        invert, is_ell_normal,
                        mod_ell_homology_bruteforce, normal_subgroups,
                        normalizer, perm_order, quotient_group, subgroups,
                        sylow_subgroup, all_sylow_subgroups)
from tsr.series import stabilizer_cohomology_dim


def test_catalog_orders():
    for tag, order in TAG_ORDERS.items():
        assert catalog_group(tag).order == order


def test_catalog_c2_elements():
    c2 = catalog_group("C2")
    assert set(c2.elements) == {(0, 1), (1, 0)}


def test_catalog_a4_is_even_permutations():
    a4 = catalog_group("A4")
    assert a4.order == 12
    for g in a4.elements:
        # parity via inversion count
        inversions = sum(1 for i in range(4) for j in range(i + 1, 4)
                         if g[i] > g[j])
        assert inversions % 2 == 0


def test_catalog_s4_full_symmetric():
    assert catalog_group("S4").order == 24


def test_catalog_unknown_tag():
    with pytest.raises(ValueError):
        catalog_group("D5")


def test_broken_pinned_generators_raise_under_optimize():
    # python -O strips bare asserts; the order check must survive it
    code = ("import tsr.groups as g\n"
            "g._CATALOG_GENERATORS['C3'] = (3, ((1, 0, 2),))\n"
            "g.catalog_group('C3')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode != 0
    assert "AssertionError: pinned generators of C3 give order 2" in proc.stderr


def test_normal_subgroups_c2():
    orders = sorted(h.order for h in normal_subgroups(catalog_group("C2")))
    assert orders == [1, 2]


def test_normal_subgroups_d3():
    orders = sorted(h.order for h in normal_subgroups(catalog_group("D3")))
    assert orders == [1, 3, 6]


def test_normal_subgroups_a4():
    subs = normal_subgroups(catalog_group("A4"))
    orders = sorted(h.order for h in subs)
    assert orders == [1, 4, 12]
    v4 = next(h for h in subs if h.order == 4)
    assert are_isomorphic(v4, catalog_group("D2"))


def test_sylow_d3():
    syl = sylow_subgroup(catalog_group("D3"), 3)
    assert syl.order == 3
    assert are_isomorphic(syl, catalog_group("C3"))


def test_sylow_a4_is_klein():
    syl = sylow_subgroup(catalog_group("A4"), 2)
    assert are_isomorphic(syl, catalog_group("D2"))


def test_sylow_trivial_when_coprime():
    assert sylow_subgroup(catalog_group("C2"), 3).order == 1


def test_sylow_order_is_ell_part():
    for tag in TAG_ORDERS:
        G = catalog_group(tag)
        for ell in (2, 3):
            syl = sylow_subgroup(G, ell)
            assert G.order % syl.order == 0
            rest = G.order // syl.order
            assert rest % ell != 0
            assert syl.order & (syl.order - 1) == 0 or ell != 2 or syl.order == 1


def test_sylows_are_conjugate():
    for tag in TAG_ORDERS:
        G = catalog_group(tag)
        for ell in (2, 3):
            sylows = all_sylow_subgroups(G, ell)
            base = sylows[0]
            for other in sylows[1:]:
                assert any(
                    FiniteGroup(G.degree,
                                [compose(compose(g, h), invert(g))
                                 for h in base.elements]) == other
                    for g in G.elements)


def test_center_d2_is_whole_group():
    assert center(catalog_group("D2")).order == 4


def test_center_d4():
    assert center(catalog_group("D4")).order == 2


def test_normalizer_of_sylow2_in_s4():
    s4 = catalog_group("S4")
    syl = sylow_subgroup(s4, 2)
    assert normalizer(s4, syl).order == 8


def test_normalizer_requires_subgroup():
    with pytest.raises(ValueError):
        normalizer(catalog_group("D3"), catalog_group("C4"))


def test_ell_normal():
    assert is_ell_normal(catalog_group("A4"), 2)
    assert is_ell_normal(catalog_group("D3"), 3)
    assert is_ell_normal(catalog_group("C6"), 2)
    assert not is_ell_normal(catalog_group("S4"), 2)
    # vacuous when ell does not divide the order
    assert is_ell_normal(catalog_group("C2"), 3)


def test_isomorphism_negative():
    assert not are_isomorphic(catalog_group("D2"), catalog_group("C4"))


def test_isomorphism_identity():
    for tag in TAG_ORDERS:
        G = catalog_group(tag)
        assert are_isomorphic(G, G)


def test_isomorphism_with_embedded_copy():
    s4 = catalog_group("S4")
    order6 = [h for h in subgroups(s4) if h.order == 6]
    assert order6
    for h in order6:
        assert are_isomorphic(h, catalog_group("D3"))


def test_isomorphism_separates_catalog():
    tags = list(TAG_ORDERS)
    for a in tags:
        for b in tags:
            got = are_isomorphic(catalog_group(a), catalog_group(b))
            assert got == (a == b)


def test_catalog_tags_pairwise_non_isomorphic():
    # condition A compares stabilizer tags instead of testing isomorphism,
    # which is exact only while no two tags name isomorphic groups: the
    # order and the multiset of element orders already tell them apart
    fingerprints = {}
    for tag in CATALOG_TAGS:
        G = catalog_group(tag)
        key = (G.order, tuple(sorted(perm_order(g) for g in G.elements)))
        assert key not in fingerprints, (tag, fingerprints.get(key))
        fingerprints[key] = tag
    assert set(CATALOG_TAGS) == set(TAG_ORDERS)


def test_quotient_group():
    d3 = catalog_group("D3")
    q = quotient_group(d3, sylow_subgroup(d3, 3))
    assert q.order == 2
    with pytest.raises(ValueError):
        # a reflection subgroup is not normal in D3
        refl = next(h for h in subgroups(d3)
                    if h.order == 2)
        quotient_group(d3, refl)


def test_trivial_mod_ell_cohomology():
    assert has_trivial_mod_ell_cohomology(catalog_group("C3"), 2)
    assert not has_trivial_mod_ell_cohomology(catalog_group("C2"), 2)
    assert not has_trivial_mod_ell_cohomology(catalog_group("D3"), 3)


def test_dihedral_formula_values():
    assert dihedral_mod_ell_homology(3, 3, 3) == 1
    assert dihedral_mod_ell_homology(3, 3, 1) == 0
    assert dihedral_mod_ell_homology(5, 3, 4) == 0
    assert dihedral_mod_ell_homology(3, 3, 0) == 1
    assert dihedral_mod_ell_homology(5, 5, 4) == 1


def test_dihedral_formula_rejects_two():
    with pytest.raises(ValueError):
        dihedral_mod_ell_homology(3, 2, 1)


def test_bruteforce_c2_mod2():
    assert mod_ell_homology_bruteforce(catalog_group("C2"), 2, 3) == [1, 1, 1, 1]


def test_bruteforce_c3_mod2():
    assert mod_ell_homology_bruteforce(catalog_group("C3"), 2, 3) == [1, 0, 0, 0]


def test_bruteforce_d3_mod3_matches_formula():
    dims = mod_ell_homology_bruteforce(catalog_group("D3"), 3, 4)
    assert dims == [1, 0, 0, 1, 1]
    assert dims == [dihedral_mod_ell_homology(3, 3, q) for q in range(5)]


#: Every brute-force case the census-oracles benchmark workload times, as
#: (tag, ell, q_max), checked against the pinned stabilizer table, or, when
#: marked "dihedral", against the closed form for the dihedral group D_n.
BENCH_BRUTEFORCE_CASES = [
    ("C1", 2, 8), ("C2", 2, 15), ("C2", 3, 15), ("C3", 3, 9), ("C3", 2, 9),
    ("D2", 2, 7), ("D2", 3, 7), ("D3", 2, 5), ("D3", 3, 5),
    ("D3", 3, 5, "dihedral"), ("D4", 3, 4, "dihedral"), ("D5", 3, 4, "dihedral"),
    ("D5", 5, 4, "dihedral"), ("D6", 3, 3, "dihedral"), ("D7", 7, 3, "dihedral"),
    ("D7", 3, 3, "dihedral"),
]


@pytest.mark.parametrize("case", BENCH_BRUTEFORCE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_bruteforce_matches_the_pinned_dims(case):
    tag, ell, q_max = case[:3]
    if len(case) == 4:
        n = int(tag[1:])
        group, want = dihedral_group(n), [dihedral_mod_ell_homology(n, ell, q)
                                          for q in range(q_max + 1)]
    else:
        group = catalog_group(tag)
        want = [stabilizer_cohomology_dim(tag, ell, q) for q in range(q_max + 1)]
    assert mod_ell_homology_bruteforce(group, ell, q_max) == want


def test_bruteforce_translates_act_from_the_left(monkeypatch):
    # column k * n + g of each phi is elements[g] acting on generator k
    # (column k * n, elements[0] being the identity) by left multiplication;
    # D3 is not abelian, so a right action would differ
    G = catalog_group("D3")
    elems, phis, kernel = list(G.elements), [], groups.nullspace_mod
    n, index = len(elems), {g: i for i, g in enumerate(elems)}

    def record(rows, p, cols):
        phis.append(([dict(r) for r in rows], cols))
        return kernel(rows, p, cols)

    monkeypatch.setattr(groups, "nullspace_mod", record)
    assert mod_ell_homology_bruteforce(G, 3, 3) == [1, 0, 0, 1]
    assert len(phis) == 5  # the augmentation's kernel, then one phi per degree
    for rows, cols in phis[1:]:
        columns = [{} for _ in range(cols)]
        for j, row in enumerate(rows):
            for c, x in row.items():
                columns[c][j] = x
        for k in range(0, cols, n):
            for gi, g in enumerate(elems):
                assert columns[k + gi] == {j - j % n + index[compose(g, elems[j % n])]: x
                                           for j, x in columns[k].items()}


def test_bruteforce_resource_bound():
    with pytest.raises(ValueError, match="resource bound"):
        mod_ell_homology_bruteforce(catalog_group("S4"), 2, 3)


def homology_via_bar(G, p, q_max):
    """Reference oracle: the normalized bar complex, ranked over F_p.
    Its chain groups grow like (|G|-1)^q, so it only suits tiny cases."""
    ident = G.identity
    nontriv = [g for g in G.elements if g != ident]
    m = len(nontriv)
    if m == 0:
        return [1] + [0] * q_max
    index = {g: i for i, g in enumerate(nontriv)}
    prod = [[index.get(compose(a, b)) for b in nontriv] for a in nontriv]

    def pos(tup):
        k = 0
        for t in tup:
            k = k * m + t
        return k

    ranks = [0] * (q_max + 2)
    for q in range(1, q_max + 2):
        d = np.zeros((m ** (q - 1), m ** q), dtype=np.int64)
        for ci, tup in enumerate(itertools.product(range(m), repeat=q)):
            d[pos(tup[1:]), ci] += 1
            for i in range(q - 1):
                j = prod[tup[i]][tup[i + 1]]
                if j is not None:  # identity products vanish (normalized)
                    merged = tup[:i] + (j,) + tup[i + 2:]
                    d[pos(merged), ci] += (-1) ** (i + 1)
            d[pos(tup[:-1]), ci] += (-1) ** q
        ranks[q] = rank_mod(d, p)
    dims = [1 - ranks[1]]
    for q in range(1, q_max + 1):
        dims.append(m ** q - ranks[q] - ranks[q + 1])
    return dims


def test_bar_and_resolution_agree():
    cases = [("C2", 2, 3), ("C2", 3, 3), ("C3", 2, 3), ("C3", 3, 3),
             ("C4", 2, 3), ("D2", 2, 3), ("D3", 2, 3), ("D3", 3, 3)]
    for tag, ell, q_max in cases:
        G = catalog_group(tag)
        bar = homology_via_bar(G, ell, q_max)
        res = mod_ell_homology_bruteforce(G, ell, q_max)
        assert bar == res, (tag, ell)


def test_bruteforce_dihedral_tags_match_formula_mod3():
    for tag, n in (("D2", 2), ("D3", 3), ("D4", 4), ("D6", 6)):
        G = catalog_group(tag)
        q_max = 3
        dims = mod_ell_homology_bruteforce(G, 3, q_max)
        assert dims == [dihedral_mod_ell_homology(n, 3, q) for q in range(q_max + 1)]


def test_trivial_cohomology_iff_bruteforce_vanishes():
    for tag in ("C2", "C3", "C4", "C6", "D2", "D3"):
        G = catalog_group(tag)
        for ell in (2, 3):
            dims = mod_ell_homology_bruteforce(G, ell, 3)
            vanishes = all(d == 0 for d in dims[1:])
            assert vanishes == has_trivial_mod_ell_cohomology(G, ell), (tag, ell)


def test_homology_of_trivial_group():
    assert mod_ell_homology_bruteforce(catalog_group("C1"), 2, 3) == [1, 0, 0, 0]


def test_dihedral_constructor():
    d5 = dihedral_group(5)
    assert d5.order == 10
    assert perm_order(max(d5.elements)) in (2, 5)
    assert dihedral_group(2) == catalog_group("D2")
    assert are_isomorphic(dihedral_group(3), catalog_group("D3"))


def test_representation_oracle_catches_corruption(monkeypatch):
    # C3 -> D3 sending g^2 to the reflections is no class fusion: the sign
    # character restricts to a non-character, with multiplicity 1/3
    monkeypatch.setitem(FUSIONS, ("C3", "D3", 0), (0, 1, 2))
    with pytest.raises(AssertionError, match="non-integral"):
        induction_by_reciprocity("C3", "D3")
    sizes, chars = CHARACTER_TABLES["D3"]
    monkeypatch.setitem(CHARACTER_TABLES, "D3", (sizes, chars[:2] + (((2, 0), (1, 0), (0, 0)),)))
    with pytest.raises(AssertionError, match="row orthogonality"):
        check_orthogonality("D3")
