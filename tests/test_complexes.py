"""Tests for the orbit complex model, file format and classification."""

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.bredon import SUPPORTED_EDGE_TAGS, SUPPORTED_VERTEX_TAGS
from tsr.complexes import (INCLUSIONS, TAG_ORDERS, ComplexSchemaError, Incidence, OrbitCell,
                           OrbitComplex, classify_component,
                           connected_components, edge_end_assignments,
                           parse_complex, serialize_complex,
                           torsion_subcomplex)
from tsr.groups import (FiniteGroup, are_isomorphic, catalog_group, compose, invert,
                        subgroups)
from tsr.series import ORACLE_STABILIZERS

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "tsr" / "fixtures"
ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))


def load(name: str) -> OrbitComplex:
    return parse_complex(FIXTURES.joinpath(name).read_text())


def test_empty_complex():
    cx = parse_complex('{"rigid": true, "cells": [], "incidences": []}')
    assert cx.cells == ()
    assert cx.dimension == -1


def test_fixture_roundtrip_byte_identical():
    for name in ALL_FIXTURES:
        text = FIXTURES.joinpath(name).read_text()
        assert serialize_complex(parse_complex(text)) == text, name


def test_parse_serialize_identity():
    cx = load("graphtwo.json")
    assert parse_complex(serialize_complex(cx)) == cx


def reference_doc(cx: OrbitComplex) -> dict:
    """The document serialize_complex writes, as the dict that
    json.dumps(doc, indent=2) turns into the same bytes."""
    return {
        "rigid": True,
        "cells": [{"id": c.id, "dim": c.dim, "stabilizer": c.stabilizer,
                   "self_identified": c.self_identified}
                  for c in sorted(cx.cells, key=lambda c: (c.dim, c.id))],
        "incidences": [{"face": i.face, "coface": i.coface, "multiplicity": i.multiplicity}
                       for i in sorted(cx.incidences, key=lambda i: (i.face, i.coface))],
    }


#: Ids that need every kind of JSON escape: quotes, backslashes, control
#: characters, non-ASCII and astral characters, lone surrogates.  A high
#: surrogate before a low one is no id (test_surrogate_pair_id_rejected).
_IDS = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\xe9\u2028\U0001f600\ud800\udfff'),
                         st.characters()), min_size=1, max_size=6).filter(
    lambda s: not re.search("[\ud800-\udbff][\udc00-\udfff]", s))


@st.composite
def _complexes(draw) -> OrbitComplex:
    cells = [OrbitCell(i, draw(st.integers(0, 2)), draw(st.sampled_from(sorted(TAG_ORDERS))),
                       draw(st.booleans()))
             for i in draw(st.lists(_IDS, unique=True, max_size=8))]
    pairs = [(f.id, c.id) for f in cells for c in cells if c.dim == f.dim + 1]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return OrbitComplex(tuple(cells), tuple(
        Incidence(f, c, draw(st.integers(1, 10**12))) for f, c in chosen))


@settings(max_examples=300, deadline=None)
@given(_complexes())
def test_serialize_writes_the_bytes_of_json_dumps(cx):
    text = serialize_complex(cx)
    assert text == json.dumps(reference_doc(cx), indent=2) + "\n"
    assert serialize_complex(parse_complex(text)) == text


def test_omitted_multiplicity_is_one():
    cx = parse_complex('{"rigid": true, "cells": ['
                       '{"id": "v", "dim": 0, "stabilizer": "C2", "self_identified": false},'
                       '{"id": "e", "dim": 1, "stabilizer": "C2", "self_identified": false}],'
                       ' "incidences": [{"face": "v", "coface": "e"}]}')
    assert cx.incidences == (Incidence("v", "e", 1),)
    assert '"multiplicity": 1\n' in serialize_complex(cx)


def test_sl3_fixture_contents():
    cx = load("sl3z_soule.json")
    assert len(cx.cells_of_dim(2)) == 7
    assert sorted(c.id for c in cx.cells_of_dim(0)) == ["M", "N", "O", "P", "Q"]
    stabs = {c.id: c.stabilizer for c in cx.cells_of_dim(2)}
    assert sorted(stabs.values()).count("C2") == 6
    assert sorted(stabs.values()).count("D2") == 1


@pytest.mark.parametrize("text,fragment", [
    ('{"rigid": true, "cells": []}', "incidences"),
    ('{"rigid": true, "cells": [], "incidences": [], "extra": 1}', "unknown"),
    ('{"rigid": "yes", "cells": [], "incidences": []}', "rigid"),
    ('{"rigid": true, "cells": [{"id": "a", "dim": 0, "stabilizer": "X9", '
     '"self_identified": false}], "incidences": []}', "stabilizer"),
    # a list is no dict key: it must not raise TypeError
    ('{"rigid": true, "cells": [{"id": "a", "dim": 0, "stabilizer": [], '
     '"self_identified": false}], "incidences": []}', "stabilizer must be"),
    ('{"rigid": true, "cells": [{"id": "a", "dim": 0, "stabilizer": "C2", '
     '"self_identified": false}], "incidences": [{"face": "a", "coface": "b"}]}',
     "coface"),
    ('not json', "JSON"),
    # JSON true is a Python int; it must not pass as 1
    ('{"rigid": true, "cells": [{"id": "a", "dim": true, "stabilizer": "C2", '
     '"self_identified": false}], "incidences": []}', "dim must be"),
    ('{"rigid": true, "cells": [{"id": "a", "dim": 0, "stabilizer": "C2", '
     '"self_identified": false}, {"id": "e", "dim": 1, "stabilizer": "C2", '
     '"self_identified": false}], "incidences": [{"face": "a", "coface": "e", '
     '"multiplicity": true}]}', "multiplicity must be"),
    # a repeated key must not silently keep its last value
    ('{"rigid": true, "rigid": false, "cells": [], "incidences": []}',
     "key 'rigid' appears twice"),
    ('{"rigid": true, "cells": [{"id": "v", "id": "w", "dim": 0, "stabilizer": "C2", '
     '"self_identified": false}], "incidences": []}', "key 'id' appears twice"),
    # every record's shape is checked before any record's fields
    ('{"rigid": true, "cells": [{"id": "v", "dim": 0, "stabilizer": "Z9", '
     '"self_identified": false}, {"id": "w", "dim": 0, "stabilizer": "C2", '
     '"self_identified": false, "bogus": 1}], "incidences": []}',
     "$.cells[1]: unknown keys ['bogus']"),
    ('[]', "$: document must be an object"),
    ('{"rigid": true, "cells": [1], "incidences": []}', "$.cells[0]: cell must be an object"),
    # one (face, coface) pair is one record, however many times it bounds
    ('{"rigid": true, "cells": [{"id": "a", "dim": 0, "stabilizer": "C2", '
     '"self_identified": false}, {"id": "e", "dim": 1, "stabilizer": "C2", '
     '"self_identified": false}], "incidences": [{"face": "a", "coface": "e"}, '
     '{"face": "a", "coface": "e"}]}',
     "duplicate incidence records (use multiplicity instead)"),
])
def test_schema_errors(text, fragment):
    with pytest.raises(ComplexSchemaError) as err:
        parse_complex(text)
    assert fragment.lower() in str(err.value).lower()


def test_surrogate_pair_id_rejected():
    # json.loads reads the escaped pair back as U+103FF, so parsing what
    # serialize_complex wrote would rename the cell and reorder the cells
    with pytest.raises(ComplexSchemaError, match=r"\$\.cells\[1\]: id must not hold a surrogate pair"):
        OrbitComplex((OrbitCell("\udfff", 0, "C2"), OrbitCell("a\ud800\udfff", 0, "C2")), ())
    lone = OrbitComplex((OrbitCell("\udfff\ud800", 0, "C2"),), ())
    assert parse_complex(serialize_complex(lone)) == lone
    astral = parse_complex(serialize_complex(OrbitComplex((OrbitCell("\U000103ff", 0, "C2"),), ())))
    assert astral.cells[0].id == "\U000103ff"


def test_duplicate_ids_rejected():
    with pytest.raises(ComplexSchemaError, match="duplicate"):
        OrbitComplex((OrbitCell("a", 0, "C2"), OrbitCell("a", 0, "C2")), ())


def test_incidence_dimension_check():
    with pytest.raises(ComplexSchemaError, match="dimension"):
        OrbitComplex((OrbitCell("a", 0, "C2"), OrbitCell("b", 0, "C2")),
                     (Incidence("a", "b"),))


@pytest.mark.parametrize("cell,message", [
    (OrbitCell("v", 0, "Z9"), "$.cells[1]: stabilizer must be one of ['A4', "),
    (OrbitCell("v", -3, "C2"), "$.cells[1]: dim must be a non-negative integer"),
    (OrbitCell(5, 0, "C2"), "$.cells[1]: id must be a string"),
    (OrbitCell("", 0, "C2"), "$.cells[1]: id must be a string"),
    (OrbitCell("v", 0, "C2", "yes"), "$.cells[1]: self_identified must be a boolean"),
])
def test_hand_built_cells_are_checked_as_parsed_ones(cell, message):
    # the constructor runs every field check, for parsed and hand-built
    # records alike, so a later reader never meets a tag or a dimension
    # outside the catalog, and every complex that can be built serializes
    # to a document that parses
    with pytest.raises(ComplexSchemaError) as err:
        OrbitComplex((OrbitCell("w", 0, "C2"), cell), ())
    assert str(err.value).startswith(message)
    doc = {"rigid": True, "incidences": [], "cells": [
        {"id": c.id, "dim": c.dim, "stabilizer": c.stabilizer,
         "self_identified": c.self_identified}
        for c in (OrbitCell("w", 0, "C2"), cell)]}
    with pytest.raises(ComplexSchemaError) as parsed:
        parse_complex(json.dumps(doc))
    assert str(parsed.value) == str(err.value)


@pytest.mark.parametrize("multiplicity", [2.0, True, 0])
def test_hand_built_incidences_are_checked_as_parsed_ones(multiplicity):
    # a float or a boolean would reach the Bredon differentials as a
    # count, and the writer would print it where the parser refuses it
    cells = (OrbitCell("v", 0, "C2"), OrbitCell("e", 1, "C2"), OrbitCell("f", 1, "C2"))
    with pytest.raises(ComplexSchemaError) as err:
        OrbitComplex(cells, (Incidence("v", "e"), Incidence("v", "f", multiplicity)))
    assert str(err.value) == "$.incidences[1]: multiplicity must be a positive integer"
    doc = {"rigid": True, "cells": [c._asdict() for c in cells], "incidences": [
        {"face": "v", "coface": "e"}, {"face": "v", "coface": "f", "multiplicity": multiplicity}]}
    with pytest.raises(ComplexSchemaError) as parsed:
        parse_complex(json.dumps(doc))
    assert str(parsed.value) == str(err.value)


#: A valid complex: two vertices joined by one edge.
_CELLS = (OrbitCell("v", 0, "C2"), OrbitCell("w", 0, "D2", True), OrbitCell("e", 1, "C2"))
_INCIDENCES = (Incidence("v", "e"), Incidence("w", "e"))

#: Values each field check refuses.
_BAD_FIELDS = {
    "cells": {"id": [5, "", None], "self_identified": ["yes", 0, None],
              "dim": [-1, True, 1.0], "stabilizer": ["Z9", [], None]},
    "incidences": {"face": [3, None], "coface": [True, ["e"]],
                   "multiplicity": [0, True, 2.0]},
}


def _refusals(doc: dict) -> tuple[str, str]:
    """The messages of parse_complex on doc and of OrbitComplex on its records."""
    with pytest.raises(ComplexSchemaError) as parsed:
        parse_complex(json.dumps(doc))
    with pytest.raises(ComplexSchemaError) as built:
        OrbitComplex(tuple(OrbitCell(**c) for c in doc["cells"]),
                     tuple(Incidence(**i) for i in doc["incidences"]))
    return str(parsed.value), str(built.value)


def _document(**edits) -> dict:
    """The valid document with fields replaced, keyed like cells_0={"id": 5}."""
    doc = {"rigid": True, "cells": [c._asdict() for c in _CELLS],
           "incidences": [i._asdict() for i in _INCIDENCES]}
    for slot, fields in edits.items():
        key, k = slot.rsplit("_", 1)
        doc[key][int(k)].update(fields)
    return doc


@st.composite
def _documents_with_bad_fields(draw) -> dict:
    slots = [f"{key}_{k}" for key, records in (("cells", _CELLS), ("incidences", _INCIDENCES))
             for k in range(len(records))]
    edits = {}
    for slot in draw(st.lists(st.sampled_from(slots), min_size=2, unique=True)):
        bad = _BAD_FIELDS[slot.rsplit("_", 1)[0]]
        field = draw(st.sampled_from(sorted(bad)))
        edits[slot] = {field: draw(st.sampled_from(bad[field]))}
    return _document(**edits)


@settings(max_examples=300, deadline=None)
@given(_documents_with_bad_fields())
def test_parsing_and_construction_refuse_alike(doc):
    # one code path checks the fields, so both name the same record first
    parsed, built = _refusals(doc)
    assert parsed == built


@pytest.mark.parametrize("edits,message", [
    ({"cells_0": {"stabilizer": "Z9"}, "cells_1": {"id": 5}},
     "$.cells[0]: stabilizer must be one of ['A4', "),
    ({"cells_2": {"dim": -1}, "incidences_0": {"face": 3}},
     "$.cells[2]: dim must be a non-negative integer"),
    ({"incidences_0": {"multiplicity": True}, "incidences_1": {"coface": None}},
     "$.incidences[0]: multiplicity must be a positive integer"),
])
def test_the_first_bad_record_is_named(edits, message):
    parsed, built = _refusals(_document(**edits))
    assert parsed == built
    assert parsed.startswith(message)


def test_complexes_and_records_are_values():
    # complexes one multiplicity apart differ, so the replay check of
    # `tsr reduce` can fail; records are read-only
    cells = (OrbitCell("v", 0, "C2"), OrbitCell("e", 1, "C2"))
    loop = OrbitComplex(cells, (Incidence("v", "e", 2),))
    assert loop == OrbitComplex(cells, (Incidence("v", "e", 2),))
    assert hash(loop) == hash(OrbitComplex(cells, (Incidence("v", "e", 2),)))
    assert loop != OrbitComplex(cells, (Incidence("v", "e", 1),))
    assert repr(loop) == ("OrbitComplex(cells=(OrbitCell(id='v', dim=0, stabilizer='C2', "
                          "self_identified=False), OrbitCell(id='e', dim=1, stabilizer='C2', "
                          "self_identified=False)), incidences=(Incidence(face='v', "
                          "coface='e', multiplicity=2),))")
    for record, name in ((cells[0], "dim"), (loop.incidences[0], "multiplicity")):
        with pytest.raises(AttributeError):
            setattr(record, name, 3)


def test_lookups_match_a_scan_in_incidence_order():
    for name in ALL_FIXTURES:
        cx = load(name)
        for c in cx.cells:
            assert cx.cell(c.id) is c
            assert cx.faces(c.id) == [i for i in cx.incidences if i.coface == c.id]
            assert cx.cofaces(c.id) == [i for i in cx.incidences if i.face == c.id]


def test_lookups_of_an_unknown_id():
    cx = load("path_c2_d3_c2.json")
    with pytest.raises(KeyError):
        cx.cell("nope")
    assert cx.faces("nope") == []
    assert cx.cofaces("nope") == []


def test_torsion_subcomplex_sl3():
    cx = load("sl3z_soule.json")
    sub = torsion_subcomplex(cx, 2)
    assert len(sub.cells_of_dim(2)) == 7
    assert len(sub.cells) == len(cx.cells)


def test_torsion_subcomplex_no_order_five():
    cx = load("sl3z_soule.json")
    assert torsion_subcomplex(cx, 5).cells == ()


def test_torsion_subcomplex_path_at_three():
    cx = load("path_c2_d3_c2.json")
    sub = torsion_subcomplex(cx, 3)
    assert [(c.id, c.stabilizer) for c in sub.cells] == [("v2", "D3")]
    assert sub.incidences == ()


def test_torsion_subcomplex_idempotent():
    for name in ALL_FIXTURES:
        cx = load(name)
        for ell in (2, 3):
            once = torsion_subcomplex(cx, ell)
            assert torsion_subcomplex(once, ell) == once


def test_torsion_subcomplex_divisibility():
    from tsr.groups import TAG_ORDERS
    cx = load("sl3z_soule.json")
    for ell in (2, 3):
        sub = torsion_subcomplex(cx, ell)
        kept = {c.id for c in sub.cells}
        for c in cx.cells:
            assert (c.id in kept) == (TAG_ORDERS[c.stabilizer] % ell == 0)


def test_torsion_subcomplex_requires_rigid():
    # the rigid flag is read only by parse_complex, so a non-rigid document
    # is refused before torsion_subcomplex sees it
    text = ('{"rigid": true, "cells": [{"id": "a", "dim": 0, "stabilizer": "C2", '
            '"self_identified": false}], "incidences": []}')
    assert [c.id for c in torsion_subcomplex(parse_complex(text), 2).cells] == ["a"]
    with pytest.raises(ValueError, match="rigid must be true"):
        torsion_subcomplex(parse_complex(text.replace("true", "false")), 2)


@pytest.mark.parametrize("rigid", ['"rigid": false, ', '"rigid": "yes", ', ""],
                         ids=["false", "string", "missing"])
def test_parse_refuses_a_non_rigid_document(rigid):
    # reduction, Bredon chains and the oracle assume rigidity, so no
    # complex without it is ever built from a document
    with pytest.raises(ComplexSchemaError) as err:
        parse_complex("{" + rigid + '"cells": [], "incidences": []}')
    assert str(err.value) == "$.rigid: rigid must be true"


def test_connected_components_empty():
    assert connected_components(OrbitComplex((), ())) == []


def test_connected_components_two_loops():
    cells = (OrbitCell("u", 0, "C2"), OrbitCell("a", 1, "C2"),
             OrbitCell("v", 0, "C2"), OrbitCell("b", 1, "C2"))
    incs = (Incidence("u", "a", 2), Incidence("v", "b", 2))
    comps = connected_components(OrbitComplex(cells, incs))
    assert len(comps) == 2
    assert sum(len(c.cells) for c in comps) == 4


def _components_by_rescan(cx):
    """The partition read off one rescan of all records per component."""
    parent = {c.id: c.id for c in cx.cells}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for inc in cx.incidences:
        parent[find(inc.face)] = find(inc.coface)
    groups = {}
    for c in cx.cells:
        groups.setdefault(find(c.id), set()).add(c.id)
    comps = [OrbitComplex(tuple(c for c in cx.cells if c.id in ids),
                          tuple(i for i in cx.incidences if i.face in ids))
             for ids in groups.values()]
    return sorted(comps, key=lambda comp: min(c.id for c in comp.cells))


def _random_graph(rng):
    ids = rng.sample(range(1000), 60)
    cells, incs = [], []
    for _ in range(rng.randint(1, 8)):
        verts = [f"v{ids.pop()}" for _ in range(rng.randint(1, 3))]
        cells += [OrbitCell(v, 0, "C2") for v in verts]
        for _ in range(rng.randint(0, 3)):
            e, (a, b) = f"e{ids.pop()}", (rng.choice(verts), rng.choice(verts))
            cells.append(OrbitCell(e, 1, "C2"))
            incs += [Incidence(a, e, 2)] if a == b else [Incidence(a, e), Incidence(b, e)]
    rng.shuffle(cells)
    rng.shuffle(incs)
    return OrbitComplex(tuple(cells), tuple(incs))


def test_connected_components_match_rescan():
    rng = random.Random(20261018)
    for _ in range(200):
        cx = _random_graph(rng)
        assert connected_components(cx) == _components_by_rescan(cx)


def test_sl3_two_subcomplex_connected():
    sub = torsion_subcomplex(load("sl3z_soule.json"), 2)
    assert len(connected_components(sub)) == 1


def test_classification_of_fixtures():
    assert classify_component(load("bianchi_circle2.json")) == "Circle"
    assert classify_component(load("bianchi_edge3.json")) == "Edge"
    assert classify_component(load("graphfive.json")) == "GraphFive"
    assert classify_component(load("graphtwo.json")) == "GraphTwo"


def test_classification_edge_with_a4_endpoints():
    cx = OrbitComplex((OrbitCell("u", 0, "A4"), OrbitCell("v", 0, "A4"),
                       OrbitCell("e", 1, "C2")),
                      (Incidence("u", "e"), Incidence("v", "e")))
    assert classify_component(cx) == "Edge"


def test_classification_invariant_under_reordering():
    cx = load("graphfive.json")
    shuffled = OrbitComplex(tuple(reversed(cx.cells)),
                            tuple(reversed(cx.incidences)))
    assert classify_component(shuffled) == "GraphFive"


def test_classification_of_a_point_and_a_two_dimensional_component():
    assert classify_component(OrbitComplex((OrbitCell("v", 0, "D3"),), ())) == "Point"
    sub = torsion_subcomplex(load("sl3z_soule.json"), 2)
    assert sub.dimension == 2 and len(connected_components(sub)) == 1
    assert classify_component(sub) == "Other"


def test_edge_end_assignments_theta():
    vertices, edges, ends = edge_end_assignments(load("graphfive.json"))
    assert [v.id for v in vertices] == ["u", "v"]
    assert [e.id for e in edges] == ["a", "b", "c"]
    # edge by edge, the +1 end first; at each D2 vertex the three C2
    # edges use the three embedding classes in rotation
    assert ends == ((0, 0, 1, 0), (1, 0, -1, 0), (0, 1, 1, 1), (1, 1, -1, 1),
                    (0, 2, 1, 2), (1, 2, -1, 2))


def test_edge_end_assignments_loop():
    vertices, edges, ends = edge_end_assignments(load("bianchi_circle2.json"))
    assert [v.id for v in vertices] == ["v1"] and [e.id for e in edges] == ["e1"]
    assert ends == ((0, 0, 1, 0), (0, 0, -1, 0))


def test_edge_end_assignments_rejects_dangling_edge():
    cx = OrbitComplex((OrbitCell("v", 0, "C2"), OrbitCell("e", 1, "C2")),
                      (Incidence("v", "e", 1),))
    with pytest.raises(ValueError, match="end slots"):
        edge_end_assignments(cx)


def _conjugacy_classes_of_copies(sub: str, group: str) -> int:
    """The number of conjugacy classes of subgroups of the catalog group
    `group` that are isomorphic to the catalog group `sub`."""
    G, S = catalog_group(group), catalog_group(sub)
    copies = {H for H in subgroups(G) if are_isomorphic(H, S)}
    classes = 0
    while copies:
        H = copies.pop()
        copies -= {FiniteGroup(G.degree, [compose(compose(g, h), invert(g)) for h in H.elements])
                   for g in G.elements}
        classes += 1
    return classes


def test_inclusion_table_counts_conjugacy_classes():
    # both consumers' domains: Bredon edges in Bredon vertices, and the
    # oracle's stabilizers in each other
    pairs = ({(s, g) for s in SUPPORTED_EDGE_TAGS for g in SUPPORTED_VERTEX_TAGS}
             | {(s, g) for s in ORACLE_STABILIZERS for g in ORACLE_STABILIZERS})
    assert len(pairs) == 28
    for s, g in sorted(pairs):
        assert _conjugacy_classes_of_copies(s, g) == INCLUSIONS.get((s, g), 0), (s, g)
    assert pairs >= INCLUSIONS.keys()
