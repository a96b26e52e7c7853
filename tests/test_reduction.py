"""Tests for conditions A and B', the moves, and the reduction fixpoint."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.complexes import (Incidence, OrbitCell, OrbitComplex, classify_components,
                           parse_complex, serialize_complex, torsion_subcomplex)
from tsr.groups import (CATALOG_TAGS, TAG_ORDERS, are_isomorphic,
                        catalog_group, condition_B_prime_search,
                        mod_ell_homology_bruteforce)
from tsr.reduction import (Move, ReductionLog, _rule_failure, apply_move,
                           check_condition_B_prime, reduce_complex, replay,
                           scripted_merge)

from documents import cells_of_dim, circles, d3_c2_circle, d3_c2_path, load, non_rigid


# --------------------------------------------------------------------------
# Condition A


def refusal(cx: OrbitComplex, move: Move, ell: int = 2) -> str:
    """The message with which apply_move refuses the move."""
    with pytest.raises(ValueError) as exc:
        apply_move(cx, move, ell)
    return str(exc.value)


def two_edges_at_s(s_tag="C2", t1_self_identified=False, triangle_over_t1=False):
    """w - t1 - s - t2 - x with C2 on every cell but s, optionally with t1
    self-identified or bounding a triangle."""
    cells = (OrbitCell("s", 0, s_tag), OrbitCell("t1", 1, "C2", t1_self_identified),
             OrbitCell("t2", 1, "C2"), OrbitCell("w", 0, "C2"),
             OrbitCell("x", 0, "C2"))
    incs = (Incidence("s", "t1"), Incidence("s", "t2"),
            Incidence("w", "t1"), Incidence("x", "t2"))
    if triangle_over_t1:
        cells += (OrbitCell("f", 2, "C2"),)
        incs += (Incidence("t1", "f"),)
    return OrbitComplex(cells, incs)


def test_condition_a_path_vertex():
    merged = apply_move(load("path_c2_d3_c2.json"), Move("merge", "v2", ("e1", "e2"), ""), 2)
    assert sorted(c.id for c in merged.cells) == ["e1+", "v1", "v3"]


def test_condition_a_fails_on_unlike_stabilizers():
    # at Q the edges carry D2 and C2, which are not isomorphic
    move = Move("merge", "Q", ("f1_OQ", "f2_QM"), "")
    assert refusal(load("sl3z_intermediate.json"), move) == "merge at 'Q': condition A fails"


def test_condition_a_fails_with_three_cofaces():
    move = Move("merge", "u", ("a", "b"), "")
    assert refusal(load("graphfive.json"), move) == "merge at 'u': condition A fails"


def test_condition_a_dimension_error():
    # e1 is a top cell, so it bounds nothing; the forced merge names the
    # dimensions its arguments have
    move = Move("merge", "e1", ("v1", "v2"), "")
    assert refusal(load("path_c2_d3_c2.json"), move) == "merge at 'e1': condition A fails"
    with pytest.raises(ValueError, match=r"tau cells must have dimension dim\(sigma\) \+ 1"):
        scripted_merge(load("path_c2_d3_c2.json"), "e1", "v1", "v2")


def test_condition_a_blocked_by_higher_cells():
    # s bounds exactly two like edges, but a triangle sits above t1; in the
    # 2-dimensional SL3 complex, Q bounds three edges that bound triangles
    move = Move("merge", "s", ("t1", "t2"), "")
    assert cells_of_dim(apply_move(two_edges_at_s(), move, 2), 1)[0].id == "t1+"
    blocked = two_edges_at_s(triangle_over_t1=True)
    for incs in (blocked.incidences, blocked.incidences[::-1]):  # s reads t1 first, then last
        assert refusal(OrbitComplex(blocked.cells, incs), move) == "merge at 's': condition A fails"
    move = Move("merge", "Q", ("e01_QN", "e08_MQ"), "")
    assert refusal(load("sl3z_soule.json"), move) == "merge at 'Q': condition A fails"


def test_condition_a_needs_multiplicity_one_on_both_taus():
    # s bounds t1 twice: whichever of its two incidences s reads first
    cx = two_edges_at_s()
    incs = (Incidence("s", "t1", 2),) + cx.incidences[1:]
    move = Move("merge", "s", ("t1", "t2"), "")
    for order in (incs, incs[::-1]):
        assert refusal(OrbitComplex(cx.cells, order), move) == "merge at 's': condition A fails"


def test_condition_a_self_identified_blocks():
    move = Move("merge", "s", ("t1", "t2"), "")
    cx = two_edges_at_s(t1_self_identified=True)
    for incs in (cx.incidences, cx.incidences[::-1]):  # s reads t1 first, then last
        assert refusal(OrbitComplex(cx.cells, incs), move) == "merge at 's': condition A fails"


# --------------------------------------------------------------------------
# Condition B'


@pytest.mark.parametrize("sigma,tau,ell,expect", [
    ("D3", "C2", 2, "B'(1)"),
    ("C2", "C2", 2, "B'(1)"),
    ("D4", "D4", 2, "B'(1)"),
    ("C3", "C3", 3, "B'(1)"),
    ("D6", "D2", 2, "B'(1)"),
    ("S4", "D3", 3, "B'(1)"),
    ("D3", "C3", 3, None),
    ("D2", "C2", 2, None),
    ("A4", "C2", 2, None),
    ("S4", "D2", 2, None),
    ("S4", "D4", 2, None),
    ("D4", "C2", 2, None),
])
def test_condition_b_prime_table(sigma, tau, ell, expect):
    assert check_condition_B_prime(sigma, tau, ell) == expect


#: Every catalog pair (sigma, tau) that passes condition B', per prime,
#: as {sigma: "tau ..."}; all pass by clause B'(1), and every other pair
#: of catalog tags gives None.
B_PRIME_PASSING = {
    2: {
        "C1": "C1 C3",
        "C2": "C2 C6 D3",
        "C3": "C1 C3",
        "C4": "C4",
        "C6": "C2 C6 D3",
        "D2": "D2 D6",
        "D3": "C2 C6 D3",
        "D4": "D4",
        "D6": "D2 D6",
        "A4": "A4",
        "S4": "S4",
    },
    3: {
        "C1": "C1 C2 C4 D2 D4",
        "C2": "C1 C2 C4 D2 D4",
        "C3": "C3 C6 A4",
        "C4": "C1 C2 C4 D2 D4",
        "C6": "C3 C6 A4",
        "D2": "C1 C2 C4 D2 D4",
        "D3": "D3 D6 S4",
        "D4": "C1 C2 C4 D2 D4",
        "D6": "D3 D6 S4",
        "A4": "C3 C6 A4",
        "S4": "D3 D6 S4",
    },
}


@pytest.mark.parametrize("ell", (2, 3))
def test_b_prime_catalog_table(ell):
    got = {(s, t): check_condition_B_prime(s, t, ell)
           for s in CATALOG_TAGS for t in CATALOG_TAGS}
    passing = {(s, t) for s, taus in B_PRIME_PASSING[ell].items() for t in taus.split()}
    assert len(got) == 121 and len(passing) == {2: 21, 3: 43}[ell]
    assert got == {pair: "B'(1)" if pair in passing else None for pair in got}


def test_b_prime_table_matches_exhaustive_search():
    # the pinned table against the paper's three-clause search, which
    # returns its first satisfied clause
    for ell in (2, 3, 5, 7):
        for s in CATALOG_TAGS:
            for t in CATALOG_TAGS:
                assert (check_condition_B_prime(s, t, ell)
                        == condition_B_prime_search(s, t, ell)), (s, t, ell)


@pytest.mark.parametrize("sigma,tau", [("C4", "C4"), ("D2", "C2"), ("S4", "S4")])
@pytest.mark.parametrize("ell", (0, 1, 4, 6, 9))
def test_b_prime_rejects_non_prime(sigma, tau, ell):
    with pytest.raises(ValueError, match=f"{ell} is not prime"):
        check_condition_B_prime(sigma, tau, ell)


@pytest.mark.parametrize("ell", (2, 3, 5))
def test_b_prime_rejects_unknown_tag(ell):
    for pair in (("X", "C2"), ("C2", "X")):
        with pytest.raises(ValueError, match="unknown catalog tag 'X'"):
            check_condition_B_prime(*pair, ell)


def test_reduce_rejects_non_prime():
    with pytest.raises(ValueError, match="4 is not prime"):
        reduce_complex(load("sl3z_soule.json"), 4)


@pytest.mark.parametrize("ell", (0, 4, 6, 9))
def test_reduce_rejects_non_prime_before_any_candidate(ell):
    # no cell of this complex starts a move, so no B' check is reached
    with pytest.raises(ValueError, match="is not prime"):
        reduce_complex(load("bianchi_edge3.json"), ell)


def test_b_prime_soundness_dimension_check():
    # wherever some clause holds, the two stabilizers have equal mod-ell
    # homology dimensions (the assertable shadow of the cohomology iso)
    tags = ["C1", "C2", "C3", "C4", "C6", "D2", "D3", "D4", "D6", "A4"]
    for ell in (2, 3):
        for s in tags:
            for t in tags:
                if check_condition_B_prime(s, t, ell) is None:
                    continue
                q_max = 3
                ds = mod_ell_homology_bruteforce(catalog_group(s), ell, q_max)
                dt = mod_ell_homology_bruteforce(catalog_group(t), ell, q_max)
                assert ds == dt, (s, t, ell)


# --------------------------------------------------------------------------
# Moves


def test_merge_path():
    # condition A holds at v2, and D3 over C2 passes B'
    cx = load("path_c2_d3_c2.json")
    merged = apply_move(cx, Move("merge", "v2", ("e1", "e2"), ""), 2)
    ids = sorted(c.id for c in merged.cells)
    assert ids == ["e1+", "v1", "v3"]
    ends = sorted(i.face for i in merged.faces("e1+"))
    assert ends == ["v1", "v3"]


def test_merge_rejects_non_candidate():
    # condition A holds at s, but D2 over C2 fails B' at ell = 2
    move = Move("merge", "s", ("t1", "t2"), "")
    assert refusal(two_edges_at_s("D2"), move) == "merge at 's': condition B' fails"


def test_merge_two_edge_loop_gives_circle():
    cells = (OrbitCell("u", 0, "D3"), OrbitCell("v", 0, "D3"),
             OrbitCell("a", 1, "C2"), OrbitCell("b", 1, "C2"))
    incs = (Incidence("u", "a"), Incidence("v", "a"),
            Incidence("u", "b"), Incidence("v", "b"))
    cx = OrbitComplex(cells, incs)
    out = apply_move(cx, Move("merge", "u", ("a", "b"), ""), 2)
    assert len(cells_of_dim(out, 1)) == 1
    loop = cells_of_dim(out, 1)[0]
    (inc,) = out.faces(loop.id)
    assert inc.multiplicity == 2
    assert classify_components(out) == [("a+", "Circle")]


def test_reduce_two_edge_loop_to_circle():
    cells = (OrbitCell("u", 0, "D3"), OrbitCell("v", 0, "D3"),
             OrbitCell("a", 1, "C2"), OrbitCell("b", 1, "C2"))
    incs = (Incidence("u", "a"), Incidence("v", "a"),
            Incidence("u", "b"), Incidence("v", "b"))
    reduced, log = reduce_complex(OrbitComplex(cells, incs), 2)
    assert [m.kind for m in log.moves] == ["merge"]
    assert classify_components(reduced) == [("a+", "Circle")]


def test_find_terminal_cells():
    # the terminal cells are those that start a cut; N in the SL3 complex
    # is one, and no cell of a circle or of a bare vertex is
    apply_move(load("sl3z_intermediate.json"), Move("cut", "N", ("f4_PN",), ""), 2)
    bare = OrbitComplex((OrbitCell("v", 0, "C2"),), ())
    for cx in (load("bianchi_circle2.json"), bare):
        for c in cx.cells:
            assert refusal(cx, Move("cut", c.id, ("v",), "")) == (
                f"cut at {c.id!r}: not a terminal pair")


def test_cut_sl3_terminal_branch():
    cx = load("sl3z_intermediate.json")
    out = apply_move(cx, Move("cut", "N", ("f4_PN",), ""), 2)
    assert "N" not in {c.id for c in out.cells}
    assert "f4_PN" not in {c.id for c in out.cells}
    assert len(out.cells) == 7


def test_cut_c2_leaf_removable():
    cx = load("chain_c2_c2_d3.json")
    out = apply_move(cx, Move("cut", "v1", ("e1",), ""), 2)
    assert len(out.cells) == 3


FORGED_MOVES = [
    ("sl3z_intermediate.json", Move("cut", "N", ("f1_OQ",), ""),
     "cut at 'N': its top cells are ['f4_PN']"),
    ("graphfive.json", Move("merge", "u", ("a", "b"), ""), "merge at 'u': condition A fails"),
    ("path_c2_d3_c2.json", Move("merge", "nope", ("e1", "e2"), ""), "unknown cell 'nope'"),
    ("path_c2_d3_c2.json", Move("cut", "nope", ("e1",), ""), "unknown cell 'nope'"),
    ("path_c2_d3_c2.json", Move("merge", "v2", ("e1", "nope"), ""),
     "merge at 'v2': its top cells are ['e1', 'e2']"),
    ("path_c2_d3_c2.json", Move("merge", "v2", ("e1",), ""),
     "merge at 'v2': its top cells are ['e1', 'e2']"),
    ("sl3z_intermediate.json", Move("cut", "N", ("nope",), ""),
     "cut at 'N': its top cells are ['f4_PN']"),
    ("path_c2_d3_c2.json", Move("swap", "v2", ("e1", "e2"), ""),
     "swap at 'v2': unknown move kind"),
    ("path_c2_d3_c2.json", Move("cut", "v2", ("e1",), ""), "cut at 'v2': not a terminal pair"),
]


@pytest.mark.parametrize("name,move,message", FORGED_MOVES,
                         ids=[f"{name}-move{k}" for k, (name, _, _) in enumerate(FORGED_MOVES)])
def test_forged_move_raises_value_error(name, move, message):
    assert refusal(torsion_subcomplex(load(name), 2), move) == message


@pytest.mark.parametrize("call", [
    lambda cx: scripted_merge(cx, "nope", "e1", "e2"),
    lambda cx: scripted_merge(cx, "v2", "e1", "nope"),
    lambda cx: scripted_merge(cx, "v2", "nope", "e2"),
    lambda cx: replay(cx, ReductionLog((Move("cut", "nope", ("e1",), ""),)), 2),
])
def test_unknown_cell_raises_value_error(call):
    with pytest.raises(ValueError, match="unknown cell 'nope'"):
        call(load("path_c2_d3_c2.json"))


def test_cut_d2_leaf_not_removable():
    # v1 is terminal in the reduced path, but D2 over C2 fails B'
    reduced, _ = reduce_complex(load("path_c2_d3_c2.json"), 2)
    move = Move("cut", "v1", ("e1+",), "")
    assert refusal(reduced, move) == "cut at 'v1': condition B' fails"


# --------------------------------------------------------------------------
# The reduction loop


def test_reduce_edge3_is_fixpoint():
    cx = load("bianchi_edge3.json")
    reduced, log = reduce_complex(cx, 3)
    assert log.moves == ()
    assert reduced == torsion_subcomplex(cx, 3)


def test_reduce_path_single_merge():
    reduced, log = reduce_complex(load("path_c2_d3_c2.json"), 2)
    assert [m.kind for m in log.moves] == ["merge"]
    edges = cells_of_dim(reduced, 1)
    assert len(edges) == 1 and edges[0].stabilizer == "C2"
    assert len(cells_of_dim(reduced, 0)) == 2


def test_reduce_sl3_intermediate_cuts_terminal_branch():
    reduced, log = reduce_complex(load("sl3z_intermediate.json"), 2)
    assert [m.kind for m in log.moves] == ["cut"]
    assert log.moves[0].sigma == "N"
    assert log.moves[0].condition == "B'(1)"
    stabs = sorted((c.dim, c.stabilizer) for c in reduced.cells)
    assert stabs == [(0, "D6"), (0, "S4"), (0, "S4"), (0, "S4"),
                     (1, "C2"), (1, "D2"), (1, "D4")]


def test_reduce_sl3_full_reaches_graph():
    reduced, log = reduce_complex(load("sl3z_soule.json"), 2)
    assert len([m for m in log.moves if m.kind == "cut"]) == len(log.moves)
    assert reduced.dimension == 1
    stabs = sorted((c.dim, c.stabilizer) for c in reduced.cells)
    assert stabs == [(0, "D6"), (0, "S4"), (0, "S4"), (0, "S4"),
                     (1, "C2"), (1, "D2"), (1, "D4")]


def test_reduce_deterministic():
    for name, ell in [("sl3z_soule.json", 2), ("path_c2_d3_c2.json", 2),
                      ("chain_c2_c2_d3.json", 2)]:
        cx = load(name)
        red1, log1 = reduce_complex(cx, ell)
        red2, log2 = reduce_complex(cx, ell)
        assert serialize_complex(red1) == serialize_complex(red2)
        assert log1 == log2


def test_reduce_termination_bound():
    for name, ell in [("sl3z_soule.json", 2), ("chain_c2_c2_d3.json", 2)]:
        cx = load(name)
        _, log = reduce_complex(cx, ell)
        assert len(log.moves) <= len(cx.cells)


def test_merged_id_skips_taken_ids():
    # D2 ends block every cut at 2; "a+" is taken, so the merge at u
    # names its cell "a++"
    cells = (OrbitCell("u", 0, "D3"),) + tuple(
        OrbitCell(v, 0, "D2") for v in ("v", "w", "x", "y")) + tuple(
        OrbitCell(e, 1, "C2") for e in ("a", "b", "a+"))
    incs = (Incidence("v", "a"), Incidence("u", "a"), Incidence("u", "b"),
            Incidence("w", "b"), Incidence("x", "a+"), Incidence("y", "a+"))
    reduced, log = reduce_complex(OrbitComplex(cells, incs), 2)
    assert [(m.kind, m.sigma, m.merged) for m in log.moves] == [("merge", "u", "a++")]
    assert sorted(c.id for c in reduced.cells) == ["a+", "a++", "v", "w", "x", "y"]


def test_merged_id_that_ends_in_plus_is_kept():
    # round a circle each merge takes the cell the last one made; its id
    # ends in "+" and is free once the merge drops it, so ids do not grow
    reduced, log = reduce_complex(parse_complex(d3_c2_circle(3)), 2)
    assert [(m.sigma, m.taus, m.merged) for m in log.moves] == [
        ("v0", ("e0", "e2"), "e0+"), ("v1", ("e0+", "e1"), "e0+")]
    assert sorted(c.id for c in reduced.cells) == ["e0+", "v2"]


def test_reduce_reexamines_merges_after_a_merge_and_a_cut():
    # the merge along sigma leaves a terminal, and cutting it leaves x
    # between two like edges: a merge at a vertex that the reducer had
    # already passed over in (dim, id) order before the first merge
    cells = (OrbitCell("a", 0, "C2"), OrbitCell("b", 0, "C2"), OrbitCell("x", 0, "D3"),
             OrbitCell("y1", 0, "D2"), OrbitCell("y2", 0, "D2"),
             OrbitCell("g", 1, "C2"), OrbitCell("h1", 1, "C2"),
             OrbitCell("h2", 1, "C2"), OrbitCell("sigma", 1, "C2"),
             OrbitCell("t1", 2, "C2"), OrbitCell("t2", 2, "C2"))
    incs = (Incidence("a", "sigma"), Incidence("b", "sigma"), Incidence("a", "g"),
            Incidence("x", "g"), Incidence("x", "h1"), Incidence("y1", "h1"),
            Incidence("x", "h2"), Incidence("y2", "h2"),
            Incidence("sigma", "t1"), Incidence("sigma", "t2"))
    cx = OrbitComplex(cells, incs)
    reduced, log = reduce_complex(cx, 2)
    assert [(m.kind, m.sigma) for m in log.moves] == [
        ("merge", "sigma"), ("cut", "a"), ("merge", "x")]
    ref_reduced, ref_log = reference_reduce(cx, 2)
    assert log == ref_log
    assert serialize_complex(reduced) == serialize_complex(ref_reduced)


def test_replay_reproduces_fixpoint():
    cx = load("sl3z_soule.json")
    reduced, log = reduce_complex(cx, 2)
    assert serialize_complex(replay(cx, log, 2)) == serialize_complex(reduced)


def test_euler_bookkeeping():
    # each move removes one (n-1)-cell and one n-cell net (a merge takes
    # two n-cells and adds one back)
    for name, ell in [("sl3z_soule.json", 2), ("path_c2_d3_c2.json", 2)]:
        state = torsion_subcomplex(load(name), ell)
        _, log = reduce_complex(state, ell)
        for move in log.moves:
            sigma_dim = state.cell(move.sigma).dim
            before = [len(cells_of_dim(state, d)) for d in range(3)]
            state = apply_move(state, move, ell)
            after = [len(cells_of_dim(state, d)) for d in range(3)]
            assert before[sigma_dim] - after[sigma_dim] == 1, move
            assert before[sigma_dim + 1] - after[sigma_dim + 1] == 1, move


def test_reduce_checks_b_prime_once_per_candidate(monkeypatch):
    import tsr.reduction
    calls = []

    def counted(*args):
        calls.append(args)
        return check_condition_B_prime(*args)

    monkeypatch.setattr(tsr.reduction, "check_condition_B_prime", counted)
    reduce_complex(load("sl3z_soule.json"), 2)
    # 8 moves and the refusals at O and P: a cell is queued only under the
    # kind its coface count allows, so P is no longer re-checked from a
    # second "cut" entry pushed while it had two cofaces
    assert len(calls) == 10


@pytest.mark.parametrize("n", (1, 10, 1000))
def test_reduce_tries_only_cells_that_can_start_a_move(monkeypatch, n):
    # a cell is queued only under the kind its coface count allows: each
    # circle's vertex is tried once, as a cut (its one coface has
    # multiplicity 2), and its loop edge, with no coface, never
    import tsr.reduction
    calls, move_at = [], tsr.reduction._move_at

    def counted(*args):
        calls.append(args[1:3])
        return move_at(*args)

    monkeypatch.setattr(tsr.reduction, "_move_at", counted)
    reduced, log = reduce_complex(parse_complex(circles(n)), 2)
    assert (len(reduced.cells), log.moves) == (2 * n, ())
    assert sorted(calls) == sorted(("cut", f"v{i}") for i in range(n))


@pytest.mark.parametrize("document", (d3_c2_path, d3_c2_circle))
def test_reduce_looks_at_each_queued_entry_once(monkeypatch, document):
    # at ell = 2 the path is cut from both ends and the circle merged into
    # one loop: 1,000 and 999 moves from 1,001 and 1,000 initial entries.
    # An entry is popped once, skipped if its cell is gone, and queued
    # again only once popped, so no check is made on a gone cell, none
    # twice on one complex, and no more than one per move and entry
    import tsr.reduction
    calls, move_at = [], tsr.reduction._move_at

    def counted(cx, kind, sigma, ell):
        found = move_at(cx, kind, sigma, ell)
        calls.append((kind, sigma, sigma in cx._cells, isinstance(found, str)))
        return found

    monkeypatch.setattr(tsr.reduction, "_move_at", counted)
    cx = parse_complex(document(1000))
    tx = torsion_subcomplex(cx, 2)
    initial = sum(len(tx.cofaces(c.id)) in (1, 2) for c in tx.cells)
    _, log = reduce_complex(cx, 2)
    assert len(calls) <= len(log.moves) + initial
    assert all(live for _, _, live, _ in calls)
    failed = set()
    for kind, sigma, _, failure in calls:
        assert (kind, sigma) not in failed
        failed = failed | {(kind, sigma)} if failure else set()


def test_scripted_merge_reaches_final_chain():
    reduced, _ = reduce_complex(load("sl3z_intermediate.json"), 2)
    chain = scripted_merge(reduced, "Q", "f2_QM", "f1_OQ")
    stabs = sorted((c.dim, c.stabilizer) for c in chain.cells)
    assert stabs == [(0, "S4"), (0, "S4"), (0, "S4"), (1, "C2"), (1, "D4")]


def test_reduce_requires_rigid():
    # the rigid flag is read only by parse_complex, so a non-rigid document
    # is refused before reduce_complex sees it
    reduced, _ = reduce_complex(load("path_c2_d3_c2.json"), 2)
    assert len(reduced.cells) == 3
    with pytest.raises(ValueError, match="rigid must be true"):
        reduce_complex(parse_complex(non_rigid("path_c2_d3_c2.json")), 2)


@pytest.mark.parametrize("edit", [
    lambda cx, move: apply_move(cx, move, 2),
    lambda cx, move: apply_move(cx, Move("cut", "v1", ("e1",), ""), 2),
    lambda cx, move: apply_move(cx, Move("merge", "v2", ("e1", "e2"), ""), 2),
    lambda cx, move: scripted_merge(cx, "v2", "e1", "e2"),
    lambda cx, move: reduce_complex(cx, 2),
    lambda cx, move: replay(cx, ReductionLog((move,)), 2),
], ids=["apply_move", "cut", "merge", "scripted_merge", "reduce_complex", "replay"])
def test_every_editing_entry_point_rejects_a_non_rigid_complex(edit):
    # each edit goes through on the rigid document; its non-rigid copy is
    # refused where it is parsed, so no edit ever sees it
    cx = load("chain_c2_c2_d3.json")
    _, log = reduce_complex(cx, 2)
    edit(cx, log.moves[0])
    with pytest.raises(ValueError, match="rigid must be true"):
        edit(parse_complex(non_rigid("chain_c2_c2_d3.json")), log.moves[0])


def test_scripted_merge_validates_adjacency():
    # u bounds three edges
    with pytest.raises(ValueError, match="sigma must bound exactly tau1 and tau2"):
        scripted_merge(load("graphfive.json"), "u", "a", "b")


def test_scripted_merge_rejects_one_tau_twice():
    # v1 bounds e1 only, so it does not bound exactly two cells
    with pytest.raises(ValueError, match="sigma must bound exactly tau1 and tau2"):
        scripted_merge(load("path_c2_d3_c2.json"), "v1", "e1", "e1")


def test_reduce_and_replay_index_each_complex_once(monkeypatch):
    # the torsion subcomplex in each of the two calls, which is edited in
    # place and returned with the index it was edited in
    calls = []
    link = OrbitComplex._link

    def counted(self, *args):
        calls.append(args)
        return link(self, *args)

    cx = load("sl3z_soule.json")
    monkeypatch.setattr(OrbitComplex, "_link", counted)
    _, log = reduce_complex(cx, 2)
    replay(cx, log, 2)
    assert len(calls) == 2


# --------------------------------------------------------------------------
# Differential test against a reference search that scans every record


def reference_reduce(cx: OrbitComplex, ell: int):
    """The reduction loop with each lookup a linear scan and the
    higher-cell test an upward search through the whole complex; moves
    are applied here too, so nothing but the records is shared."""

    def cell(cid):
        return next(c for c in cx.cells if c.id == cid)

    def cofaces(cid):
        return [i for i in cx.incidences if i.face == cid]

    def touched_by_higher(cid):
        seen, frontier = set(), [cid]
        while frontier:
            frontier = [i.coface for f in frontier for i in cofaces(f)
                        if i.coface not in seen]
            seen.update(frontier)
        return any(cell(c).dim >= cell(cid).dim + 2 for c in seen)

    def without(drop):
        return OrbitComplex(
            tuple(c for c in cx.cells if c.id not in drop),
            tuple(i for i in cx.incidences
                  if i.face not in drop and i.coface not in drop))

    def next_move():
        order = sorted(cx.cells, key=lambda c: (c.dim, c.id))
        for c in order:
            cofs = cofaces(c.id)
            if len(cofs) == 1 and cofs[0].multiplicity == 1 \
                    and not touched_by_higher(c.id):
                tau = cofs[0].coface
                clause = check_condition_B_prime(c.stabilizer, cell(tau).stabilizer, ell)
                if clause is not None:
                    return Move("cut", c.id, (tau,), clause)
        for c in order:
            cofs = cofaces(c.id)
            if len(cofs) != 2 or any(i.multiplicity != 1 for i in cofs):
                continue
            t1, t2 = (cell(t) for t in sorted(i.coface for i in cofs))
            if t1.self_identified or t2.self_identified or touched_by_higher(c.id):
                continue
            if not are_isomorphic(catalog_group(t1.stabilizer),
                                  catalog_group(t2.stabilizer)):
                continue
            clause = check_condition_B_prime(c.stabilizer, t1.stabilizer, ell)
            if clause is not None:
                merged = t1.id
                if not merged.endswith("+"):
                    merged += "+"
                    while any(x.id == merged for x in cx.cells):
                        merged += "+"
                return Move("merge", c.id, (t1.id, t2.id), clause, merged)
        return None

    cx = without({c.id for c in cx.cells if TAG_ORDERS[c.stabilizer] % ell})
    moves = []
    while (move := next_move()) is not None:
        moves.append(move)
        if move.kind == "cut":
            cx = without({move.sigma, *move.taus})
            continue
        boundary = {}
        for i in cx.incidences:
            if i.coface in move.taus and i.face != move.sigma:
                boundary[i.face] = boundary.get(i.face, 0) + i.multiplicity
        t1 = cell(move.taus[0])
        base = without({move.sigma, *move.taus})
        cx = OrbitComplex(
            base.cells + (OrbitCell(move.merged, t1.dim, t1.stabilizer),),
            base.incidences + tuple(Incidence(f, move.merged, m)
                                    for f, m in sorted(boundary.items())))
    return cx, ReductionLog(tuple(moves))


@st.composite
def random_complexes(draw):
    """A prime ell in {2, 3} and a complex of dimension 0 to 2 with loops,
    multiplicity-2 incidences and self-identified cells, cells and
    incidences in random order.  Stabilizers come from a palette of a
    few catalog tags, mostly of order divisible by ell, so that like
    tags meet often enough for merges."""
    ell = draw(st.sampled_from((2, 3)))
    torsion_tags = [t for t in CATALOG_TAGS if TAG_ORDERS[t] % ell == 0]
    palette = draw(st.lists(st.sampled_from(torsion_tags), min_size=1, max_size=2))
    tag = st.sampled_from(palette + draw(st.sampled_from(([], [], ["C1"], list(CATALOG_TAGS)))))
    self_identified = st.integers(0, 7).map(lambda k: k == 0)
    mult = st.sampled_from((1,) * 7 + (2,))
    n0, n1 = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    n2 = draw(st.integers(0, 2)) if n1 else 0
    cells = [OrbitCell(f"v{k}", 0, draw(tag), draw(self_identified)) for k in range(n0)]
    cells += [OrbitCell(f"e{k}", 1, draw(tag), draw(self_identified)) for k in range(n1)]
    cells += [OrbitCell(f"t{k}", 2, draw(tag), draw(self_identified)) for k in range(n2)]
    incs = []
    for k in range(n1):
        ends = draw(st.lists(st.integers(0, n0 - 1), min_size=1, max_size=2, unique=True))
        if len(ends) == 1:  # a loop
            incs.append(Incidence(f"v{ends[0]}", f"e{k}", 2))
        else:
            incs += [Incidence(f"v{v}", f"e{k}", draw(mult)) for v in ends]
    for k in range(n2):
        sides = draw(st.lists(st.integers(0, n1 - 1), min_size=1, max_size=4, unique=True))
        incs += [Incidence(f"e{e}", f"t{k}", draw(mult)) for e in sides]
    return ell, OrbitComplex(tuple(draw(st.permutations(cells))),
                             tuple(draw(st.permutations(incs))))


@settings(max_examples=300, deadline=None)
@given(random_complexes())
def test_reduce_matches_reference_search(ell_and_complex):
    ell, cx = ell_and_complex
    reduced, log = reduce_complex(cx, ell)
    ref_reduced, ref_log = reference_reduce(cx, ell)
    assert log == ref_log
    assert serialize_complex(reduced) == serialize_complex(ref_reduced)


@settings(max_examples=100, deadline=None)
@given(random_complexes())
def test_logged_moves_apply_one_at_a_time(ell_and_complex):
    # each move of the log passes apply_move on the complex it was made
    # on; a merge given with its taus swapped passes too, and names its
    # new cell after the tau given first: that tau's id if it ends in "+"
    ell, cx = ell_and_complex
    reduced, log = reduce_complex(cx, ell)
    state = torsion_subcomplex(cx, ell)
    for move in log.moves:
        if move.kind == "merge":
            swapped = apply_move(state, move._replace(taus=move.taus[::-1]), ell)
            kept = {c.id for c in state.cells} - {move.sigma, *move.taus}
            (new,) = {c.id for c in swapped.cells} - kept
            first = move.taus[1]
            if first.endswith("+"):
                assert new == first, move
            else:
                assert new[:len(first)] == first and set(new[len(first):]) == {"+"}, move
        state = apply_move(state, move, ell)
    assert serialize_complex(state) == serialize_complex(reduced)


def test_moves_are_read_only_values():
    move = Move("merge", "s", ("a", "b"), "B'(1)")
    assert repr(move) == ("Move(kind='merge', sigma='s', taus=('a', 'b'), "
                          "condition=\"B'(1)\", merged=None)")
    with pytest.raises(AttributeError):
        move.merged = "a+"
    assert move._replace(merged="a+") == Move("merge", "s", ("a", "b"), "B'(1)", "a+")


# --------------------------------------------------------------------------
# The rule function against the separate helpers it replaced, on the
# complexes above


def _touched_by_higher(cx, sigma):
    return any(cx.cofaces(inc.coface) for inc in cx.cofaces(sigma))


def _terminal_coface(cx, sigma):
    cofs = cx.cofaces(sigma)
    if len(cofs) != 1 or _touched_by_higher(cx, sigma):
        return None
    (inc,) = cofs
    return inc.coface if inc.multiplicity == 1 else None


def _separate_condition_A(cx, sigma, tau1, tau2):
    cofs = cx.cofaces(sigma)
    if not (len(cofs) == 2 and {c.coface for c in cofs} == {tau1, tau2}):
        return False
    t1, t2 = cx.cell(tau1), cx.cell(tau2)
    return (all(c.multiplicity == 1 for c in cofs)
            and not (t1.self_identified or t2.self_identified)
            and not _touched_by_higher(cx, sigma) and t1.stabilizer == t2.stabilizer)


@settings(max_examples=200, deadline=None)
@given(random_complexes())
def test_rule_failure_matches_separate_helpers(ell_and_complex):
    _, cx = ell_and_complex
    for c in cx.cells:
        cut_ok = _terminal_coface(cx, c.id) is not None
        assert _rule_failure(cx, "cut", c.id) == (
            None if cut_ok else "not a terminal pair")
        taus = sorted(i.coface for i in cx.cofaces(c.id))
        merge_ok = len(taus) == 2 and _separate_condition_A(cx, c.id, *taus)
        assert _rule_failure(cx, "merge", c.id) == (
            None if merge_ok else "condition A fails")


@st.composite
def long_complexes(draw):
    """A prime ell in {2, 3} and a path, a circle or a strip of triangles
    with 20 to 60 cells.  Stabilizers come from a palette of one or two
    tags per dimension, mostly of order divisible by ell; ids are
    unpadded numbers in shuffled order, so that the (dim, id) order of
    the cells differs from their order along the shape."""
    ell = draw(st.sampled_from((2, 3)))
    torsion_tags = [t for t in CATALOG_TAGS if TAG_ORDERS[t] % ell == 0]

    def tags(prefix, n):
        palette = draw(st.lists(st.sampled_from(torsion_tags), min_size=1, max_size=2))
        palette += draw(st.sampled_from(([], [], ["C1"])))
        ids = [f"{prefix}{k}" for k in draw(st.permutations(range(n)))]
        return ids, [draw(st.sampled_from(palette)) for _ in range(n)]

    shape = draw(st.sampled_from(("path", "circle", "strip")))
    if shape == "strip":  # n triangles on vertices 0..n+1: 4n + 3 cells
        n = draw(st.integers(5, 14))
        nv = n + 2
        pairs = [(k, k + 1) for k in range(n + 1)] + [(k, k + 2) for k in range(n)]
    else:  # 2n + 1 cells on a path of n edges, 2n on a circle
        n = draw(st.integers(10, 29 if shape == "path" else 30))
        nv = n + 1 if shape == "path" else n
        pairs = [(k, (k + 1) % nv) for k in range(n)]
    vid, vtag = tags("v", nv)
    eid, etag = tags("e", len(pairs))
    cells = [OrbitCell(v, 0, t) for v, t in zip(vid, vtag)]
    cells += [OrbitCell(e, 1, t) for e, t in zip(eid, etag)]
    incs = [Incidence(vid[v], e) for (a, b), e in zip(pairs, eid) for v in (a, b)]
    if shape == "strip":
        edge = dict(zip(pairs, eid))
        fid, ftag = tags("t", n)
        cells += [OrbitCell(f, 2, t) for f, t in zip(fid, ftag)]
        incs += [Incidence(edge[p], fid[k]) for k in range(n)
                 for p in ((k, k + 1), (k + 1, k + 2), (k, k + 2))]
    return ell, OrbitComplex(tuple(draw(st.permutations(cells))), tuple(incs))


@settings(max_examples=100, deadline=None)
@given(long_complexes())
def test_reduce_long_inputs_match_reference_and_replay(ell_and_complex):
    ell, cx = ell_and_complex
    reduced, log = reduce_complex(cx, ell)
    ref_reduced, ref_log = reference_reduce(cx, ell)
    assert log == ref_log
    assert serialize_complex(reduced) == serialize_complex(ref_reduced)
    assert serialize_complex(replay(cx, log, ell)) == serialize_complex(reduced)


# --------------------------------------------------------------------------
# Derived complexes hold an index that no check runs on again


def _answers_as_if_checked(d: OrbitComplex) -> None:
    ref = OrbitComplex(d.cells, d.incidences)  # raises on a bad record
    assert d == ref
    for cid in [c.id for c in d.cells]:
        assert d.cell(cid) is ref.cell(cid)
        assert d.faces(cid) == ref.faces(cid)
        assert d.cofaces(cid) == ref.cofaces(cid)
    assert d.faces("unknown") == ref.faces("unknown") == []
    assert d.cofaces("unknown") == ref.cofaces("unknown") == []
    with pytest.raises(KeyError):
        d.cell("unknown")


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_complexes(), long_complexes()))
def test_derived_complexes_answer_as_if_checked(ell_and_complex):
    ell, cx = ell_and_complex
    for p in (2, 3):
        _answers_as_if_checked(torsion_subcomplex(cx, p))
    reduced, log = reduce_complex(cx, ell)
    _answers_as_if_checked(reduced)
    _answers_as_if_checked(replay(cx, log, ell))
    state = torsion_subcomplex(cx, ell)
    for move in log.moves:
        state = apply_move(state, move, ell)
        _answers_as_if_checked(state)
    for c in cx.cells:  # a forced merge wherever a cell bounds exactly two cells
        if len(taus := [i.coface for i in cx.cofaces(c.id)]) == 2:
            _answers_as_if_checked(scripted_merge(cx, c.id, *taus))
