"""Torsion subcomplex reduction: orbit-wise merging and terminal-cell cuts.

The merge rule applies to a triple (sigma, tau1, tau2) where sigma is an
(n-1)-cell lying in the boundary of precisely the two n-cells tau1 and
tau2 on distinct orbits (condition A), and the stabilizer pair passes
one of the three clauses of the practical isomorphism criterion
(condition B').  A terminal cell together with its unique coface is cut
under the same stabilizer criterion.  Condition B' is read from a
pinned table over the stabilizer catalog; the exhaustive three-clause
search it was generated from, ``groups.condition_B_prime_search``, is
its oracle and is not imported here.  The reduction loop applies these
moves deterministically until none applies.  The moves edit a private
index of the complex in place, a worklist re-examines only the cells a
move touched, and the result is frozen into an OrbitComplex once.
"""

from __future__ import annotations

import heapq
import json
from collections import defaultdict
from dataclasses import dataclass, replace

from ._modp import _check_prime
from .complexes import TAG_ORDERS, Incidence, OrbitCell, OrbitComplex, torsion_subcomplex

B_PRIME_1 = "B'(1)"


@dataclass(frozen=True)
class MergeCandidate:
    sigma: str
    tau1: str
    tau2: str


@dataclass(frozen=True)
class Move:
    kind: str  # "merge" or "cut"
    sigma: str
    taus: tuple[str, ...]
    condition: str
    merged: str | None = None

    def to_json(self) -> str:
        doc = {"kind": self.kind, "sigma": self.sigma, "condition": self.condition}
        if self.kind == "merge":
            doc["tau1"], doc["tau2"] = self.taus
            doc["merged"] = self.merged
        else:
            doc["tau"] = self.taus[0]
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "Move":
        doc = json.loads(line)
        if doc["kind"] == "merge":
            return Move("merge", doc["sigma"], (doc["tau1"], doc["tau2"]),
                        doc["condition"], doc["merged"])
        return Move("cut", doc["sigma"], (doc["tau"],), doc["condition"])


@dataclass(frozen=True)
class ReductionLog:
    moves: tuple[Move, ...]

    def to_jsonl(self) -> str:
        return "".join(m.to_json() + "\n" for m in self.moves)

    @staticmethod
    def from_jsonl(text: str) -> "ReductionLog":
        return ReductionLog(tuple(Move.from_json(line)
                                  for line in text.splitlines() if line.strip()))


# --------------------------------------------------------------------------
# Condition B' on stabilizer tags


#: The tag of G/O_ell'(G), the quotient of each catalog group G by its
#: largest normal subgroup of order prime to ell.  Clause B'(1) holds
#: exactly when these agree, and on the catalog the other two clauses
#: never hold without it: 64 passing (sigma, tau, ell), 21 at ell = 2 and
#: 43 at ell = 3.  Every catalog order is 2^a 3^b, so at a prime ell >= 5
#: every quotient is C1.
_ELL_QUOTIENT = {
    2: {"C1": "C1", "C2": "C2", "C3": "C1", "C4": "C4", "C6": "C2", "D2": "D2",
        "D3": "C2", "D4": "D4", "D6": "D2", "A4": "A4", "S4": "S4"},
    3: {"C1": "C1", "C2": "C1", "C3": "C3", "C4": "C1", "C6": "C3", "D2": "C1",
        "D3": "D3", "D4": "C1", "D6": "D3", "A4": "C3", "S4": "D3"},
}


def check_condition_B_prime(sigma_tag: str, tau_tag: str, ell: int) -> str | None:
    """First satisfied clause of condition B' for the stabilizer pair
    (boundary cell, top cell), or None: B'(1) when the pinned quotients
    G/O_ell'(G) of the two stabilizers agree."""
    _check_prime(ell)
    for tag in (sigma_tag, tau_tag):
        if tag not in TAG_ORDERS:
            raise ValueError(f"unknown catalog tag {tag!r}")
    quotient = _ELL_QUOTIENT.get(ell)
    if quotient is None or quotient[sigma_tag] == quotient[tau_tag]:
        return B_PRIME_1
    return None


# --------------------------------------------------------------------------
# Condition A and the moves


class _Index:
    """A mutable copy of a complex that the moves edit in place: its cells
    and incidences in record order, and each cell's faces and cofaces as
    {id: Incidence}, read through the lookups OrbitComplex offers."""

    def __init__(self, cx: OrbitComplex):
        self.rigid, self.cells, self.incidences = cx.rigid, {}, {}
        self._faces: defaultdict[str, dict[str, Incidence]] = defaultdict(dict)
        self._cofaces: defaultdict[str, dict[str, Incidence]] = defaultdict(dict)
        self.add(cx.cells, cx.incidences)

    def cell(self, cell_id: str) -> OrbitCell:
        return self.cells[cell_id]

    def faces(self, cell_id: str):
        return self._faces[cell_id].values()

    def cofaces(self, cell_id: str):
        return self._cofaces[cell_id].values()

    def add(self, cells, incidences) -> None:
        """Append cells and incidences to the records."""
        self.cells.update((c.id, c) for c in cells)
        for inc in incidences:
            self.incidences[inc.face, inc.coface] = inc
            self._faces[inc.coface][inc.face] = inc
            self._cofaces[inc.face][inc.coface] = inc

    def drop(self, cell_id: str) -> None:
        """Remove a cell with every incidence it takes part in."""
        del self.cells[cell_id]
        for face in self._faces.pop(cell_id, ()):
            del self._cofaces[face][cell_id], self.incidences[face, cell_id]
        for coface in self._cofaces.pop(cell_id, ()):
            del self._faces[coface][cell_id], self.incidences[cell_id, coface]

    def freeze(self) -> OrbitComplex:
        """The records as an OrbitComplex, which validates them."""
        return OrbitComplex(tuple(self.cells.values()),
                            tuple(self.incidences.values()), self.rigid)


def _touched_by_higher(cx: OrbitComplex, sigma: str) -> bool:
    # "no higher-dimensional cells touch sigma" read as: no cell of
    # dimension >= dim(sigma) + 2 upward-incident to sigma; every
    # incidence raises the dimension by exactly 1, so that is a coface
    # of a coface
    return any(cx.cofaces(inc.coface) for inc in cx.cofaces(sigma))


def _bounds_exactly(cx: OrbitComplex, sigma: str, tau1: str, tau2: str) -> bool:
    """Adjacency shape of condition A: sigma bounds exactly the two
    distinct cells tau1 and tau2, one dimension up."""
    dim = cx.cell(sigma).dim + 1
    if cx.cell(tau1).dim != dim or cx.cell(tau2).dim != dim:
        raise ValueError("tau cells must have dimension dim(sigma) + 1")
    cofs = cx.cofaces(sigma)  # distinct cofaces, by the schema
    return len(cofs) == 2 and {c.coface for c in cofs} == {tau1, tau2}


def check_condition_A(cx: OrbitComplex, sigma: str, tau1: str, tau2: str) -> bool:
    if not _bounds_exactly(cx, sigma, tau1, tau2):
        return False
    t1, t2 = cx.cell(tau1), cx.cell(tau2)
    # the catalog tags are pairwise non-isomorphic: equal tags, isomorphic
    return (all(c.multiplicity == 1 for c in cx.cofaces(sigma))
            and not (t1.self_identified or t2.self_identified)
            and not _touched_by_higher(cx, sigma) and t1.stabilizer == t2.stabilizer)


def _terminal_coface(cx: OrbitComplex, sigma: str) -> str | None:
    """The unique coface tau of a terminal cell sigma, or None: sigma has
    exactly one coface, with multiplicity 1, and no higher cell over it."""
    cofs = cx.cofaces(sigma)
    if len(cofs) != 1 or _touched_by_higher(cx, sigma):
        return None
    (inc,) = cofs
    return inc.coface if inc.multiplicity == 1 else None


def find_terminal_cells(cx: OrbitComplex) -> list[tuple[str, str]]:
    """All (sigma, tau) pairs where sigma has exactly one coface tau with
    multiplicity 1 and no higher-dimensional cells over it."""
    return [(c.id, tau) for c in sorted(cx.cells, key=lambda c: (c.dim, c.id))
            if (tau := _terminal_coface(cx, c.id)) is not None]


def _merge(ix: _Index, sigma: str, tau1: str, tau2: str) -> str:
    """The edit of a merge, shared by _apply and scripted_merge, which
    check the triple first; returns the id of the merged cell."""
    boundary: dict[str, int] = {}
    for tau in (tau1, tau2):
        for inc in ix.faces(tau):
            if inc.face != sigma:
                boundary[inc.face] = boundary.get(inc.face, 0) + inc.multiplicity
    t1 = ix.cell(tau1)
    merged_id = tau1 + "+"
    while merged_id in ix.cells:
        merged_id += "+"
    for cid in (sigma, tau1, tau2):
        ix.drop(cid)
    ix.add([OrbitCell(merged_id, t1.dim, t1.stabilizer, False)],
           [Incidence(face, merged_id, mult) for face, mult in sorted(boundary.items())])
    return merged_id


def _apply(ix: _Index, move: Move, ell: int) -> str | None:
    """Check a move on the index (the terminal pair or condition A, then
    B') and make its edit; returns a merge's new cell id.  Reads the
    move's kind, sigma and taus, not its recorded clause or id."""
    if move.kind not in ("cut", "merge"):
        raise ValueError(f"unknown move kind {move.kind!r}")
    sigma, tau = move.sigma, move.taus[0]
    if move.kind == "cut" and _terminal_coface(ix, sigma) != tau:
        raise ValueError(f"({sigma}, {tau}) is not a terminal pair")
    if move.kind == "merge" and not check_condition_A(ix, sigma, *move.taus):
        raise ValueError("condition A fails for the merge candidate")
    if check_condition_B_prime(ix.cell(sigma).stabilizer, ix.cell(tau).stabilizer, ell) is None:
        what = "the cut" if move.kind == "cut" else "the merge candidate"
        raise ValueError(f"condition B' fails for {what}")
    if move.kind == "merge":
        return _merge(ix, sigma, *move.taus)
    ix.drop(sigma)
    ix.drop(tau)
    return None


def apply_move(cx: OrbitComplex, move: Move, ell: int) -> OrbitComplex:
    ix = _Index(cx)
    _apply(ix, move, ell)
    return ix.freeze()


def cut(cx: OrbitComplex, sigma: str, tau: str, ell: int) -> OrbitComplex:
    """Remove the terminal cell sigma together with its unique coface."""
    return apply_move(cx, Move("cut", sigma, (tau,), ""), ell)


def merge(cx: OrbitComplex, cand: MergeCandidate, ell: int) -> OrbitComplex:
    """Replace sigma, tau1, tau2 by one cell carrying tau1's stabilizer;
    its boundary is the union of both tau boundaries minus sigma."""
    return apply_move(cx, Move("merge", cand.sigma, (cand.tau1, cand.tau2), ""), ell)


def scripted_merge(cx: OrbitComplex, sigma: str, tau1: str, tau2: str) -> OrbitComplex:
    """Forced merge that skips the stabilizer-isomorphism gate of
    condition A (adjacency shape is still validated).  Used to replay
    reduction steps that the rule engine cannot derive on its own, such
    as eliminating a vertex between two edges of unlike stabilizers."""
    if not _bounds_exactly(cx, sigma, tau1, tau2):
        raise ValueError("sigma must bound exactly tau1 and tau2")
    ix = _Index(cx)
    _merge(ix, sigma, tau1, tau2)
    return ix.freeze()


def _move_at(ix: _Index, kind: str, sigma: str, ell: int) -> Move | None:
    """The move of this kind that sigma starts, or None."""
    if kind == "cut":
        taus = (_terminal_coface(ix, sigma),)
        shape = taus[0] is not None
    else:
        taus = tuple(sorted(i.coface for i in ix.cofaces(sigma)))
        shape = len(taus) == 2 and check_condition_A(ix, sigma, *taus)
    clause = shape and check_condition_B_prime(ix.cell(sigma).stabilizer,
                                               ix.cell(taus[0]).stabilizer, ell)
    return Move(kind, sigma, taus, clause) if clause else None


def reduce_complex(cx: OrbitComplex, ell: int) -> tuple[OrbitComplex, ReductionLog]:
    """Apply cut and merge moves until none applies.

    Move selection is deterministic: cuts before merges, each ordered by
    (dimension, id) of the boundary cell.  The input is normalized to
    its ell-torsion subcomplex first (idempotent).
    """
    if not cx.rigid:
        raise ValueError("reduction requires a rigid complex")
    ix = _Index(torsion_subcomplex(cx, ell))
    # "cut" sorts before "merge": each cell that starts a move has a
    # (kind, dim, id) entry on the heap, among cells that may not
    heap = sorted((k, c.dim, c.id) for k in ("cut", "merge") for c in ix.cells.values())
    moves = []
    while heap:
        kind, _, sigma = heap[0]
        move = _move_at(ix, kind, sigma, ell)
        if move is None:
            heapq.heappop(heap)
            continue
        # whether a cell starts a move reads only its cofaces and theirs, so a
        # move can change that only for the faces of removed cells and theirs
        near = {i.face for cid in (sigma, *move.taus) for i in ix.faces(cid)}
        near |= {i.face for cid in near for i in ix.faces(cid)}
        moves.append(replace(move, merged=_apply(ix, move, ell)))
        for cid in near & ix.cells.keys():
            for kind in ("cut", "merge"):
                heapq.heappush(heap, (kind, ix.cells[cid].dim, cid))
    return ix.freeze(), ReductionLog(tuple(moves))


def replay(cx: OrbitComplex, log: ReductionLog, ell: int) -> OrbitComplex:
    """Re-apply a reduction log, checking every move; reproduces the
    reduce output exactly."""
    ix = _Index(torsion_subcomplex(cx, ell))
    for move in log.moves:
        _apply(ix, move, ell)
    return ix.freeze()
