"""Torsion subcomplex reduction: orbit-wise merging and terminal-cell cuts.

The merge rule applies to a triple (sigma, tau1, tau2) where sigma is an
(n-1)-cell lying in the boundary of precisely the two n-cells tau1 and
tau2 on distinct orbits (condition A), and the stabilizer pair passes
one of the three clauses of the practical isomorphism criterion
(condition B').  A terminal cell together with its unique coface is cut
under the same stabilizer criterion.  Condition B' compares the tags of
G/O_ell'(G) in the catalog table ``complexes._ELL_QUOTIENT``, which the
graph oracle reads too; the exhaustive three-clause search it was
generated from, ``groups.condition_B_prime_search``, is its oracle and
is not imported here.  ``_rule_failure`` alone states the terminal test
and condition A, and ``_move_at`` alone decides a move: it returns the
taus and B' clause of the move a cell starts, or the first check it
fails.  The reduction loop applies its moves deterministically until
none applies, editing the torsion subcomplex it derives in place through
its own index (``OrbitComplex._add``, ``_drop``) and setting its records
once at the end, unchecked, as every edit derives them from checked
ones.  A cut needs a cell with exactly one coface and a merge one with
exactly two, so its worklist holds each cell only under the one kind its
coface count allows, and re-examines only the cells a move touched, the
only cells whose count a move changes.  Each worklist entry is queued at
most once at a time and popped once; an entry whose cell a move dropped
is skipped unexamined.  A merge names its new cell after its first tau:
that tau's own id if it ends in "+", so a chain of merges keeps one id,
else the id with "+" appended until unused.  ``replay`` and
``apply_move`` make an edit only where ``_move_at`` finds the same move;
``scripted_merge`` checks only that sigma bounds exactly its two taus.
"""

from __future__ import annotations

import heapq
import json
from collections import namedtuple

from .complexes import (_ELL_QUOTIENT, TAG_ORDERS, Incidence, OrbitCell,
                        OrbitComplex, _check_prime, torsion_subcomplex)

B_PRIME_1 = "B'(1)"


class Move(namedtuple("Move", "kind sigma taus condition merged", defaults=(None,))):
    """A "merge" or "cut" at sigma of its one or two taus, under the B'
    clause named by condition; merged is the id of a merge's new cell."""

    __slots__ = ()

    def _doc(self) -> dict:
        """The move's JSON object: for a logged move every value is a string."""
        doc = {"kind": self.kind, "sigma": self.sigma, "condition": self.condition}
        if self.kind == "merge":
            doc["tau1"], doc["tau2"] = self.taus
            doc["merged"] = self.merged
        else:
            doc["tau"] = self.taus[0]
        return doc

    def to_json(self) -> str:
        return json.dumps(self._doc(), sort_keys=True)


class ReductionLog(namedtuple("ReductionLog", "moves")):
    __slots__ = ()

    def to_jsonl(self) -> str:
        return "".join(m.to_json() + "\n" for m in self.moves)


# --------------------------------------------------------------------------
# Condition B' on stabilizer tags


def check_condition_B_prime(sigma_tag: str, tau_tag: str, ell: int) -> str | None:
    """First satisfied clause of condition B' for the stabilizer pair
    (boundary cell, top cell), or None: B'(1) when the pinned quotients
    G/O_ell'(G) of the two stabilizers agree.  A hit in the table's row
    for ell implies that ell is prime and both tags are catalog tags, so
    those checks, and their refusals, run only on a miss."""
    quotient = _ELL_QUOTIENT.get(ell, {})
    if sigma_tag in quotient and tau_tag in quotient:  # a prime and two catalog tags
        return B_PRIME_1 if quotient[sigma_tag] == quotient[tau_tag] else None
    _check_prime(ell)
    for tag in (sigma_tag, tau_tag):
        if tag not in TAG_ORDERS:
            raise ValueError(f"unknown catalog tag {tag!r}")
    return B_PRIME_1  # every catalog order is 2^a 3^b: at ell >= 5 both quotients are C1


# --------------------------------------------------------------------------
# Condition A and the moves


def _rule_failure(cx: OrbitComplex, kind: str, sigma: str) -> str | None:
    """Why sigma starts no cut (the terminal test) or no merge (condition
    A), or None, from one read of its cofaces in the index; B' is not read.
    "No higher-dimensional cells touch sigma" is read as: no coface has a
    coface, as every incidence raises the dimension by exactly 1."""
    cofs = cx._cofaces.get(sigma, ())
    if kind == "cut":
        if len(cofs) == 1:
            (i,) = cofs.values()
            if i.multiplicity == 1 and not cx._cofaces.get(i.coface):
                return None
        return "not a terminal pair"
    if len(cofs) == 2:
        i, j = cofs.values()
        if (i.multiplicity == j.multiplicity == 1
                and not cx._cofaces.get(i.coface) and not cx._cofaces.get(j.coface)):
            t1, t2 = cx._cells[i.coface], cx._cells[j.coface]
            # the catalog tags are pairwise non-isomorphic: equal tags, isomorphic
            if not (t1.self_identified or t2.self_identified) and t1.stabilizer == t2.stabilizer:
                return None
    return "condition A fails"


def _move_at(cx: OrbitComplex, kind: str, sigma: str, ell: int) -> tuple[tuple, str] | str:
    """The taus, sorted, and the B' clause of the cut of sigma's terminal
    pair or the merge of its two cofaces under condition A, if it passes
    B'; else the first check it fails."""
    if (failure := _rule_failure(cx, kind, sigma)) is not None:
        return failure
    taus = tuple(sorted(cx._cofaces[sigma]))
    clause = check_condition_B_prime(cx._cells[sigma].stabilizer,
                                     cx._cells[taus[0]].stabilizer, ell)
    return (taus, clause) if clause else "condition B' fails"


def _edit(cx: OrbitComplex, kind: str, sigma: str, taus: tuple) -> str | None:
    """Make the edit of a move, unchecked; a merge's new cell, whose id it
    returns, has the taus' faces and positive multiplicities, so its
    records need no check.  It is named after its first tau t1: t1's own
    id where that ends in "+" (the merge drops t1, so a chain of merges
    keeps one name), else t1's id with "+" appended until it is unused."""
    if kind == "cut":
        cx._drop(sigma)
        cx._drop(taus[0])
        return None
    boundary: dict[str, int] = {}
    for tau in taus:
        for inc in cx._faces.get(tau, ()):
            if inc.face != sigma:
                boundary[inc.face] = boundary.get(inc.face, 0) + inc.multiplicity
    t1 = cx._cells[taus[0]]
    merged_id = t1.id
    if not merged_id.endswith("+"):
        merged_id += "+"
        while merged_id in cx._cells:
            merged_id += "+"
    for cid in (sigma, *taus):
        cx._drop(cid)
    cx._add([OrbitCell(merged_id, t1.dim, t1.stabilizer, False)],
            [Incidence(face, merged_id, mult) for face, mult in sorted(boundary.items())])
    return merged_id


def _apply(cx: OrbitComplex, move: Move, ell: int) -> None:
    """Make the edit of a move if _move_at finds one of its kind at its
    sigma with the same taus, in any order; its clause is not read.  An
    unknown sigma is refused as scripted_merge refuses it."""
    if move.sigma not in cx._cells:
        raise ValueError(f"unknown cell {move.sigma!r}")
    found = (_move_at(cx, move.kind, move.sigma, ell) if move.kind in ("cut", "merge")
             else "unknown move kind")
    if not isinstance(found, str) and set(found[0]) != set(move.taus):
        found = f"its top cells are {list(found[0])}"
    if isinstance(found, str):
        raise ValueError(f"{move.kind} at {move.sigma!r}: {found}")
    _edit(cx, move.kind, move.sigma, move.taus)


def apply_move(cx: OrbitComplex, move: Move, ell: int) -> OrbitComplex:
    """The complex after a cut (sigma's terminal pair) or a merge (of
    sigma's two cofaces into one cell with the first tau's stabilizer and
    both boundaries but sigma), if _move_at finds that move; its clause
    is not read."""
    new = OrbitComplex._derived(cx.cells, cx.incidences)
    _apply(new, move, ell)
    return new._settle()


def scripted_merge(cx: OrbitComplex, sigma: str, tau1: str, tau2: str) -> OrbitComplex:
    """Forced merge that skips the stabilizer-isomorphism gate of
    condition A (sigma must still bound exactly the two distinct cells
    tau1 and tau2, one dimension up).  Used to replay reduction steps
    that the rule engine cannot derive on its own, such as eliminating a
    vertex between two edges of unlike stabilizers."""
    try:
        s, t1, t2 = [cx.cell(cid) for cid in (sigma, tau1, tau2)]
    except KeyError as exc:
        raise ValueError(f"unknown cell {exc.args[0]!r}") from None
    if t1.dim != s.dim + 1 or t2.dim != s.dim + 1:
        raise ValueError("tau cells must have dimension dim(sigma) + 1")
    cofs = cx.cofaces(sigma)  # distinct cofaces, by the schema
    if len(cofs) != 2 or {c.coface for c in cofs} != {tau1, tau2}:
        raise ValueError("sigma must bound exactly tau1 and tau2")
    new = OrbitComplex._derived(cx.cells, cx.incidences)
    _edit(new, "merge", sigma, (tau1, tau2))
    return new._settle()


def reduce_complex(cx: OrbitComplex, ell: int) -> tuple[OrbitComplex, ReductionLog]:
    """Apply cut and merge moves until none applies.

    Move selection is deterministic: cuts before merges, each ordered by
    (dimension, id) of the boundary cell.  The input is normalized to
    its ell-torsion subcomplex first (idempotent).
    """
    # the torsion subcomplex is new and seen by no caller: it is edited in place
    tx = torsion_subcomplex(cx, ell)
    # a cut needs 1 coface and a merge 2 (_rule_failure), so a cell is queued
    # only under the kind its coface count allows; a move changes that count
    # only for cells in near below, which are queued again.  "cut" sorts
    # before "merge": each cell that starts a move has a (kind, dim, id)
    # entry on the heap, among cells that may not.  Each entry is queued at
    # most once at a time and looked at once, when popped: a second copy
    # would be popped after it on the same complex, or once its move had
    # dropped the cell, and a cell no longer there starts no move
    kinds = {1: "cut", 2: "merge"}

    def entry(cid):
        return kinds.get(len(tx._cofaces.get(cid, ()))), tx._cells[cid].dim, cid

    heap = sorted(e for e in map(entry, tx._cells) if e[0])
    queued = set(heap)
    moves = []
    while heap:
        queued.remove(e := heapq.heappop(heap))
        kind, _, sigma = e
        if sigma not in tx._cells or isinstance(found := _move_at(tx, kind, sigma, ell), str):
            continue
        taus, clause = found
        # whether a cell starts a move reads only its cofaces and theirs, so a
        # move can change that only for the faces of removed cells and theirs
        near = {i.face for cid in (sigma, *taus) for i in tx._faces.get(cid, ())}
        near |= {i.face for cid in near for i in tx._faces.get(cid, ())}
        moves.append(Move(kind, sigma, taus, clause, _edit(tx, kind, sigma, taus)))
        for cid in near & tx._cells.keys():
            if (e := entry(cid))[0] and e not in queued:
                queued.add(e)
                heapq.heappush(heap, e)
    return tx._settle(), ReductionLog(tuple(moves))


def replay(cx: OrbitComplex, log: ReductionLog, ell: int) -> OrbitComplex:
    """Re-apply a reduction log, checking every move; reproduces the
    reduce output exactly."""
    tx = torsion_subcomplex(cx, ell)  # new and private, as in reduce_complex
    for move in log.moves:
        _apply(tx, move, ell)
    return tx._settle()
