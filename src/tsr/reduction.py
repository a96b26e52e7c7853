"""Torsion subcomplex reduction: orbit-wise merging and terminal-cell cuts.

The merge rule applies to a triple (sigma, tau1, tau2) where sigma is an
(n-1)-cell lying in the boundary of precisely the two n-cells tau1 and
tau2 on distinct orbits (condition A), and the stabilizer pair passes
one of the three clauses of the practical isomorphism criterion
(condition B').  A terminal cell together with its unique coface is cut
under the same stabilizer criterion.  The reduction loop applies these
moves deterministically until none applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from . import groups
from .complexes import Incidence, OrbitCell, OrbitComplex, torsion_subcomplex

B_PRIME_1 = "B'(1)"
B_PRIME_2 = "B'(2)"
B_PRIME_3 = "B'(3)"


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


def _coprime_normal_quotients(tag: str, ell: int) -> list[groups.FiniteGroup]:
    """Quotients G/T over normal subgroups T with gcd(|T|, ell) = 1,
    i.e. T with trivial mod-ell cohomology."""
    G = groups.catalog_group(tag)
    quots = []
    for T in groups.normal_subgroups(G):
        if gcd(T.order, ell) == 1:
            quots.append(groups.quotient_group(G, T))
    quots.sort(key=lambda Q: (-Q.order, Q.elements))
    return quots


def _sylow_center_normalizer(G: groups.FiniteGroup, ell: int) -> groups.FiniteGroup:
    P = groups.sylow_subgroup(G, ell)
    return groups.normalizer(G, groups.center(P))


_BPRIME_CACHE: dict[tuple[str, str, int], str | None] = {}


def check_condition_B_prime(sigma_tag: str, tau_tag: str, ell: int) -> str | None:
    """First satisfied clause of condition B' for the stabilizer pair
    (boundary cell, top cell), or None.

    Searches all normal subgroups with trivial mod-ell cohomology of
    both groups and checks, in order: (1) isomorphic quotients;
    (2) the sigma-quotient is ell-normal and the tau-quotient is the
    normalizer of the center of one of its Sylow ell-subgroups;
    (3) both quotients are ell-normal and those normalizers fit in an
    exact sequence with ell-coprime kernel.
    """
    key = (sigma_tag, tau_tag, ell)
    if key in _BPRIME_CACHE:
        return _BPRIME_CACHE[key]
    result = _check_b_prime(sigma_tag, tau_tag, ell)
    _BPRIME_CACHE[key] = result
    return result


def _check_b_prime(sigma_tag: str, tau_tag: str, ell: int) -> str | None:
    sigma_quots = _coprime_normal_quotients(sigma_tag, ell)
    tau_quots = _coprime_normal_quotients(tau_tag, ell)
    for Gs in sigma_quots:
        for Gt in tau_quots:
            if groups.are_isomorphic(Gs, Gt):
                return B_PRIME_1
    for Gs in sigma_quots:
        if not groups.is_ell_normal(Gs, ell):
            continue
        N_s = _sylow_center_normalizer(Gs, ell)
        for Gt in tau_quots:
            if groups.are_isomorphic(Gt, N_s):
                return B_PRIME_2
    for Gs in sigma_quots:
        if not groups.is_ell_normal(Gs, ell):
            continue
        N_s = _sylow_center_normalizer(Gs, ell)
        for Gt in tau_quots:
            if not groups.is_ell_normal(Gt, ell):
                continue
            N_t = _sylow_center_normalizer(Gt, ell)
            for K in groups.normal_subgroups(N_s):
                if gcd(K.order, ell) != 1:
                    continue
                if groups.are_isomorphic(groups.quotient_group(N_s, K), N_t):
                    return B_PRIME_3
    return None


# --------------------------------------------------------------------------
# Condition A and the moves


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
    if any(c.multiplicity != 1 for c in cx.cofaces(sigma)):
        return False
    t1, t2 = cx.cell(tau1), cx.cell(tau2)
    if t1.self_identified or t2.self_identified:
        return False
    if _touched_by_higher(cx, sigma):
        return False
    # the catalog tags are pairwise non-isomorphic, so this is isomorphism
    return t1.stabilizer == t2.stabilizer


def _unique_merged_id(cx: OrbitComplex, base: str) -> str:
    new_id = base + "+"
    while new_id in cx._by_id:
        new_id += "+"
    return new_id


def _merge(cx: OrbitComplex, sigma: str, tau1: str, tau2: str) -> OrbitComplex:
    """The body of merge and scripted_merge, which check the triple first."""
    boundary: dict[str, int] = {}
    for tau in (tau1, tau2):
        for inc in cx.faces(tau):
            if inc.face != sigma:
                boundary[inc.face] = boundary.get(inc.face, 0) + inc.multiplicity
    t1 = cx.cell(tau1)
    merged_id = _unique_merged_id(cx, tau1)
    merged = OrbitCell(merged_id, t1.dim, t1.stabilizer, False)
    base = cx.without_cells({sigma, tau1, tau2})
    return OrbitComplex(base.cells + (merged,), base.incidences + tuple(
        Incidence(face, merged_id, mult) for face, mult in sorted(boundary.items())),
        cx.rigid)


def merge(cx: OrbitComplex, cand: MergeCandidate, ell: int) -> OrbitComplex:
    """Replace sigma, tau1, tau2 by one cell carrying tau1's stabilizer;
    its boundary is the union of both tau boundaries minus sigma."""
    if not check_condition_A(cx, cand.sigma, cand.tau1, cand.tau2):
        raise ValueError("condition A fails for the merge candidate")
    if check_condition_B_prime(cx.cell(cand.sigma).stabilizer,
                               cx.cell(cand.tau1).stabilizer, ell) is None:
        raise ValueError("condition B' fails for the merge candidate")
    return _merge(cx, cand.sigma, cand.tau1, cand.tau2)


def scripted_merge(cx: OrbitComplex, sigma: str, tau1: str, tau2: str) -> OrbitComplex:
    """Forced merge that skips the stabilizer-isomorphism gate of
    condition A (adjacency shape is still validated).  Used to replay
    reduction steps that the rule engine cannot derive on its own, such
    as eliminating a vertex between two edges of unlike stabilizers."""
    if not _bounds_exactly(cx, sigma, tau1, tau2):
        raise ValueError("sigma must bound exactly tau1 and tau2")
    return _merge(cx, sigma, tau1, tau2)


def _terminal_coface(cx: OrbitComplex, sigma: str) -> str | None:
    """The unique coface tau of a terminal cell sigma, or None: sigma has
    exactly one coface, with multiplicity 1, and no higher cell over it."""
    cofs = cx.cofaces(sigma)
    if len(cofs) != 1 or cofs[0].multiplicity != 1 or _touched_by_higher(cx, sigma):
        return None
    return cofs[0].coface


def find_terminal_cells(cx: OrbitComplex) -> list[tuple[str, str]]:
    """All (sigma, tau) pairs where sigma has exactly one coface tau with
    multiplicity 1 and no higher-dimensional cells over it."""
    out = []
    for c in sorted(cx.cells, key=lambda c: (c.dim, c.id)):
        tau = _terminal_coface(cx, c.id)
        if tau is not None:
            out.append((c.id, tau))
    return out


def cut(cx: OrbitComplex, sigma: str, tau: str, ell: int) -> OrbitComplex:
    """Remove the terminal cell sigma together with its unique coface."""
    if _terminal_coface(cx, sigma) != tau:
        raise ValueError(f"({sigma}, {tau}) is not a terminal pair")
    s, t = cx.cell(sigma), cx.cell(tau)
    if check_condition_B_prime(s.stabilizer, t.stabilizer, ell) is None:
        raise ValueError("condition B' fails for the cut")
    return cx.without_cells({sigma, tau})


def _find_merge_candidates(cx: OrbitComplex) -> list[MergeCandidate]:
    out = []
    for c in sorted(cx.cells, key=lambda c: (c.dim, c.id)):
        cofs = cx.cofaces(c.id)
        if len(cofs) != 2:
            continue
        # two distinct cofaces one dimension up, as the schema guarantees
        tau1, tau2 = sorted(i.coface for i in cofs)
        if check_condition_A(cx, c.id, tau1, tau2):
            out.append(MergeCandidate(c.id, tau1, tau2))
    return out


def _next_move(cx: OrbitComplex, ell: int) -> Move | None:
    for sigma, tau in find_terminal_cells(cx):
        clause = check_condition_B_prime(cx.cell(sigma).stabilizer,
                                         cx.cell(tau).stabilizer, ell)
        if clause is not None:
            return Move("cut", sigma, (tau,), clause)
    for cand in _find_merge_candidates(cx):
        clause = check_condition_B_prime(cx.cell(cand.sigma).stabilizer,
                                         cx.cell(cand.tau1).stabilizer, ell)
        if clause is not None:
            return Move("merge", cand.sigma, (cand.tau1, cand.tau2), clause)
    return None


def apply_move(cx: OrbitComplex, move: Move, ell: int) -> OrbitComplex:
    if move.kind == "cut":
        return cut(cx, move.sigma, move.taus[0], ell)
    if move.kind == "merge":
        return merge(cx, MergeCandidate(move.sigma, *move.taus), ell)
    raise ValueError(f"unknown move kind {move.kind!r}")


def reduce_complex(cx: OrbitComplex, ell: int) -> tuple[OrbitComplex, ReductionLog]:
    """Apply cut and merge moves until none applies.

    Move selection is deterministic: cuts before merges, each ordered by
    (dimension, id) of the boundary cell.  The input is normalized to
    its ell-torsion subcomplex first (idempotent).
    """
    if not cx.rigid:
        raise ValueError("reduction requires a rigid complex")
    cx = torsion_subcomplex(cx, ell)
    moves = []
    while True:
        move = _next_move(cx, ell)
        if move is None:
            break
        if move.kind == "merge":
            merged = _unique_merged_id(cx, move.taus[0])
            move = Move(move.kind, move.sigma, move.taus, move.condition, merged)
        cx = apply_move(cx, move, ell)
        moves.append(move)
    return cx, ReductionLog(tuple(moves))


def replay(cx: OrbitComplex, log: ReductionLog, ell: int) -> OrbitComplex:
    """Re-apply a reduction log; reproduces the reduce output exactly."""
    cx = torsion_subcomplex(cx, ell)
    for move in log.moves:
        cx = apply_move(cx, move, ell)
    return cx
