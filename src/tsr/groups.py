"""Exact engine for the small finite groups occurring as cell stabilizers.

Groups are concrete permutation groups on {0..degree-1}, pinned by
generator lists so that every downstream artifact is byte-reproducible.
Everything here is brute force by design: subgroup lattices, Sylow
subgroups, normalizers and isomorphism tests are exhaustive searches,
valid for the catalog scale (order <= 24) plus the dihedral groups used
by the homology oracle.  This module is the reference the runtime is
checked against, and no other tsr module imports it: the three-clause
search for condition B', ``condition_B_prime_search``, is the oracle
for the pinned table in ``tsr.reduction``; the brute-force homology is
the oracle for the closed forms in ``tsr.series``; and the character
tables, class fusions and splitting bases of the Bredon stabilizers,
with ``induction_by_reciprocity``, are the oracle for the pinned
representation blocks in ``tsr.bredon``.
"""

from __future__ import annotations

import itertools
from math import gcd

from ._modp import SpanTracker, nullspace_mod, rank_mod
from .complexes import TAG_ORDERS, _check_prime
from .series import dihedral_mod_ell_homology  # noqa: F401  (re-exported)

Perm = tuple[int, ...]

CATALOG_TAGS = tuple(TAG_ORDERS)

#: Pinned permutation generators for each catalog tag.
_CATALOG_GENERATORS: dict[str, tuple[int, tuple[Perm, ...]]] = {
    "C1": (1, ()),
    "C2": (2, ((1, 0),)),
    "C3": (3, ((1, 2, 0),)),
    "C4": (4, ((1, 2, 3, 0),)),
    "C6": (5, ((1, 0, 3, 4, 2),)),
    "D2": (4, ((1, 0, 3, 2), (2, 3, 0, 1))),
    "D3": (3, ((1, 2, 0), (1, 0, 2))),
    "D4": (4, ((1, 2, 3, 0), (0, 3, 2, 1))),
    "D6": (6, ((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1))),
    "A4": (4, ((1, 0, 3, 2), (0, 2, 3, 1))),
    "S4": (4, ((1, 0, 2, 3), (1, 2, 3, 0))),
}


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q meaning: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_order(p: Perm) -> int:
    e = identity_perm(len(p))
    q, n = p, 1
    while q != e:
        q = compose(q, p)
        n += 1
    return n


class FiniteGroup:
    """A concrete finite permutation group, immutable after construction."""

    __slots__ = ("degree", "elements", "tag", "_elemset")

    def __init__(self, degree: int, elements, tag: str | None = None):
        self.degree = degree
        self.elements: tuple[Perm, ...] = tuple(sorted(elements))
        self.tag = tag
        self._elemset = frozenset(self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Perm:
        return identity_perm(self.degree)

    def __contains__(self, p: Perm) -> bool:
        return p in self._elemset

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteGroup)
                and self.degree == other.degree
                and self._elemset == other._elemset)

    def __hash__(self) -> int:
        return hash((self.degree, self._elemset))

    def __repr__(self) -> str:
        name = self.tag or f"<order {self.order}>"
        return f"FiniteGroup({name}, degree={self.degree})"

    def is_subgroup_of(self, other: "FiniteGroup") -> bool:
        return self.degree == other.degree and self._elemset <= other._elemset


def closure(degree: int, gens) -> frozenset[Perm]:
    """Subgroup generated by gens, by breadth-first products."""
    found = {identity_perm(degree)}
    frontier = [g for g in gens if g not in found]
    found.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = compose(a, g)
                if b not in found:
                    found.add(b)
                    nxt.append(b)
        # products with previously found elements close the set because
        # every element is a word in the generators
        frontier = nxt
    return frozenset(found)


def generate(degree: int, gens, tag: str | None = None) -> FiniteGroup:
    return FiniteGroup(degree, closure(degree, gens), tag)


def catalog_group(tag: str) -> FiniteGroup:
    """Pinned permutation realization of a catalog tag."""
    if tag not in _CATALOG_GENERATORS:
        raise ValueError(f"unknown catalog tag {tag!r}")
    degree, gens = _CATALOG_GENERATORS[tag]
    g = generate(degree, gens, tag)
    if g.order != TAG_ORDERS[tag]:
        raise AssertionError(f"pinned generators of {tag} give order {g.order}")
    return g


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (n >= 1) acting on n points."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return generate(2, [(1, 0)], "C2")
    if n == 2:
        return catalog_group("D2")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    tag = f"D{n}" if f"D{n}" in TAG_ORDERS else None
    return generate(n, [rot, ref], tag)


_SUBGROUP_CACHE: dict[tuple[int, frozenset], tuple[FiniteGroup, ...]] = {}


def subgroups(G: FiniteGroup) -> tuple[FiniteGroup, ...]:
    """All subgroups, by exhaustive closure growth from the generators
    each was found with.  Capped at order 24."""
    if G.order > 24:
        raise ValueError("subgroup enumeration is capped at order 24")
    key = (G.degree, G._elemset)
    cached = _SUBGROUP_CACHE.get(key)
    if cached is not None:
        return cached
    trivial = frozenset([G.identity])
    found = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for g in G.elements:
                if g in H:
                    continue
                gens = found[H] + (g,)
                K = closure(G.degree, gens)
                if K not in found:
                    found[K] = gens
                    nxt.append(K)
        frontier = nxt
    out = tuple(FiniteGroup(G.degree, H) for H in sorted(found, key=sorted))
    _SUBGROUP_CACHE[key] = out
    return out


def is_normal(G: FiniteGroup, H: FiniteGroup) -> bool:
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    for g in G.elements:
        gi = invert(g)
        for h in H.elements:
            if compose(compose(g, h), gi) not in H:
                return False
    return True


def normal_subgroups(G: FiniteGroup) -> tuple[FiniteGroup, ...]:
    return tuple(H for H in subgroups(G) if is_normal(G, H))


def sylow_subgroup(G: FiniteGroup, ell: int) -> FiniteGroup:
    """A Sylow ell-subgroup; deterministic choice (least element tuple)."""
    return min(all_sylow_subgroups(G, ell), key=lambda H: H.elements)


def all_sylow_subgroups(G: FiniteGroup, ell: int) -> tuple[FiniteGroup, ...]:
    _check_prime(ell)
    pk = 1
    while G.order % (pk * ell) == 0:
        pk *= ell
    if pk == 1:
        return (FiniteGroup(G.degree, [G.identity]),)
    return tuple(H for H in subgroups(G) if H.order == pk)


def center(G: FiniteGroup) -> FiniteGroup:
    elems = [g for g in G.elements
             if all(compose(g, h) == compose(h, g) for h in G.elements)]
    return FiniteGroup(G.degree, elems)


def normalizer(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    elems = []
    for g in G.elements:
        gi = invert(g)
        if all(compose(compose(g, h), gi) in H for h in H.elements):
            elems.append(g)
    return FiniteGroup(G.degree, elems)


def is_ell_normal(G: FiniteGroup, ell: int) -> bool:
    """Zassenhaus: the center of one Sylow ell-subgroup is the center of
    every Sylow ell-subgroup in which it is contained.  Vacuously true
    when ell does not divide the group order."""
    _check_prime(ell)
    if G.order % ell:
        return True
    sylows = all_sylow_subgroups(G, ell)
    for P in sylows:
        Z = center(P)
        for Q in sylows:
            if Z.is_subgroup_of(Q) and center(Q) != Z:
                return False
    return True


def quotient_group(G: FiniteGroup, N: FiniteGroup) -> FiniteGroup:
    """G/N as a permutation group on the left cosets of N."""
    if not is_normal(G, N):
        raise ValueError("N is not normal in G")
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for g in G.elements:
        if g in coset_of:
            continue
        k = len(reps)
        for h in N.elements:
            coset_of[compose(g, h)] = k
        reps.append(g)
    index = len(reps)
    perms = set()
    for g in G.elements:
        perms.add(tuple(coset_of[compose(g, r)] for r in reps))
    return FiniteGroup(index, perms)


def _generating_sequence(G: FiniteGroup) -> list[Perm]:
    gens: list[Perm] = []
    span = {G.identity}
    for g in G.elements:
        if g not in span:
            gens.append(g)
            span = set(closure(G.degree, gens))
            if len(span) == G.order:
                break
    return gens


def _extends_to_isomorphism(G: FiniteGroup, H: FiniteGroup,
                            gens: list[Perm], images: tuple[Perm, ...]) -> bool:
    # grow the map over G's Cayley graph; any conflict kills it
    phi = {G.identity: H.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            fx = phi[x]
            for g, h in zip(gens, images):
                y = compose(x, g)
                fy = compose(fx, h)
                if y in phi:
                    if phi[y] != fy:
                        return False
                else:
                    phi[y] = fy
                    nxt.append(y)
        frontier = nxt
    if len(set(phi.values())) != G.order:
        return False
    return all(phi[compose(a, b)] == compose(phi[a], phi[b])
               for a in G.elements for b in G.elements)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> bool:
    """Isomorphism test: the order and the multiset of element orders
    (which tell the catalog types apart), then an exhaustive
    generator-image search.  Complete for order <= 24."""
    if G.degree == H.degree and G._elemset == H._elemset:
        return True
    if G.order != H.order or (sorted(map(perm_order, G.elements))
                              != sorted(map(perm_order, H.elements))):
        return False
    gens = _generating_sequence(G)
    if not gens:
        return True
    orders = [perm_order(g) for g in gens]
    pools = [[h for h in H.elements if perm_order(h) == o] for o in orders]
    for images in itertools.product(*pools):
        if _extends_to_isomorphism(G, H, gens, images):
            return True
    return False


def has_trivial_mod_ell_cohomology(G: FiniteGroup, ell: int) -> bool:
    """True iff gcd(|G|, ell) = 1: for a finite group the reduced mod-ell
    cohomology vanishes exactly when the order is invertible mod ell."""
    _check_prime(ell)
    return gcd(G.order, ell) == 1


# --------------------------------------------------------------------------
# Condition B' by exhaustive search


def _coprime_quotients(G: FiniteGroup, ell: int) -> list[FiniteGroup]:
    """Quotients G/T over normal subgroups T with gcd(|T|, ell) = 1,
    i.e. T with trivial mod-ell cohomology; G itself for T = 1."""
    return [G if T.order == 1 else quotient_group(G, T)
            for T in normal_subgroups(G) if gcd(T.order, ell) == 1]


def condition_B_prime_search(sigma_tag: str, tau_tag: str, ell: int) -> str | None:
    """First satisfied clause of condition B' for the stabilizer pair
    (boundary cell, top cell), or None, as the paper states it.

    Searches all normal subgroups with trivial mod-ell cohomology of
    both groups and checks, in order: (1) isomorphic quotients;
    (2) the sigma-quotient is ell-normal and the tau-quotient is the
    normalizer of the center of one of its Sylow ell-subgroups;
    (3) both quotients are ell-normal and those normalizers fit in an
    exact sequence with ell-coprime kernel.
    """
    _check_prime(ell)
    sigma_quots = _coprime_quotients(catalog_group(sigma_tag), ell)
    tau_quots = _coprime_quotients(catalog_group(tau_tag), ell)
    if any(are_isomorphic(Gs, Gt) for Gs in sigma_quots for Gt in tau_quots):
        return "B'(1)"

    def normalizers(quots):
        # N(Z(P)) for a Sylow ell-subgroup P of each ell-normal quotient
        return [normalizer(G, center(sylow_subgroup(G, ell)))
                for G in quots if is_ell_normal(G, ell)]

    sigma_norms = normalizers(sigma_quots)
    if any(are_isomorphic(Gt, Ns) for Ns in sigma_norms for Gt in tau_quots):
        return "B'(2)"
    tau_norms = normalizers(tau_quots)
    if any(are_isomorphic(Q, Nt) for Ns in sigma_norms
           for Q in _coprime_quotients(Ns, ell) for Nt in tau_norms):
        return "B'(3)"
    return None


# --------------------------------------------------------------------------
# Brute-force homology oracle


RESOURCE_BOUND = 10 ** 5


def mod_ell_homology_bruteforce(G: FiniteGroup, ell: int, q_max: int) -> list[int]:
    """dim_{F_ell} H_q(G; F_ell) for 0 <= q <= q_max.

    Builds a free resolution of F_ell over the group algebra F_ell[G]
    degree by degree from kernel computations, tensors it down to
    F_ell and reads the dimensions off the ranks.  The matrices stay
    small: each degree's kernel is generated as a module, not as a
    vector space.  Every vector is a clean ``{column: entry}`` row: a
    translate g.v permutes the keys of v, and each generator's n
    translates, made once, span the kernel and give the next map's
    columns, whose rows are read off them, clean, so the null space
    takes them as they are (``_modp.nullspace_mod``).
    """
    _check_prime(ell)
    if q_max < 0:
        raise ValueError("q_max must be non-negative")
    if G.order ** (q_max + 1) > RESOURCE_BOUND:
        raise ValueError(
            f"resource bound exceeded: |G|^(q_max+1) = {G.order ** (q_max + 1)}"
            f" > {RESOURCE_BOUND}")
    elems = list(G.elements)
    n = len(elems)
    index = {g: i for i, g in enumerate(elems)}
    lperm = [[index[tuple(map(a.__getitem__, b))] for b in elems] for a in elems]  # a * b

    def module_generators(basis: list[dict[int, int]], width: int) -> list[list[dict[int, int]]]:
        """Greedy generators of the submodule of F_ell[G]^(width / n) that basis
        spans, each as its translates by elements[0] (the identity), elements[1], ..."""
        moves = [[k - k % n + perm[k % n] for k in range(width)] for perm in lperm[1:]]
        tracker = SpanTracker(ell)
        orbits = []
        for v in basis:
            if not tracker.add(dict(v)):  # the tracker owns the rows it takes
                continue
            orbits.append([v] + [{move[k]: x for k, x in v.items()} for move in moves])
            for t in orbits[-1][1:]:
                tracker.add(dict(t))
                if tracker.rank == len(basis):  # the span is the whole kernel
                    return orbits
        return orbits

    kernel = nullspace_mod([dict.fromkeys(range(n), 1)], ell, n)
    ranks, t_ranks = [1], []
    while len(t_ranks) <= q_max and ranks[-1]:  # after a rank 0, every degree is 0
        orbits = module_generators(kernel, n * ranks[-1])
        tensored = [{} for _ in range(ranks[-1])]  # generator k's entries summed per summand
        phi = [{} for _ in range(n * ranks[-1])]
        for k, orbit in enumerate(orbits):
            for j, x in orbit[0].items():
                tensored[j // n][k] = tensored[j // n].get(k, 0) + x
            # column k * n + gi of phi is elements[gi] acting on generator k
            for col, t in enumerate(orbit, k * n):
                for j, x in t.items():
                    phi[j][col] = x
        t_ranks.append(rank_mod(tensored, ell))
        kernel = nullspace_mod(phi, ell, n * len(orbits))
        ranks.append(len(orbits))
    # H_q = ker(d_{q-1} (x) F_ell) / im(d_q (x) F_ell), with d_{-1} = 0
    dims = [r - t - t_next for r, t, t_next in zip(ranks, [0] + t_ranks, t_ranks)]
    return dims + [0] * (q_max + 1 - len(dims))


# --------------------------------------------------------------------------
# Representation rings of the Bredon stabilizers


# Z[w], w a primitive cube root of unity (w^2 = -1 - w), as integer pairs
# a + b*w: every character value of the Bredon stabilizers lies there.
W, W2 = (0, 1), (-1, -1)


def _zw_inner(u, v, weights) -> tuple[int, int]:
    """The sum of weight * u_k * conj(v_k), where conj(c + d*w) = (c - d) - d*w."""
    re = im = 0
    for weight, (a, b), (c, d) in zip(weights, u, v):
        c, d = c - d, -d
        re += weight * (a * c - b * d)
        im += weight * (a * d + b * c - b * d)
    return re, im


#: Per Bredon stabilizer: the class sizes, and one row of values in Z[w]
#: per irreducible character, the trivial character first.
CHARACTER_TABLES: dict[str, tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]] = {
    tag: (sizes, tuple(tuple(x if isinstance(x, tuple) else (x, 0) for x in row)
                       for row in rows))
    for tag, (sizes, rows) in {
        "C1": ((1,), ((1,),)),
        "C2": ((1, 1), ((1, 1), (1, -1))),
        "C3": ((1, 1, 1), ((1, 1, 1), (1, W, W2), (1, W2, W))),
        "D2": ((1, 1, 1, 1), ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1),
                              (1, -1, -1, 1))),
        "D3": ((1, 2, 3), ((1, 1, 1), (1, 1, -1), (2, -1, 0))),
        "A4": ((1, 3, 4, 4), ((1, 1, 1, 1), (1, 1, W, W2), (1, 1, W2, W),
                              (3, -1, 0, 0))),
    }.items()}

#: Class fusion per (source, target, embedding index): the k-th element
#: e, g, g^2, ... of the cyclic source, which is also its k-th class,
#: lands in the listed target conjugacy class.
FUSIONS: dict[tuple[str, str, int], tuple[int, ...]] = {
    ("C1", "C1", 0): (0,),
    ("C1", "C2", 0): (0,),
    ("C1", "C3", 0): (0,),
    ("C1", "D2", 0): (0,),
    ("C1", "D3", 0): (0,),
    ("C1", "A4", 0): (0,),
    ("C2", "C2", 0): (0, 1),
    ("C3", "C3", 0): (0, 1, 2),
    ("C2", "D2", 0): (0, 1),
    ("C2", "D2", 1): (0, 2),
    ("C2", "D2", 2): (0, 3),
    ("C2", "D3", 0): (0, 2),
    ("C3", "D3", 0): (0, 1, 1),
    ("C2", "A4", 0): (0, 1),
    ("C3", "A4", 0): (0, 2, 3),
}

#: Unimodular base change U per tag: the split coordinates are U times
#: the character coordinates, and U maps the regular representation to
#: the first split basis vector.
SPLITTING_BASES: dict[str, tuple[tuple[int, ...], ...]] = {
    "C1": ((1,),),
    "C2": ((1, 0), (-1, 1)),
    "C3": ((1, 0, 0), (-1, 1, 0), (-1, 0, 1)),
    "D2": ((1, 0, 0, 0), (-1, 1, 0, 0), (-1, 0, 1, 0), (-1, 0, 0, 1)),
    "D3": ((1, 0, 0), (-1, 1, 0), (-1, -1, 1)),
    "A4": ((1, 0, 0, 0), (-1, -1, -1, 1), (-1, 1, 0, 0), (-1, 0, 1, 0)),
}


def check_orthogonality(tag: str) -> None:
    """Raise AssertionError unless the character table of tag satisfies
    row and column orthogonality."""
    sizes, chars = CHARACTER_TABLES[tag]
    n = sum(sizes)
    for i, chi in enumerate(chars):
        for j, psi in enumerate(chars):
            if _zw_inner(chi, psi, sizes) != (n if i == j else 0, 0):
                raise AssertionError(f"character table of {tag} fails row orthogonality")
    columns = list(zip(*chars))
    for k, x in enumerate(columns):
        for m, y in enumerate(columns):
            if _zw_inner(x, y, [1] * len(chars)) != (n // sizes[k] if k == m else 0, 0):
                raise AssertionError(f"character table of {tag} fails column orthogonality")


def induction_by_reciprocity(source: str, target: str,
                             embedding: int = 0) -> tuple[tuple[int, ...], ...]:
    """The induced map on representation rings, rank(target) x
    rank(source), from the class fusion by Frobenius reciprocity: the
    multiplicity of a target character psi in the induction of a source
    character chi is <chi, Res psi>.  Raises AssertionError unless every
    multiplicity is a non-negative integer and induction multiplies
    degrees by the index."""
    fusion = FUSIONS[source, target, embedding]
    (src_sizes, src_chars), (tgt_sizes, tgt_chars) = (CHARACTER_TABLES[source],
                                                      CHARACTER_TABLES[target])
    order = sum(src_sizes)
    mat = []
    for psi in tgt_chars:
        restricted = [psi[cls] for cls in fusion]
        row = []
        for chi in src_chars:
            a, b = _zw_inner(chi, restricted, src_sizes)
            if b or a % order or a < 0:
                raise AssertionError(f"induction {source}->{target} produced "
                                     f"non-integral multiplicity ({a} + {b}w)/{order}")
            row.append(a // order)
        mat.append(tuple(row))
    index = sum(tgt_sizes) // order
    src_deg, tgt_deg = ([chi[0][0] for chi in chars] for chars in (src_chars, tgt_chars))
    if ([sum(d * row[j] for d, row in zip(tgt_deg, mat)) for j in range(len(src_deg))]
            != [index * d for d in src_deg]):
        raise AssertionError(f"induction {source}->{target} does not scale "
                             f"degrees by the index {index}")
    return tuple(mat)


def check_block_diagonal(mat, row_parts, col_parts) -> None:
    """Raise AssertionError if mat has a nonzero entry linking two
    different parts; row_parts and col_parts partition its row and
    column indices (the split coordinates of the target and the source)."""
    for bi, rows in enumerate(row_parts):
        for bj, cols in enumerate(col_parts):
            for r, c in itertools.product(rows, cols):
                if bi != bj and mat[r][c]:
                    raise AssertionError(f"off-block entry {mat[r][c]} at ({r}, {c})")
