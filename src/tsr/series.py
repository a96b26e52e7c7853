"""Exact Poincare-series arithmetic and closed-form dimension formulas.

Series are rational functions num(t)/den(t) in lowest terms, kept as
a pair of primitive integer polynomials: integer coefficients of joint
content 1, cancelled by their primitive gcd over Z, with den(0) != 0
and den's leading coefficient positive.  With den = c * p, p primitive,
the coefficient of t^k is b_k / (c * p0^(k+1)) for the integers
b_k = p0^k num_k - sum_j p_j p0^(j-1) b_(k-j); p0 = +-1 for every series
tsr builds, so ``expand`` is an exact recurrence on small integers.  The
generating functions encode stabilizer cohomology dimensions above the
virtual cohomological dimension (which is 2 for the groups treated
here, so every series vanishes below degree 3).
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import zip_longest
from math import comb, gcd, lcm

from ._modp import assemble, rank_mod
from .complexes import (_ELL_QUOTIENT, OrbitComplex, _check_prime, _is_int, check_inclusion,
                        edge_end_assignments)


class CensusError(ValueError):
    """Inconsistent subgroup census data."""


# --------------------------------------------------------------------------
# Polynomials over Z (dense, ascending coefficients)

Coeffs = tuple[int, ...]


def _poly(coeffs) -> Coeffs:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _poly_add(a: Coeffs, b: Coeffs) -> list[int]:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _poly_mul(a: Coeffs, b: Coeffs) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_primitive(a: Coeffs) -> Coeffs:
    c = gcd(*a) or 1
    return tuple([x // c for x in a])


def _poly_prem(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive part of a pseudo-remainder of a by b."""
    rem, lead = list(a), b[-1]
    while len(rem) >= len(b):
        g = gcd(rem[-1], lead)
        c, k = rem[-1] // g, len(rem) - len(b)
        rem = [lead // g * x for x in rem]
        for i, y in enumerate(b):
            rem[k + i] -= c * y
        rem = _poly(rem)
    return _poly_primitive(rem)


def _poly_exquo(a: Coeffs, b: Coeffs) -> Coeffs:
    """The quotient a / b, for b dividing a over Z."""
    rem, quot = list(a), []
    for k in range(len(a) - len(b), -1, -1):
        quot.append(rem[k + len(b) - 1] // b[-1])
        for i, y in enumerate(b):
            rem[k + i] -= quot[-1] * y
    return tuple(reversed(quot))


def _poly_gcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """Primitive gcd over Z, up to sign (Knuth, TAOCP 2, 4.6.1, Algorithm E)."""
    while b:
        a, b = b, _poly_prem(a, b)
    return _poly_primitive(a)


def _poly_str(a: Coeffs) -> str:
    if not a:
        return "0"
    terms = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "t" if mag == 1 else f"{mag}*t"
        else:
            body = f"t^{k}" if mag == 1 else f"{mag}*t^{k}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


class RationalSeries:
    """Exact num/den in t, from int or Fraction coefficients, in the normal form above."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num, den = list(num), list(den)
        m = lcm(*[c.denominator for c in num + den])  # clear denominators once
        n, d = (_poly(c.numerator * (m // c.denominator) for c in cs) for cs in (num, den))
        if not d:
            raise ZeroDivisionError("zero denominator")
        g = _poly_gcd(n, d) if n else d  # 0 / d is 0 / 1
        n, d = _poly_exquo(n, g), _poly_exquo(d, g)
        if d[0] == 0:
            raise ValueError("denominator vanishes at t = 0")
        content = gcd(*n, *d) if d[-1] > 0 else -gcd(*n, *d)
        self.num, self.den = (tuple([x // content for x in p]) for p in (n, d))

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries(
            _poly_add(_poly_mul(self.num, other.den), _poly_mul(other.num, self.den)),
            _poly_mul(self.den, other.den))

    def scale(self, c) -> "RationalSeries":
        return RationalSeries([c.numerator * x for x in self.num],
                              [c.denominator * x for x in self.den])

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalSeries)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def expand(self, n: int) -> list[Fraction]:
        """Power-series coefficients up to degree n, by the module docstring's recurrence."""
        if n < 0:
            raise ValueError("degree must be non-negative")
        c = gcd(*self.den)
        p0, *tail = (x // c for x in self.den)
        steps = [(j, pj * p0 ** (j - 1)) for j, pj in enumerate(tail, 1) if pj]
        b, out, power = [0] * (n + 1), [0] * (n + 1), 1  # an absurd n fails here
        for k in range(n + 1):
            acc = power * self.num[k] if k < len(self.num) else 0
            for j, e in steps:
                if j > k:
                    break
                acc -= e * b[k - j]
            b[k] = acc
            power *= p0
            out[k] = Fraction(acc, c * power)
        return out

    def __str__(self) -> str:
        if not self.num:
            return "0"
        if self.den == (1,):
            return _poly_str(self.num)
        return f"({_poly_str(self.num)}) / ({_poly_str(self.den)})"

    __repr__ = __str__


# --------------------------------------------------------------------------
# Canonical component series

SERIES_CIRCLE = "Circle"
SERIES_EDGE3 = "Edge3"
SERIES_D2STAR = "D2star"
SERIES_A4STAR = "A4star"


_CANONICAL = {
    SERIES_CIRCLE: RationalSeries([0, 0, 0, -2], [-1, 1]),
    SERIES_EDGE3: RationalSeries([0, 0, 0, -2, 1, -1], [-1, 1, -1, 1]),
    SERIES_D2STAR: RationalSeries([0, 0, 0, 5, -3], [2, -4, 2]),
    SERIES_A4STAR: RationalSeries([0, 0, 0, 3, -2, 2, -1], [2, -2, 0, -2, 2]),
}


def canonical_series(kind: str) -> RationalSeries:
    """The four pinned component generating functions, each built once:

    Circle  -2t^3 / (t-1)                 constant dims 2 from degree 3
    Edge3   -t^3 (t^2-t+2) / ((t-1)(t^2+1))   4-periodic 2,1,0,1
    D2star  -t^3 (3t-5) / (2 (t-1)^2)     half-integral, dims q - 1/2
    A4star  -t^3 (t^3-2t^2+2t-3) / (2 (t-1)^2 (t^2+t+1))
    """
    try:
        return _CANONICAL[kind]
    except KeyError:
        raise ValueError(f"unknown series kind {kind!r}") from None


# --------------------------------------------------------------------------
# Subgroup census

_CENSUS_GREEK = {"λ4": "lambda4", "λ4*": "lambda4star", "λ6": "lambda6",
                 "λ6*": "lambda6star", "μ2": "mu2", "μ3": "mu3", "μT": "muT",
                 "β1": "beta1", "β2": "beta2"}


class SubgroupCensus(namedtuple("SubgroupCensus", "lambda4 lambda4star lambda6 lambda6star "
                                "mu2 mu3 muT z2 d2 v c beta1 beta2", defaults=(0,) * 13)):
    """Counts of conjugacy classes of finite subgroups, by type, plus the
    Betti data of the orbit space.  Missing fields default to zero; the
    counts are inputs here, never computed from number fields.  A census
    is validated when it is built, _replace included, so an inconsistent
    one raises CensusError and never reaches a formula."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs).validate()

    @property
    def o2(self) -> int:
        return self.lambda4 - self.lambda4star

    @property
    def o3(self) -> int:
        return self.lambda6 - self.lambda6star

    @property
    def iota3(self) -> int:
        return self.lambda6star

    def validate(self) -> "SubgroupCensus":
        for name, val in zip(self._fields, self):
            if not _is_int(val) or val < 0:
                raise CensusError(f"{name} must be a non-negative integer")
        if self.lambda4star > self.lambda4:
            raise CensusError("lambda4star exceeds lambda4")
        if self.lambda6star > self.lambda6:
            raise CensusError("lambda6star exceeds lambda6")
        if self.mu3 % 2:
            raise CensusError("mu3 must be even")
        if self.d2 % 2:
            raise CensusError("d2 must be even")
        return self

    @staticmethod
    def from_dict(doc: dict) -> "SubgroupCensus":
        fields = {}
        for key, val in doc.items():
            name = _CENSUS_GREEK.get(key, key)
            if name not in SubgroupCensus.FIELDS:
                raise CensusError(f"unknown census field {key!r}")
            if name in fields:
                raise CensusError(f"duplicate census field {key!r}")
            fields[name] = val
        return SubgroupCensus(**fields)


#: The census field names, in order.
SubgroupCensus.FIELDS = SubgroupCensus._fields


def _validated_expansion(series: RationalSeries, what: str) -> None:
    coeffs = series.expand(20)
    for q, cq in enumerate(coeffs):
        if cq.denominator != 1 or cq < 0 or (q < 3 and cq != 0):
            raise CensusError(
                f"census inconsistency: {what} has coefficient {cq} at degree {q}")


def poincare_2torsion(census: SubgroupCensus) -> RationalSeries:
    """Generating function of the mod-2 homology dimensions above the vcd:
    the circle / D2-excess / A4-excess combination weighted by the census."""
    s = canonical_series(SERIES_CIRCLE).scale(
        Fraction(census.lambda4) - Fraction(3 * census.mu2 - 2 * census.muT, 2))
    s = s + canonical_series(SERIES_D2STAR).scale(census.mu2 - census.muT)
    s = s + canonical_series(SERIES_A4STAR).scale(census.muT)
    _validated_expansion(s, "2-torsion series")
    return s


def poincare_3torsion(census: SubgroupCensus) -> RationalSeries:
    """Mod-3 counterpart: circles plus single edges, weighted by the census."""
    s = canonical_series(SERIES_CIRCLE).scale(
        Fraction(census.lambda6) - Fraction(census.mu3, 2))
    s = s + canonical_series(SERIES_EDGE3).scale(Fraction(census.mu3, 2))
    _validated_expansion(s, "3-torsion series")
    return s


# --------------------------------------------------------------------------
# Equivariant cohomology oracle for 1-dimensional complexes

ORACLE_STABILIZERS = ("C1", "C2", "C3", "D2", "D3")


def stabilizer_cohomology_dim(tag: str, ell: int, q: int) -> int:
    """Pinned dim of H^q(G; F_ell) for the oracle's stabilizer types."""
    if tag not in ORACLE_STABILIZERS:
        raise ValueError(f"unsupported stabilizer {tag!r}")
    if q < 0:
        return 0
    if q == 0:
        return 1
    # O_ell'(G) has order prime to ell, so H*(G; F_ell) = H*(G/O_ell'(G); F_ell)
    quotient = _ELL_QUOTIENT.get(ell, {}).get(tag, "C1")
    return {"C1": 0, "C2": 1, "C3": 1, "D2": q + 1, "D3": int(q % 4 in (0, 3))}[quotient]


def restriction_block(vtag: str, etag: str, emb: int, ell: int, q: int) -> list[list[int]]:
    """Pinned matrix of the restriction H^q(vertex) -> H^q(edge) along the
    class emb of an inclusion in complexes.INCLUSIONS.  It is the identity
    on the leading coordinates: the identity (same tag, or q = 0), a map
    to 0 (ell does not divide the edge stabilizer's order), or injective
    between spaces of dimension <= 1 (the edge stabilizer contains a Sylow
    ell-subgroup); C2 in D2 is the leading coordinate at class 0, and at
    classes 1 and 2 the one exception."""
    check_inclusion(etag, vtag, emb)
    dv, de = (stabilizer_cohomology_dim(tag, ell, q) for tag in (vtag, etag))
    block = [[int(i == j) for j in range(dv)] for i in range(de)]
    if emb and de:  # C2 in D2, at ell = 2 or q = 0: H^q(D2; F2) has the basis
        # x^(q-j) y^j, j = 0..q; class k substitutes (x, y) -> (t, 0), (0, t), (t, t)
        block[0] = [int(j == q) for j in range(dv)] if emb == 1 else [1] * dv
    return block


def equivariant_graph_cohomology_oracle(cx: OrbitComplex, ell: int,
                                        q_range) -> dict[int, int]:
    """Equivariant cohomology dims of a complex of dimension <= 1,
    assembled degree by degree from the vertex-to-edge restriction maps
    over the edge end terms of edge_end_assignments:
    dim H^q = dim ker(alpha_q) + dim coker(alpha_{q-1}) for the map
    alpha_q : (+)_v H^q(G_v) -> (+)_e H^q(G_e).  Each distinct map is
    eliminated once: its rank is kept under its content (the per-tag
    dims and restriction blocks), not its degree, as equal maps have
    equal ranks."""
    _check_prime(ell)
    if cx.dimension > 1:
        raise ValueError("oracle requires a complex of dimension <= 1")
    for c in cx.cells:
        if c.stabilizer not in ORACLE_STABILIZERS:
            raise ValueError(f"unsupported stabilizer {c.stabilizer!r} on {c.id!r}")
    vertices, edges, ends = edge_end_assignments(cx)
    # alpha_q restricts from vertices to edges: rows and columns swapped
    terms = [(j, i, sign, emb) for i, j, sign, emb in ends]
    vcount, ecount = (Counter(c.stabilizer for c in cells) for cells in (vertices, edges))
    tags = sorted(vcount.keys() | ecount.keys())
    incl = dict.fromkeys((vertices[i].stabilizer, edges[j].stabilizer, e) for i, j, _, e in ends)
    ranks: dict[tuple, int] = {}

    def alpha(q: int) -> tuple[int, int, int]:
        """(rank, rows, columns) of alpha_q."""
        dim = {t: stabilizer_cohomology_dim(t, ell, q) for t in tags}
        blocks = {k: restriction_block(*k, ell, q) for k in incl}
        key = (tuple(dim.values()), tuple(tuple(map(tuple, b)) for b in blocks.values()))
        if key not in ranks:
            mat = assemble(terms, edges, vertices, dim.__getitem__, lambda *k: blocks[k])
            ranks[key] = rank_mod(mat, ell)
        return ranks[key], *(sum(dim[t] * n for t, n in c.items()) for c in (ecount, vcount))

    dims = {}
    for q in sorted(q_range):
        if q < 1:
            raise ValueError("oracle degrees must be >= 1")
        (rank, _, cols), (prev_rank, prev_rows, _) = alpha(q), alpha(q - 1)
        dims[q] = (cols - rank) + (prev_rows - prev_rank)  # ker + coker
    return dims


# --------------------------------------------------------------------------
# Closed-form dimension formulas


def dihedral_mod_ell_homology(n: int, ell: int, q: int) -> int:
    """dim over F_ell of H_q of the dihedral group of order 2n, for odd
    primes ell: 1 at q = 0, 1 at q = 3,4 mod 4 when ell | n, else 0."""
    _check_prime(ell)
    if ell == 2:
        raise ValueError("formula only stated for odd primes")
    if n < 1 or q < 0:
        raise ValueError("need n >= 1 and q >= 0")
    if q == 0:
        return 1
    if q % 4 in (3, 0):
        return 1 if gcd(n, ell) == ell else 0
    return 0


def coxeter_homology(m: int, ell: int, q: int) -> int:
    """Mod-ell homology dimension for reflection groups whose ell-torsion
    structure is m disjoint non-branching segments: m copies of the
    dihedral pattern."""
    _check_prime(ell)
    if ell == 2:
        raise ValueError("only odd primes supported")
    if m < 0:
        raise ValueError("component count must be non-negative")
    return m * dihedral_mod_ell_homology(ell, ell, q)


def triangle_group_homology(p: int, q: int, r: int, ell: int, deg: int) -> int:
    """Mod-ell homology dimension of the non-spherical triangle reflection
    group with parameters (p, q, r): the dihedral contributions add up."""
    _check_prime(ell)
    if ell == 2:
        raise ValueError("only odd primes supported")
    if min(p, q, r) < 2:
        raise ValueError("parameters must be >= 2")
    if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) > 1:
        raise ValueError("spherical triple: the group is finite")
    if deg < 1:
        raise ValueError("degree must be >= 1")
    return sum(dihedral_mod_ell_homology(n, ell, deg) for n in (p, q, r))


def sl2_mod2_dims(beta1: int, beta2: int, q: int) -> int:
    """Mod-2 cohomology dimensions of the rank-one special linear groups
    whose non-central reduced 2-torsion quotient is a single edge, as a
    function of the orbit space Betti numbers."""
    if q < 1:
        raise ValueError("dimension display starts at q = 1")
    if q == 1:
        return beta1
    rem = q % 4
    if rem == 2:
        return beta1 + beta2 + 1
    if rem == 3:
        return beta1 + beta2 + 3
    if rem == 0:
        return beta1 + beta2 + 2
    return beta1 + beta2  # q = 4k+5


class E2Page(namedtuple("E2Page", "entries a1 a2 a3", defaults=(0, 0, 0))):
    """The spectral-sequence page concentrated in columns n = 0, 1, 2,
    with 4-periodic rows; entries maps (n, q mod 4) to an F_2-dimension."""

    __slots__ = ()

    def row(self, q_mod4: int) -> tuple[int, int, int]:
        return tuple(self.entries[(n, q_mod4)] for n in range(3))


def e2_page(census: SubgroupCensus, chi_xs: int, xs_rows: dict) -> E2Page:
    """Assemble the 4-row page from the census (v, c), the orbit space
    Betti numbers, the Euler characteristic of the torsion subcomplex
    quotient and its own page entries (E01, E11, E03, E13, H2Xsprime);
    an entry left out reads 0, and any other key is refused."""
    rows = {"E01": 0, "E11": 0, "E03": 0, "E13": 0, "H2Xsprime": 0}
    for name, val in xs_rows.items():
        if name not in rows:
            raise ValueError(f"unknown xs_rows key {name!r}")
        if not _is_int(val) or val < 0:
            raise ValueError(f"xs_rows entry {name} = {val!r} is not a non-negative integer")
        rows[name] = val
    v, c = census.v, census.c
    b1, b2 = census.beta1, census.beta2
    sign_v = 0 if v == 0 else 1
    a1 = chi_xs - 1 + b1 + c
    a2 = b2 + c
    a3 = b1 + v - sign_v
    for name, val in (("a1", a1), ("a2", a2), ("a3", a3)):
        if val < 0:
            raise ValueError(f"inconsistent inputs: {name} = {val} < 0")
    entries = {
        (0, 0): 1, (1, 0): b1, (2, 0): b2,
        (0, 1): rows["E01"], (1, 1): rows["E11"] + a1, (2, 1): a2,
        (0, 2): rows["H2Xsprime"] + (1 - sign_v), (1, 2): a3, (2, 2): b2,
        (0, 3): rows["E03"], (1, 3): rows["E13"] + a1, (2, 3): a2,
    }
    return E2Page(entries, a1, a2, a3)


def farrell_tate_sl2_dims(r: int, invariant_class: bool, q: int, ell: int) -> int:
    """Graded dimension of the ell-primary stable cohomology of a rank-one
    normalizer: a Laurent algebra on a degree-2 class tensored with an
    exterior algebra on r degree-1 classes, optionally taking invariants
    of the sign involution (which negates all generators)."""
    _check_prime(ell)
    if ell == 2:
        raise ValueError("only odd primes supported")
    if r < 0:
        raise ValueError("rank must be non-negative")
    total = 0
    for k in range(r + 1):
        if (q - k) % 2:
            continue
        if invariant_class and ((q - k) // 2 + k) % 2:
            continue
        total += comb(r, k)
    return total
