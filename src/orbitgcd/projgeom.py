"""Projective points over Q and rational self-maps of P^N.

Points are stored in the canonical representative: integer homogeneous
coordinates with gcd 1 whose first nonzero entry is positive.  Maps are
tuples of N+1 homogeneous polynomials of one common degree, reduced so
that the components share no polynomial factor; evaluation at a point
either produces the image point or signals indeterminacy when every
component vanishes (the set-theoretic base locus of the reduced tuple).
The last point of an orbit needs no image, only that zero test, so it is
evaluated at its coordinates mod ffield.WORD_PRIME first: a value nonzero
mod that prime proves the point outside the base locus, and only when
every one is 0 are the components evaluated exactly.

An orbit step divides the values f_i(x) by g = gcd_i f_i(x), the
generalized gcd of x along the base scheme of f.  For a map of P^2 a
divisor certificate skips the full-size gcd: for each variable x_k and
each pair of components, the resultant R = Res_{x_k}(f_i, f_j) over Z
(elimination.resultant) is a binary form in the other two variables.  If
either form involves x_k, R = A*f_i + B*f_j, so every prime of g divides
R(x), and with c the content of R, every prime of R(x) divides c * S(x)
for the primitive squarefree part S of R / c.  A constant R is dropped: 0
for a pair that shares a factor, 1 for a pair free of x_k.  Only forms
with deg S < deg f are kept, since only then is c * S(x) smaller than the
values.  The gcd G of the kept c * S(x) bounds the primes of g: G = 1
proves g = 1, and otherwise g comes from gcds of G with the values.
The certificate is built, by orbitgcd.elimination, the first time a
step's smallest nonzero value reaches CERTIFICATE_MIN_BITS, where the
full gcd starts to cost more than the build.  Below that size, for other
arities, for maps with no kept form, and where every kept c * S(x) is 0,
the smallest nonzero |value| stands in for G (make_point's default
support); either way the point is the same.  heights builds the same
certificate for the generators of Y composed with f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from . import ffield, poly
from .poly import BigPoly

Coords = Tuple[int, ...]

# An orbit step uses the divisor certificate once its smallest nonzero
# value has this many bits: make_point's first full gcd runs at that
# size, and math.gcd of two such numbers takes about as long (2.4 ms on a
# 2-core Xeon) as building the certificate of a sparse cubic map.
# heights.height_ratio_series certifies a row whose point has this many.
CERTIFICATE_MIN_BITS = 1 << 15


@dataclass(frozen=True)
class ProjPoint:
    """Primitive, sign-canonical homogeneous coordinates."""
    coords: Coords

    @property
    def arity(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return "(" + " : ".join(str(c) for c in self.coords) + ")"


def make_point(raw: Sequence[int], support: int = 0) -> ProjPoint:
    """Canonical representative of the projective point with these coordinates.

    A nonzero support is an integer divisible by every prime that divides
    all the coordinates, such as the value of a divisor certificate; the
    common factor is then found by gcds with it instead of among the
    coordinates themselves.  The support defaults to the smallest nonzero
    |coordinate|, so that every gcd is at most that size (math.gcd is
    quadratic).
    """
    coords = [int(c) for c in raw]
    if len(coords) < 2:
        raise ValueError("a projective point needs at least two coordinates")
    if not any(coords):
        raise ValueError("all coordinates are zero")
    # h = gcd(support, coords) has every prime of gcd(coords); after
    # dividing by it, the primes of what is left still divide h
    h = support or min(abs(c) for c in coords if c)
    while h != 1:
        for c in coords:
            h = math.gcd(h, c % h)
            if h == 1:
                break
        else:
            coords = [c // h for c in coords]
    for c in coords:
        if c != 0:
            if c < 0:
                coords = [-x for x in coords]
            break
    return ProjPoint(tuple(coords))


@dataclass(frozen=True)
class RationalMap:
    """Reduced tuple of N+1 homogeneous components of common degree."""
    components: Tuple[BigPoly, ...]
    degree: int

    @property
    def arity(self) -> int:
        return self.components[0].arity


@dataclass(frozen=True)
class SubschemeIdeal:
    """Homogeneous generators of the ideal cutting out the target Y.

    A nonzero support is divisible by every prime of gcd_j g_j(x) at the
    one point x that this copy of the ideal is measured at
    (heights.height_ratio_series sets it per row).
    """
    generators: Tuple[BigPoly, ...]
    support: int = field(default=0, compare=False)

    @property
    def arity(self) -> int:
        return self.generators[0].arity


def _form_degree(label: str, i: int, p: BigPoly, arity: int) -> Optional[int]:
    """The degree of p (None for 0); raises ValueError naming label i
    unless p is homogeneous in arity variables."""
    if p.arity != arity:
        raise ValueError("%s %d has mismatched arity" % (label, i))
    ok, d = poly.is_homogeneous(p)
    if not ok:
        raise ValueError("%s %d is not homogeneous" % (label, i))
    return d


def make_ideal(generators: Sequence[BigPoly]) -> SubschemeIdeal:
    gens = tuple(generators)
    if not gens:
        raise ValueError("ideal needs at least one generator")
    for i, g in enumerate(gens):
        d = _form_degree("generator", i, g, gens[0].arity)
        if d is None or d < 1:
            raise ValueError("generator %d must be nonzero of degree >= 1" % i)
    return SubschemeIdeal(gens)


def make_map(components: Sequence[BigPoly]) -> RationalMap:
    """Reduce the component tuple and record the reduced degree.

    Components are divided by their common polynomial gcd (folded pairwise,
    monomial-light components first so the fold stays cheap) and then by
    their common integer content.  The result is sign-canonical: the first
    nonzero component has positive leading coefficient.
    """
    comps = list(components)
    if len(comps) < 2:
        raise ValueError("a map of P^N needs at least two components")
    arity = comps[0].arity
    if len(comps) != arity:
        raise ValueError("expected %d components for arity %d, got %d"
                         % (arity, arity, len(comps)))
    common_deg: Optional[int] = None
    for i, c in enumerate(comps):
        d = _form_degree("component", i, c, arity)
        if d is not None:
            if common_deg is not None and d != common_deg:
                raise ValueError("component degrees differ: %d vs %d"
                                 % (common_deg, d))
            common_deg = d
    if common_deg is None:
        raise ValueError("all components are zero")
    if common_deg < 1:
        raise ValueError("component degree must be >= 1")

    order = sorted(range(len(comps)), key=lambda i: (len(comps[i].terms) or 1,
                                                     poly.degree(comps[i]) or 0))
    g: Optional[BigPoly] = None
    for i in order:
        if not comps[i].terms:
            continue
        g = comps[i] if g is None else poly.gcd_multivar(g, comps[i])
        if poly.degree(g) == 0:
            break
    assert g is not None
    g_deg = poly.degree(g)
    if g_deg:
        reduced = []
        for c in comps:
            q = poly.div_exact(c, g)
            if q is None:
                raise AssertionError("component not divisible by common gcd")
            reduced.append(q)
        comps = reduced

    ic = math.gcd(*(v for c in comps for v in c.terms.values()))
    if ic > 1:
        comps = [poly.BigPoly(arity, {e: v // ic for e, v in c.terms.items()})
                 for c in comps]

    for c in comps:
        if c.terms:
            if poly.leading_term(c)[1] < 0:
                comps = [poly.neg(x) for x in comps]
            break

    return RationalMap(tuple(comps), common_deg - g_deg)


@dataclass
class OrbitResult:
    """Forward orbit with truncation and periodicity flags.

    points holds the orbit members f^0(x)..f^k(x) that sit outside the
    base locus; a member inside the base locus is never emitted, and
    indeterminate_at records its index (so a start point in the base locus
    yields an empty orbit with indeterminate_at = 0).  period_start is the
    index whose point reappeared, ending the orbit early.
    """
    points: List[ProjPoint] = field(default_factory=list)
    indeterminate_at: Optional[int] = None
    periodic: bool = False
    period_start: Optional[int] = None


def _in_base_locus(f: RationalMap, coords: Coords) -> bool:
    """Whether every component of f vanishes at coords.

    Decided mod P = ffield.WORD_PRIME first: f_i(coords) = f_i(residues)
    mod P, so an eval_int at the residues that is nonzero mod P proves
    coords outside.  The exact values are computed only when every one
    is 0 mod P, which a point outside the base locus rarely gives.
    """
    P = ffield.WORD_PRIME
    residues = [c % P for c in coords]
    if any(poly.eval_int(c, residues) % P for c in f.components):
        return False
    return all(poly.eval_int(c, coords) == 0 for c in f.components)


def orbit(f: RationalMap, x0: ProjPoint, n_max: int) -> OrbitResult:
    """Successive images of x0, stopping at n_max, indeterminacy, or a cycle.

    Points before x_{n_max} are evaluated exactly, since their values give
    the next point; from CERTIFICATE_MIN_BITS on, the divisor certificate
    of f bounds their common factor.  x_{n_max} itself is only tested for
    indeterminacy, by residues mod ffield.WORD_PRIME with an exact fallback
    when all of them are 0.
    """
    if f.arity != x0.arity:
        raise ValueError("map arity %d vs point arity %d" % (f.arity, x0.arity))
    result = OrbitResult()
    seen: dict = {}
    cert = None  # the divisor certificate, built at the first large step
    current = x0
    for n in range(n_max + 1):
        key = current.coords
        if key in seen:
            result.periodic = True
            result.period_start = seen[key]
            break
        if n == n_max:
            if _in_base_locus(f, key):
                result.indeterminate_at = n
            else:
                result.points.append(current)
            break
        values = [poly.eval_int(c, key) for c in f.components]
        if all(v == 0 for v in values):
            result.indeterminate_at = n
            break
        seen[key] = n
        result.points.append(current)
        support = 0
        if min(v.bit_length() for v in values if v) >= CERTIFICATE_MIN_BITS:
            from . import elimination  # deferred: most orbits never need it
            if cert is None:
                cert = elimination.divisor_certificate(f.components)
            support = elimination.certified_support(cert, key)
        current = make_point(values, support)
    return result
