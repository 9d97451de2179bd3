"""Weil heights and generalized-gcd heights for rational points.

For a primitive point x = (a_0 : ... : a_N) and a subscheme Y cut out by
homogeneous generators g_j of degree d_j, the height of x along Y splits
into two non-negative pieces computed from the exact integers v_j = g_j(a):

    arch_part = min over j with v_j != 0 of (d_j * log||a|| - log|v_j|)
    gcd_part  = log gcd of the nonzero |v_j|

with ||a|| the max absolute coordinate.  When every generator vanishes the
point lies on Y and the height is infinite.  This generator presentation is
one representative of the usual bounded-function equivalence class of
heights attached to Y; a different generating set of the same ideal shifts
values by a bounded amount only, which the test suite samples but does not
assert as a universal constant.

All number-theoretic content (gcds, maxima, the argmin over j) is decided
in exact integer arithmetic; floating point enters only at the final log.
Python's math.log accepts arbitrarily large ints directly (it works from
the exponent and top bits), so no manual bit-length splitting is needed.

Along an orbit x_n = f(x_{n-1}) / c, every prime of gcd_j g_j(x_n) makes
x_{n-1} a common zero mod p of the forms g_j o f, so it divides the
support at x_{n-1} of their divisor certificate (projgeom).  A support of
1 proves the gcd is 1 without the full-size gcd.  height_ratio_series
uses it for maps of P^2 and linear generators, from
projgeom.CERTIFICATE_MIN_BITS on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Optional, Tuple

from . import poly, projgeom
from .projgeom import ProjPoint, RationalMap, SubschemeIdeal


@dataclass(frozen=True)
class HeightValue:
    """h_Y(x) split into archimedean and gcd parts, with integer witnesses.

    When infinite is set the numeric fields are None.  The witness fields
    expose the exact integers behind the floats: sup_norm = ||a||, the
    gcd over nonzero generator values, and the generator value |v_j| (with
    its degree d_j) at which the archimedean min is attained.  Tests
    compare those integers exactly; the floats are presentation only.
    """
    total: Optional[float]
    arch_part: Optional[float]
    gcd_part: Optional[float]
    infinite: bool
    sup_norm: Optional[int] = None
    gcd_value: Optional[int] = None
    arch_value: Optional[int] = None
    arch_degree: Optional[int] = None


def weil_height(x: ProjPoint) -> float:
    """log of the max absolute coordinate of a primitive point."""
    return math.log(max(abs(c) for c in x.coords))


def subscheme_height(Y: SubschemeIdeal, x: ProjPoint) -> HeightValue:
    """Generalized-gcd height of x along Y.

    The archimedean argmin over generators is decided in exact integers,
    never by comparing floats: |v_k| / ||a||^{d_k} against |v_j| / ||a||^{d_j}
    with both sides multiplied by ||a||^{max(d_j, d_k)}, so generators of
    equal degree compare their values alone.  On a tie the earlier
    generator wins.  A support of 1 on Y proves the gcd is 1.
    """
    if Y.arity != x.arity:
        raise ValueError("ideal arity %d vs point arity %d"
                         % (Y.arity, x.arity))
    sup = max(abs(c) for c in x.coords)
    values: List[Tuple[int, int]] = []  # (|v_j|, d_j) for nonzero v_j
    for g in Y.generators:
        v = poly.eval_int(g, x.coords)
        if v != 0:
            values.append((abs(v), poly.degree(g)))
    if not values:
        return HeightValue(None, None, None, True)

    best_v, best_d = values[0]
    for v, d in values[1:]:
        # v/||a||^d maximal <=> arch term minimal
        m = min(d, best_d)
        if v * sup ** (best_d - m) > best_v * sup ** (d - m):
            best_v, best_d = v, d
    g = 1 if Y.support == 1 else math.gcd(*(v for v, _ in values))
    arch = best_d * math.log(sup) - math.log(best_v)
    gcd_part = math.log(g)
    return HeightValue(arch + gcd_part, arch, gcd_part, False,
                       sup_norm=sup, gcd_value=g,
                       arch_value=best_v, arch_degree=best_d)


class BczWitness(NamedTuple):
    """The integer witnesses of h_Y at the n-th point of the diagonal orbit."""
    sup_norm: int          # max(a^n, b^n, 1)
    gcd_value: int         # gcd(a^n - 1, b^n - 1)
    arch_value: int        # max(a^n - 1, b^n - 1)


def bcz_exact_parts(a: int, b: int, n: int) -> BczWitness:
    """The witnesses at f^n(1:1:1) = (a^n : b^n : 1), f = (a*x0 : b*x1 : x2),
    of Y = the point (1:1:1), cut out by x0 - x2 and x1 - x2, whose values
    there are a^n - 1 and b^n - 1."""
    if a < 2 or b < 2:
        raise ValueError("bases must be >= 2")
    if n < 1:
        raise ValueError("n must be >= 1")
    an, bn = a ** n, b ** n
    return BczWitness(max(an, bn, 1), math.gcd(an - 1, bn - 1),
                      max(an - 1, bn - 1))


def multiplicatively_dependent(a: int, b: int) -> bool:
    """True when a^i = b^j has a solution with i, j >= 1 (a, b >= 2).

    Dependent numbers are powers c^i, c^j of one base, so the smaller
    divides the larger and their quotient is again a power of c.  Dividing
    the larger by the smaller until the two meet is Euclid's algorithm on
    the exponents; a remainder on the way proves independence.
    """
    if a < 2 or b < 2:
        raise ValueError("bases must be >= 2")
    while a != b:
        a, b = min(a, b), max(a, b)
        if b % a:
            return False
        b //= a
    return True


@dataclass(frozen=True)
class HeightRow:
    """Heights of the orbit point f^n(x0); bits is the bit length of its
    largest coordinate, ratio is h_Y / h (None when h = 0 or h_Y is
    infinite)."""
    n: int
    bits: int
    h: float
    height: HeightValue
    ratio: Optional[float]


@dataclass
class HeightSeries:
    """Per-iterate heights along an orbit, one row per orbit point."""
    rows: List[HeightRow]
    orbit: projgeom.OrbitResult


def height_ratio_series(f: RationalMap, Y: SubschemeIdeal, x0: ProjPoint,
                        n_max: int) -> HeightSeries:
    """One HeightRow per point of the orbit of x0; the truncation and
    periodicity flags stay on the orbit."""
    orb = projgeom.orbit(f, x0, n_max)
    pull_back = f.arity == 3 and all(poly.degree(g) == 1 for g in Y.generators)
    cert = None  # of the forms g_j o f, built at the first large point
    rows: List[HeightRow] = []
    for n, pt in enumerate(orb.points):
        h = weil_height(pt)
        bits = max(c.bit_length() for c in pt.coords)
        Y_n = Y
        if pull_back and n and bits >= projgeom.CERTIFICATE_MIN_BITS:
            from . import elimination  # deferred, as in projgeom.orbit
            if cert is None:
                cert = elimination.divisor_certificate(
                    [poly.compose(g, f.components) for g in Y.generators])
            Y_n = replace(Y, support=elimination.certified_support(
                cert, orb.points[n - 1].coords))
        hy = subscheme_height(Y_n, pt)
        ratio: Optional[float] = None
        if h > 0.0 and not hy.infinite:
            assert hy.total is not None
            ratio = hy.total / h
        rows.append(HeightRow(n, bits, h, hy, ratio))
    return HeightSeries(rows, orb)
