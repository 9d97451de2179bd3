"""Resultants of forms in three variables from their images mod word
primes, and the divisor certificate built from them.

The certificate bounds the primes of g = gcd_i f_i(x) for forms f_i of
one common degree d in three variables.  For each variable x_k and each
pair of forms, the resultant R = Res_{x_k}(f_i, f_j) over Z is a binary
form in the other two variables.  If either form involves x_k, R =
A*f_i + B*f_j, so every prime of g divides R(x), and with c the content
of R, every prime of R(x) divides c * S(x) for the primitive squarefree
part S of R / c.  A constant R is dropped: 0 for a pair that shares a
factor, 1 for a pair free of x_k.  Only forms with deg S < d are kept,
since only then is c * S(x) smaller than the values.  The gcd G of the
kept c * S(x) bounds the primes of g: G = 1 proves g = 1, and otherwise
g comes from gcds of G with the values.  The certificate is empty for
forms not in three variables and for forms with no kept S; its support
is 0, and gives no bound, there and where every kept c * S(x) is 0.

projgeom.orbit builds the certificate of the map's components the first
time a step's smallest nonzero value has projgeom.CERTIFICATE_MIN_BITS
bits, and heights.height_ratio_series that of the linear generators of Y
composed with the map at the first row n >= 1 whose point has that many;
below that size the full gcd costs less than the build.  They import
this module only then, so starting the command line does not load it.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Sequence, Tuple

from . import ffield, poly
from .poly import BigPoly

# (c, S) pairs: every prime of g = gcd_i f_i(x) divides c * S(x)
Certificate = Tuple[Tuple[int, BigPoly], ...]


def resultant(p: BigPoly, q: BigPoly, var: int) -> BigPoly:
    """Res_{x_var}(p, q) of nonzero forms in three variables, the Sylvester
    determinant in x_var of degrees dp and dq: a binary form R of degree
    D = deg p * dq + deg q * dp - dp * dq in x_i, x_j (i < j), equal to
    A*p + B*q with A, B in Z[x] unless neither involves x_var (R = 1).

    Mod a prime, at x_i = s, x_j = 1 where neither leading coefficient in
    x_var vanishes, the matrix keeps its shape, so R(s, 1) is the resultant
    of the images; D + 1 such s interpolate R(t, 1), whose t^a coefficient
    is that of x_i^a x_j^(D-a).  A leading coefficient has at most
    deg p - dp (deg q - dq) roots s, or is 0 and the prime is skipped.
    CRT lifts R from the primes ffield.word_prime(0), (1), ... once their
    product exceeds 2 |p|^dq |q|^dp, |.| the sum of absolute coefficients,
    as |R| <= |p|^dq |q|^dp: each term of the determinant's expansion has
    |.| at most the product of its entries' |.|, and these sum to at most
    the product of the rows' sums, |p| for each of the dq rows of p and
    |q| for each of the dp rows of q.
    """
    if {p.arity, q.arity} != {3} or not all(
            f.terms and poly.is_homogeneous(f)[0] for f in (p, q)):
        raise ValueError("resultant of two nonzero forms in three variables")
    i = 1 if var == 0 else 0
    (m, dp), (n, dq) = ((poly.degree(f), max(e[var] for e in f.terms))
                        for f in (p, q))
    top = m * dq + n * dp - dp * dq
    bound = (2 * sum(map(abs, p.terms.values())) ** dq
             * sum(map(abs, q.terms.values())) ** dp)
    images, primes, point = [], [], [1, 1, 1]
    for prime in map(ffield.word_prime, itertools.count()):
        if math.prod(primes) > bound:
            break
        xs, ys = [], []
        for s in range(top + 1 + m - dp + n - dq):
            point[i] = s
            up = ffield.term_image(p.terms, point, var, prime)
            uq = ffield.term_image(q.terms, point, var, prime)
            if len(up) == dp + 1 and len(uq) == dq + 1:
                xs.append(s)
                ys.append(ffield.uni_resultant(up, uq, prime))
                if len(xs) > top:
                    break
        else:
            continue  # a leading coefficient vanishes mod the prime
        r = ffield.uni_interpolate(xs, ys, prime)
        images.append(r + [0] * (top + 1 - len(r)))
        primes.append(prime)
    return BigPoly(3, {(a, top - a)[:var] + (0,) + (a, top - a)[var:]: c
                       for a, c in enumerate(ffield.crt_lift(images, primes))})


def _squarefree_part(p: BigPoly) -> BigPoly:
    """Primitive squarefree part of a nonconstant primitive form.

    By Euler's relation deg(p) * p is a combination of the partial
    derivatives, so their primitive gcd divides p, and over Q it is the
    product of p's repeated factors with multiplicity reduced by one.
    """
    g = poly.zero(p.arity)
    for v in range(p.arity):  # with the partial derivative in x_v
        g = poly.gcd_multivar(g, BigPoly(p.arity, {
            e[:v] + (e[v] - 1,) + e[v + 1:]: c * e[v]
            for e, c in p.terms.items() if e[v]}))
    q = poly.div_exact(p, g)
    if q is None:
        raise AssertionError("form not divisible by the gcd of its derivatives")
    return poly.primitive_part(q)


def divisor_certificate(forms: Sequence[BigPoly]) -> Certificate:
    """The (c, S) pairs of the resultants of forms of one common degree d
    with deg S < d, smallest degree first, one per S with the gcd of its
    contents; empty for forms that are not in three variables."""
    comps = [c for c in forms if c.terms]
    if not comps or comps[0].arity != 3:
        return ()
    degree = poly.degree(comps[0])
    found: Dict[BigPoly, int] = {}
    for k in range(3):
        for fi, fj in itertools.combinations(comps, 2):
            r = resultant(fi, fj, k)
            if not poly.degree(r):
                continue  # 0 for a shared factor, 1 for no x_k: no bound
            s = _squarefree_part(poly.primitive_part(r))
            if poly.degree(s) < degree:
                found[s] = math.gcd(found.get(s, 0), poly.content(r))
    return tuple(sorted(((c, s) for s, c in found.items()),
                        key=lambda cs: poly.degree(cs[1])))


def certified_support(cert: Certificate, coords: Sequence[int]) -> int:
    """gcd of the c * S(coords), or 0 when the certificate is empty or
    every one of them vanishes."""
    g = 0
    for c, s in cert:
        g = math.gcd(g, c * poly.eval_int(s, coords))
        if g == 1:
            break
    return g
