"""Fraction-free elimination over Z[x]: resultants and the divisor
certificate of forms in three variables.

projgeom and heights import this module at the first orbit point large
enough for a certificate, so starting the command line does not load it.
The certificate itself is described in the projgeom module docstring.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, List, Sequence, Tuple

from . import poly
from .poly import BigPoly
from .projgeom import Coords

# (c, S) pairs: every prime of g = gcd_i f_i(x) divides c * S(x)
Certificate = Tuple[Tuple[int, BigPoly], ...]


def bareiss_det(matrix: List[List[BigPoly]]) -> BigPoly:
    """Determinant of a non-empty square matrix over Z[x] by fraction-free
    (Bareiss) elimination; every division is exact and checked."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign = 1
    prev = poly.const(m[0][0].arity, 1)
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return m[k][k]  # zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q = poly.div_exact(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
                if q is None:
                    raise AssertionError(
                        "Bareiss step not divisible by the previous pivot")
                m[i][j] = q
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def resultant(p: BigPoly, q: BigPoly, var: int) -> BigPoly:
    """Res_{x_var}(p, q): the Sylvester determinant of p and q viewed as
    polynomials in x_var, of degrees deg_var p and deg_var q.

    There are A, B in Z[x] with Res = A*p + B*q, except when neither
    operand involves x_var: the matrix is then empty and the result is the
    constant 1.  Raises ValueError for a zero operand.
    """
    poly._check_arity(p, q)
    if not p.terms or not q.terms:
        raise ValueError("resultant of a zero polynomial")
    up, uq = poly._as_univariate(p, var), poly._as_univariate(q, var)
    dp, dq = max(up), max(uq)
    size = dp + dq
    if size == 0:
        return poly.const(p.arity, 1)
    zero_entry = poly.zero(p.arity)
    rows = []
    for u, du, count in ((up, dp, dq), (uq, dq, dp)):
        for i in range(count):
            row = [zero_entry] * size
            for e, c in u.items():
                row[i + du - e] = c
            rows.append(row)
    return bareiss_det(rows)


def _derivative(p: BigPoly, var: int) -> BigPoly:
    terms: poly.TermMap = {}
    for exps, coeff in p.terms.items():
        e = exps[var]
        if e:
            terms[exps[:var] + (e - 1,) + exps[var + 1:]] = coeff * e
    return BigPoly(p.arity, terms)


def _squarefree_part(p: BigPoly) -> BigPoly:
    """Primitive squarefree part of a nonzero primitive form.

    By Euler's relation deg(p) * p is a combination of the partial
    derivatives, so their primitive gcd divides p, and over Q it is the
    product of p's repeated factors with multiplicity reduced by one.
    """
    g = poly.zero(p.arity)
    for v in range(p.arity):
        g = poly.gcd_multivar(g, _derivative(p, v))
    if not g.terms:
        return poly.const(p.arity, 1)
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
            if not any(e[k] for c in (fi, fj) for e in c.terms):
                continue
            r = resultant(fi, fj, k)
            if not r.terms:
                continue
            s = _squarefree_part(poly.primitive_part(r))
            if poly.degree(s) < degree:
                found[s] = math.gcd(found.get(s, 0), poly.content(r))
    return tuple(sorted(((c, s) for s, c in found.items()),
                        key=lambda cs: poly.degree(cs[1])))


def certified_support(cert: Certificate, coords: Coords) -> int:
    """gcd of the c * S(coords), or 0 when the certificate is empty or
    every one of them vanishes."""
    g = 0
    for c, s in cert:
        g = math.gcd(g, c * poly.eval_int(s, coords))
        if g == 1:
            break
    return g
