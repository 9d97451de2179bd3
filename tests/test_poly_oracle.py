"""gcd_multivar, resultant and the divisor certificate against sympy.

For the gcd, pairs of forms, of non-forms and of one of each are drawn, in
two to four variables and of unequal degrees, half of them with a planted
common factor.  Pinned pairs cover the corners of reducing two forms to one
fewer variable and of the integer pseudo-remainder sequence at the bottom.
Larger operands, up to 50 terms of degree 16, are the unreduced iterates
that degree_sequence hands to the gcd.
sympy's gcd keeps the integer content, so the oracle is normalised to
gcd_multivar's convention: primitive, with a positive leading coefficient
in graded lexicographic order.  The certificate oracle rebuilds every
(content, squarefree part) pair from sympy's resultant and factorisation.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from orbitgcd import elimination, polyparse, projgeom  # noqa: E402
from orbitgcd.poly import (BigPoly, compose, const, gcd_multivar,  # noqa: E402
                           mul)

GENS = sympy.symbols("x0:3")


def forms_of_degree(arity, deg):
    return [e for e in itertools.product(range(deg + 1), repeat=arity)
            if sum(e) == deg]


@st.composite
def polys(draw, arity, homogeneous, max_deg):
    if homogeneous:
        exps = st.sampled_from(forms_of_degree(arity, draw(st.integers(1, max_deg))))
    else:
        exps = st.tuples(*[st.integers(0, max_deg)] * arity)
    terms = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool),
                                 min_size=1, max_size=4))
    return BigPoly(arity, terms)


@st.composite
def pairs(draw):
    arity = draw(st.integers(2, 4))
    # one form and one non-form when the two flags differ; the factor is a
    # form unless neither operand is, so that a form stays one
    form_p, form_q = draw(st.booleans()), draw(st.booleans())
    factor = const(arity, 1)
    if draw(st.booleans()):
        factor = draw(polys(arity, form_p or form_q, 2))
    p = mul(factor, draw(polys(arity, form_p, 3)))
    q = mul(factor, draw(polys(arity, form_q, draw(st.integers(1, 4)))))
    return p, q


def sympy_gcd_terms(p, q):
    gens = sympy.symbols("x0:%d" % p.arity)
    g = sympy.gcd(sympy.Poly.from_dict(p.terms, *gens, domain="ZZ"),
                  sympy.Poly.from_dict(q.terms, *gens, domain="ZZ"))
    _, g = g.primitive()
    terms = {tuple(e): int(c) for e, c in g.terms() if c}
    top = max(terms, key=lambda e: (sum(e), e))
    sign = 1 if terms[top] > 0 else -1
    return {e: sign * c for e, c in terms.items()}


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_gcd_multivar_matches_sympy(pq):
    p, q = pq
    assert gcd_multivar(p, q).terms == sympy_gcd_terms(p, q)


PINNED_PAIRS = {
    # x0, the first variable either form involves, is absent from q
    "first-variable-absent": (3, "(x0 + x1)*(x1 - 2*x2)",
                              "(x1 - 2*x2)*(3*x1 + x2)"),
    "forms-in-x1-x2": (3, "(x1 + x2)^2*(x1 - x2)", "(x1 + x2)*(3*x1^2 + x2^2)"),
    "integer-content": (2, "2*x0 + 2*x1", "4*x0 + 4*x1"),
    "integer-content-mixed": (3, "6*x0^2 - 6*x1*x2", "4*x0*x2 - 4*x1*x2^2"),
    "negative-leading": (3, "(-x0 + x1)*(x0 + x2)", "(-x0 + x1)*(-x1 - 5*x2)"),
    "negative-leading-binary": (2, "-3*x0^3 + x1^3", "-9*x0^2 + 3*x0*x1"),
    # pseudo-remainder of x^5 + x^3 + x^2 + 2 by x^3 + x + 1 is 2, so with
    # the factor x + 2 the remainder drops from degree 4 to 1
    "prem-drops-three-forms": (
        2, "(x1 + 2*x0)*(x1^5 + x0^2*x1^3 + x0^3*x1^2 + 2*x0^5)",
        "(x1 + 2*x0)*(x1^3 + x0^2*x1 + x0^3)"),
    "prem-drops-three-over-x0": (
        2, "(x1 + 2*x0)*(x1^5 + x1^3 + x1^2 + 2)", "(x1 + 2*x0)*(x1^3 + x1 + 1)"),
}


@pytest.mark.parametrize("arity, p_text, q_text", PINNED_PAIRS.values(),
                         ids=PINNED_PAIRS.keys())
def test_gcd_multivar_matches_sympy_on_pinned_pairs(arity, p_text, q_text):
    p, q = polyparse.parse(p_text, arity), polyparse.parse(q_text, arity)
    assert gcd_multivar(p, q).terms == sympy_gcd_terms(p, q)
    assert gcd_multivar(q, p).terms == sympy_gcd_terms(p, q)


THREE_BASE_POINTS = "x0^2 + x1*x2; x1^2 - x0*x2; x2^2 + x0*x1"
DENSE_QUADRATIC = ("7*x0^2 + 7*x0*x1 - 5*x0*x2 + x1^2 - 5*x1*x2 - 2*x2^2; "
                   "-9*x0^2 + 7*x0*x1 - 5*x0*x2 - x1^2 + 4*x1*x2 + 7*x2^2; "
                   "-x0^2 + x0*x1 + 7*x0*x2 - 9*x1^2 + 4*x1*x2 + 4*x2^2")


@pytest.mark.parametrize("map_text, n", [
    (THREE_BASE_POINTS, 2), (THREE_BASE_POINTS, 3), (THREE_BASE_POINTS, 4),
    (DENSE_QUADRATIC, 2)], ids=["3bp-2", "3bp-3", "3bp-4", "dense-2"])
def test_gcd_multivar_matches_sympy_on_unreduced_iterates(map_text, n):
    # the components of f o f^(n-1) before reduction, as degree_sequence
    # hands them to gcd_multivar: up to 50 terms of degree 16 at n = 4
    f = projgeom.make_map([polyparse.parse(t, 3) for t in map_text.split(";")])
    prev = f
    for _ in range(n - 2):
        prev = projgeom.make_map([compose(c, prev.components)
                                  for c in f.components])
    comps = [compose(c, prev.components) for c in f.components]
    for p, q in itertools.combinations(comps, 2):
        assert gcd_multivar(p, q).terms == sympy_gcd_terms(p, q)


def _normalised_terms(expr):
    """Term dict of a sympy expression, leading grlex coefficient > 0."""
    terms = {tuple(e): int(c) for e, c in
             sympy.Poly(expr, *GENS).terms() if c}
    top = max(terms, key=lambda e: (sum(e), e))
    sign = 1 if terms[top] > 0 else -1
    return {e: sign * c for e, c in terms.items()}


CERTIFICATE_MAPS = [
    "x0^2*x1; x1^3; x2^3",
    "x0^2*x1; x1^3 + x0^2*x1 + x0*x2^2; x2^3",
    "4*x0^2; x1^2; x2^2",
    "x0^2 + x1*x2; x1^2 - x0*x2; x2^2 + x0*x1",
    "2*x0^2 - x0*x1 + 3*x1*x2; x0^2 + 2*x0*x2 - x1^2; 5*(x1 + 2*x2)^2",
    "x0^3 - 2*x0*x1*x2 + x1^3; 3*x0^2*x2 + x1^2*x2 - x2^3; -2*(x1 - x2)^3",
    "x0*x1*x2 + x1^3; x0^2*x2 - 2*x1^3; 6*x2^2*(x1 + x2)",
]


@pytest.mark.parametrize("map_text", CERTIFICATE_MAPS)
def test_divisor_certificate_matches_sympy(map_text):
    f = projgeom.make_map([polyparse.parse(t, 3) for t in map_text.split(";")])
    comps = [c for c in f.components if c.terms]
    want = {}
    for k in range(3):
        for a, b in itertools.combinations(comps, 2):
            da, db = (max(e[k] for e in c.terms) for c in (a, b))
            if da == db == 0:
                continue  # the empty Sylvester matrix: no certificate
            pa, pb = (sympy.Poly.from_dict(c.terms, *GENS, domain="ZZ")
                      .as_expr() for c in (a, b))
            # sympy 1.14 drops the sign (-1)^(da * db) when da < db, so ask
            # it with the higher degree first
            if da >= db:
                r = sympy.resultant(pa, pb, GENS[k])
            else:
                r = (-1) ** (da * db) * sympy.resultant(pb, pa, GENS[k])
            got = elimination.resultant(a, b, k)
            if r == 0:
                assert not got.terms
                continue
            assert got.terms == {tuple(e): int(c) for e, c in
                                 sympy.Poly(r, *GENS).terms() if c}
            content, factors = sympy.factor_list(r)
            square_free = sympy.Mul(*[p for p, _ in factors])
            if sympy.Poly(square_free, *GENS).total_degree() < f.degree:
                key = tuple(sorted(_normalised_terms(square_free).items()))
                want[key] = math.gcd(want.get(key, 0), abs(int(content)))
    got = {tuple(sorted(s.terms.items())): c
           for c, s in elimination.divisor_certificate(f)}
    assert got == want
