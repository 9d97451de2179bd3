"""gcd_multivar against sympy's gcd on random polynomials.

Both homogeneous and non-homogeneous operands are drawn, in two and three
variables, half of the pairs with a planted common factor.  sympy's gcd
keeps the integer content, so the oracle is normalised to gcd_multivar's
convention: primitive, with a positive leading coefficient in graded
lexicographic order.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from orbitgcd.poly import BigPoly, const, gcd_multivar, mul  # noqa: E402

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
    arity = draw(st.integers(2, 3))
    homogeneous = draw(st.booleans())
    factor = const(arity, 1)
    if draw(st.booleans()):
        factor = draw(polys(arity, homogeneous, 2))
    p = mul(factor, draw(polys(arity, homogeneous, 3)))
    q = mul(factor, draw(polys(arity, homogeneous, 3)))
    return p, q


def sympy_gcd_terms(p, q):
    gens = GENS[:p.arity]
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
