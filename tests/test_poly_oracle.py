"""mul, gcd_multivar, resultant and the divisor certificate against sympy.

For the product, forms, non-forms and one-term operands in one to four
variables are drawn with small and with 64- to 200-bit coefficients:
dense operands, which mul packs into one int product or convolves, on
either side of its rule, and sparse ones of high degree, which it
convolves; the draw is checked to reach both paths.  Pinned products cover
the slot width, the carry between slots, the implied last exponent of two
forms, the edge of the rule, and the largest product in a2's degree
sequence.

For the gcd, pairs of forms, of non-forms and of one of each are drawn, in
two to four variables and of unequal degrees, half of them with a planted
common factor; the draw is checked to reach both outcomes of the screen
that proves two forms coprime from one image mod a prime.  Pinned pairs
cover the corners of that screen, of reducing two forms to one fewer
variable and of the integer pseudo-remainder sequence at the bottom.
Larger operands, up to 50 terms of degree 16, are the unreduced iterates
that degree_sequence hands to the gcd.
sympy's gcd keeps the integer content, so the oracle is normalised to
gcd_multivar's convention: primitive, with a positive leading coefficient
in graded lexicographic order.  The certificate oracle rebuilds every
(content, squarefree part) pair from sympy's resultant and factorisation.

The resultant is checked on random pairs of forms of degree 1 to 4 in
three variables; the draw is checked to reach an operand free of the
variable, a leading coefficient that vanishes at the first point, a
degree in the variable below the total degree, and coefficients near 2^64
that take three primes or more.  Pinned pairs sit at the edge of the
coefficient bound that decides how many primes the lift takes.
"""

import contextlib
import itertools
import math
from unittest import mock

import pytest
from hypothesis import Phase, event, find, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from orbitgcd import elimination, ffield, poly, polyparse, projgeom  # noqa: E402
from orbitgcd.ffield import WORD_PRIME  # noqa: E402
from orbitgcd.poly import (BigPoly, _mul_packed, compose, const,  # noqa: E402
                           gcd_multivar, mul, zero)

GENS = sympy.symbols("x0:3")


def forms_of_degree(arity, deg):
    return [e for e in itertools.product(range(deg + 1), repeat=arity)
            if sum(e) == deg]


@st.composite
def polys(draw, arity, homogeneous, max_deg):
    coeffs = st.integers(-9, 9).filter(bool)
    if homogeneous:
        deg = draw(st.integers(1, max_deg))
        exps = st.sampled_from(forms_of_degree(arity, deg))
    else:
        exps = st.tuples(*[st.integers(0, max_deg)] * arity)
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
    if homogeneous and draw(st.booleans()):
        # a pure power x_k^deg, which gcd_multivar's coprimality screen needs
        k = draw(st.integers(0, arity - 1))
        terms[(0,) * k + (deg,) + (0,) * (arity - k - 1)] = draw(coeffs)
    return BigPoly(arity, terms)


def sympy_terms(poly):
    """Term dict of a sympy Poly, zero coefficients dropped."""
    return {tuple(e): int(c) for e, c in poly.terms() if c}


def sympy_mul_terms(p, q):
    gens = sympy.symbols("x0:%d" % p.arity)
    return sympy_terms(sympy.Poly.from_dict(p.terms, *gens, domain="ZZ")
                       * sympy.Poly.from_dict(q.terms, *gens, domain="ZZ"))


COEFFS = st.builds(lambda sign, size: sign * size, st.sampled_from([1, -1]),
                   st.one_of(st.integers(1, 9), st.integers(2**64, 2**200)))


def exponents(arity, deg, form):
    return [e for e in itertools.product(range(deg + 1), repeat=arity)
            if sum(e) == deg or not form and sum(e) < deg]


# dense degrees on both sides of mul's rule: two forms in two variables, or
# two polynomials in one, of degree d (d + 1 terms each) pack from d = 6 on,
# and two non-forms in two variables from d = 3 on
DENSE_DEGREES = {1: range(4, 11), 2: range(3, 9), 3: range(2, 6),
                 4: range(2, 5)}


@st.composite
def factors(draw, arity, kind, form):
    if kind == "sparse":
        deg = 12
    else:
        deg = draw(st.sampled_from(DENSE_DEGREES[arity]))
    pool = exponents(arity, deg, form)
    if kind == "dense":
        monos = draw(st.permutations(pool))[draw(st.integers(0, 2)):] or pool
    else:
        size = 1 if kind == "one-term" else draw(st.integers(2, 6))
        monos = draw(st.lists(st.sampled_from(pool), min_size=size,
                              max_size=size, unique=True))
    coeffs = draw(st.lists(COEFFS, min_size=len(monos), max_size=len(monos)))
    return BigPoly(arity, dict(zip(monos, coeffs)))


@st.composite
def products(draw):
    """Half the pairs are two dense forms or two dense non-forms, with all
    but at most two monomials of a degree in DENSE_DEGREES, which mul
    packs or convolves; the other half mix dense, one-term and sparse
    operands, the latter at degree 12 with 2-6 terms, which it convolves."""
    arity = draw(st.integers(1, 4))
    kinds = st.sampled_from(["dense", "sparse", "one-term"])
    # a form in one variable has one term
    forms = st.booleans() if arity > 1 else st.just(False)
    if draw(st.booleans()):
        form = draw(forms)
        return tuple(draw(factors(arity, "dense", form)) for _ in "pq")
    return tuple(draw(factors(arity, draw(kinds), draw(forms))) for _ in "pq")


@settings(max_examples=300, deadline=None)
@given(products())
def test_mul_matches_sympy(pq):
    p, q = pq
    event("packed" if _mul_packed(p, q) is not None else "convolved")
    assert mul(p, q).terms == sympy_mul_terms(p, q)


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "convolved"])
def test_products_reach_both_paths(packed):
    # shrinking the pair found would take seconds and check nothing more
    find(products(), lambda pq: (_mul_packed(*pq) is not None) == packed,
         settings=settings(database=None, phases=[Phase.generate]))


def edge(k):
    """The largest coefficient that k bytes hold with a sign bit."""
    return 2 ** (8 * k - 1) - 1


def binary_form(*coeffs):
    """sum_i coeffs[i] x0^(d - i) x1^i, with d = len(coeffs) - 1."""
    d = len(coeffs) - 1
    return " + ".join("%d*x0^%d*x1^%d" % (c, d - i, i)
                      for i, c in enumerate(coeffs))


# two binary septics, of 8 terms each, pack: 16 + 16 + 15 slots <= 64 pairs
PINNED_PRODUCTS = {
    # m = edge(k) fills a k-byte slot, and the product's middle
    # coefficient 8 m^2 needs 2k + 1 bytes
    **{"slot-edge-%d%s" % (k, "+-"[sign < 0]): (
        2, binary_form(*[edge(k)] * 8), binary_form(*[sign * edge(k)] * 8),
        "packed") for k in (1, 2, 9) for sign in (1, -1)},
    # the middle coefficient 8c = +-(2^(8k - 1) - 8) of the product lies
    # within 8 of the end of its k-byte slot
    **{"product-at-slot-edge-%d%s" % (k, "+-"[sign < 0]): (
        2, binary_form(*[1] * 8),
        binary_form(*[sign * (2 ** (8 * k - 4) - 1)] * 8),
        "packed") for k in (1, 3) for sign in (1, -1)},
    # the top slot is negative, and so are p's packed value and the product's
    "negative-packed-value": (2, binary_form(-1, 2, -1, 5, 3, -2, 1, 4),
                              binary_form(3, 1, 4, -1, 5, 9, -2, 6), "packed"),
    # (x0 + x1)(x0^7 - x1^7)/(x0 - x1) times (x0 - x1)(x0^7 + x1^7)/(x0 + x1)
    # is x0^14 - x1^14: every inner slot cancels, and a borrow crosses them
    "cancel-to-two-terms": (2, binary_form(1, 2, 2, 2, 2, 2, 2, 1),
                            binary_form(1, -2, 2, -2, 2, -2, 2, -1), "packed"),
    "cancel-big": (
        2, binary_form(*[2**130 * c for c in (1, 2, 2, 2, 2, 2, 2, 1)]),
        binary_form(*[-3**90 * c for c in (1, -2, 2, -2, 2, -2, 2, -1)]),
        "packed"),
    # either side of the rule: two sextics pack, 16 + 14 + 13 <= 49, and
    # two quintics do not, 16 + 12 + 11 > 36
    "rule-edge-packed": (2, binary_form(1, -3, 2, 5, -1, 4, 7),
                         binary_form(2, 1, -6, 3, 3, -2, 1), "packed"),
    "rule-edge-convolved": (2, binary_form(1, -3, 2, 5, -1, 4),
                            binary_form(2, 1, -6, 3, 3, -2), "convolution"),
    # two forms in x0..x3 keep x0..x2, and x3 is implied
    "forms-arity-4": (4, "(x0 + x1 - x2 + 2*x3)^3", "(x0 - x1 + x2 + x3)^3",
                      "packed"),
    "non-forms": (2, "(x0 + x1 - 1)^3", "(2*x0 - x1 + 3)^3", "packed"),
    "univariate": (1, "x0^6 - 2*x0^5 - 2*x0^4 + 5*x0^3 + x0^2 - 7*x0 + 3",
                   "-x0^6 + x0^5 + 4*x0^4 + x0^3 - 3*x0^2 + 2*x0 + 1",
                   "packed"),
    # a product of two polynomials of two or more terms keeps two terms, so
    # one term comes only from a one-term operand
    "one-term": (3, "-3*x0*x2^4", "x0^2 - x1*x2 + 9", "convolution"),
    "binomials": (3, "x0^8 + x1*x2^7", "x1^8 - x0*x2^7", "convolution"),
    "sparse-high-degree": (2, "x0^30 + x0^17*x1^2 + x1^25 - 3",
                           "x1^40 - x0*x1^9 + 2*x0^33 + x0", "convolution"),
}


@pytest.mark.parametrize("arity, p_text, q_text, path",
                         PINNED_PRODUCTS.values(), ids=PINNED_PRODUCTS.keys())
def test_mul_matches_sympy_on_pinned_products(arity, p_text, q_text, path):
    p, q = polyparse.parse(p_text, arity), polyparse.parse(q_text, arity)
    assert (_mul_packed(p, q) is not None) == (path == "packed")
    assert mul(p, q).terms == mul(q, p).terms == sympy_mul_terms(p, q)


def test_mul_by_zero_is_zero():
    p = polyparse.parse("x0^2 - x1*x2", 3)
    assert not mul(p, zero(3)).terms and not mul(zero(3), p).terms


A2 = "x0^2*x1; x1^3 + x0^2*x1 + x0*x2^2; x2^3"


def test_compose_matches_sympy_on_a2_fourth_iterate():
    # f o f^3 squares the 90-term component of f^3 (degree 27) to 385
    # terms and multiplies those by the 90: the largest products of a2's
    # degree sequence to n = 4
    f = projgeom.make_map([polyparse.parse(t, 3) for t in A2.split(";")])
    f3 = f
    for _ in range(2):
        f3 = projgeom.make_map(compose(f.components, f3.components))
    assert sorted(len(c.terms) for c in f3.components) == [1, 27, 90]
    images = [sympy.Poly.from_dict(c.terms, *GENS, domain="ZZ")
              for c in f3.components]
    for c, got in zip(f.components, compose(f.components, f3.components)):
        want = sum(coeff * math.prod(g ** e for g, e in zip(images, exps))
                   for exps, coeff in c.terms.items())
        assert got.terms == sympy_terms(want)


@st.composite
def compositions(draw):
    """1-4 polynomials in 2-3 variables, any of them possibly 0, whose
    terms come from one shared pool of at most five monomials, drawn from
    those of one degree d <= 3 or from all of degree <= d, the constant
    included; and a substitution of forms or non-forms in 2-3 variables."""
    arity, out_arity = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    form = draw(st.booleans())
    pool = draw(st.lists(st.sampled_from(exponents(arity, draw(
        st.integers(1, 3)), form)), min_size=1, max_size=5, unique=True))
    coeffs = st.sampled_from([c for c in range(-9, 10) if c])
    ps = [BigPoly(arity, draw(st.dictionaries(st.sampled_from(pool), coeffs,
                                              max_size=4)))
          for _ in range(draw(st.integers(1, 4)))]
    subst = [draw(polys(out_arity, draw(st.booleans()), 2))
             for _ in range(arity)]
    return ps, subst


def composition_cases(ps, subst):
    monomials = [e for p in ps for e in p.terms]
    cases = set()
    if len({sum(e) for e in monomials}) == 1:
        cases.add("forms")
    if any(not any(e) for e in monomials):
        cases.add("constant term")
    if not all(ps):
        cases.add("zero polynomial")
    if len(set(monomials)) < len(monomials):
        cases.add("shared monomial")
    if subst[0].arity != len(subst):
        cases.add("other arity")
    return cases


@settings(max_examples=200, deadline=None)
@given(compositions())
def test_compose_matches_sympy(ps_subst):
    ps, subst = ps_subst
    for case in composition_cases(ps, subst):
        event(case)
    gens = sympy.symbols("x0:%d" % subst[0].arity)
    images = [sympy.Poly.from_dict(s.terms, *gens, domain="ZZ")
              for s in subst]
    got = compose(ps, subst)
    assert len(got) == len(ps)
    for p, out in zip(ps, got):
        want = sympy.Poly(0, *gens, domain="ZZ")
        for exps, coeff in p.terms.items():
            want += coeff * math.prod((g ** e for g, e in zip(images, exps)),
                                      start=sympy.Poly(1, *gens, domain="ZZ"))
        assert out.arity == subst[0].arity
        assert out.terms == sympy_terms(want)


@pytest.mark.parametrize("case", ["forms", "constant term", "zero polynomial",
                                  "shared monomial", "other arity"])
def test_compositions_reach_every_case(case):
    find(compositions(), lambda ps_subst: case in composition_cases(*ps_subst),
         settings=settings(database=None, phases=[Phase.generate]))


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


class ExactPath(Exception):
    """Raised in place of gcd_multivar's exact path."""


def screen_outcome(p, q):
    """The outcome of gcd_multivar's coprimality screen on p and q:
    "coprime", "fell through", or "not screened" when they are not two
    forms, or one is a monomial times a constant.  The exact path, which
    can take seconds on sparse operands, is not run."""
    outcomes = []
    screen = poly._coprime_images

    def record(a, b):
        outcomes.append(screen(a, b))
        return outcomes[-1]

    with mock.patch.object(poly, "_coprime_images", record), \
            mock.patch.object(poly, "_gcd_exact", side_effect=ExactPath), \
            contextlib.suppress(ExactPath):
        gcd_multivar(p, q)
    if not outcomes:
        return "not screened"
    return "coprime" if outcomes[0] else "fell through"


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_gcd_multivar_matches_sympy(pq):
    p, q = pq
    event("screen: " + screen_outcome(p, q))
    assert gcd_multivar(p, q).terms == sympy_gcd_terms(p, q)


@pytest.mark.parametrize("outcome", ["coprime", "fell through"])
def test_pairs_reach_both_screen_outcomes(outcome):
    # about one draw in eight reaches each outcome; shrinking the pair
    # found would take seconds and check nothing more
    find(pairs(), lambda pq: screen_outcome(*pq) == outcome,
         settings=settings(database=None, max_examples=1000,
                           phases=[Phase.generate]))


PINNED_PAIRS = {
    # x0, the first variable either form involves, is absent from q
    "first-variable-absent": (3, "(x0 + x1)*(x1 - 2*x2)",
                              "(x1 - 2*x2)*(3*x1 + x2)", "fell through"),
    "forms-in-x1-x2": (3, "(x1 + x2)^2*(x1 - x2)", "(x1 + x2)*(3*x1^2 + x2^2)",
                       "fell through"),
    "integer-content": (2, "2*x0 + 2*x1", "4*x0 + 4*x1", "fell through"),
    "integer-content-mixed": (3, "6*x0^2 - 6*x1*x2", "4*x0*x2 - 4*x1*x2^2",
                              "not screened"),
    "negative-leading": (3, "(-x0 + x1)*(x0 + x2)", "(-x0 + x1)*(-x1 - 5*x2)",
                         "fell through"),
    "negative-leading-binary": (2, "-3*x0^3 + x1^3", "-9*x0^2 + 3*x0*x1",
                                "coprime"),
    # pseudo-remainder of x^5 + x^3 + x^2 + 2 by x^3 + x + 1 is 2, so with
    # the factor x + 2 the remainder drops from degree 4 to 1
    "prem-drops-three-forms": (
        2, "(x1 + 2*x0)*(x1^5 + x0^2*x1^3 + x0^3*x1^2 + 2*x0^5)",
        "(x1 + 2*x0)*(x1^3 + x0^2*x1 + x0^3)", "fell through"),
    "prem-drops-three-over-x0": (
        2, "(x1 + 2*x0)*(x1^5 + x1^3 + x1^2 + 2)", "(x1 + 2*x0)*(x1^3 + x1 + 1)",
        "not screened"),
    # the coprimality screen: the common factor lacks x2, so images in x2,
    # the last variable, are coprime; but x2^3 and x2^2 are absent, so the
    # screen takes x0
    "screen-factor-lacks-x2": (3, "(x0 - x1)*(x0^2 + x2^2)",
                               "(x0 - x1)*(x0 + x2)", "fell through"),
    # P divides the x0^2 coefficient of both, and neither has x1^2 or
    # x2^2: mod P the common factor is free of x0, so no variable is taken
    "screen-pure-power-divisible-by-P": (
        3, "(%d*x0 + x1)*(x0 + x2)" % WORD_PRIME,
        "(%d*x0 + x1)*(x0 - x2)" % WORD_PRIME, "fell through"),
    "screen-coprime-unequal-degrees": (
        3, "x0^5 - 3*x1^2*x2^3 + 2*x2^5", "4*x0^2 - x1*x2 + x1^2",
        "coprime"),
    "screen-common-factor-unequal-degrees": (
        3, "(x0 + 2*x1 - x2)*(x0^3 - x1*x2^2 + 5*x2^3)",
        "(x0 + 2*x1 - x2)^2", "fell through"),
    # x3^3 is absent from both, so the screen takes x2
    "screen-coprime-arity-4": (4, "x0^3 + x1*x2*x3 - 2*x2^3 + x0*x3^2",
                               "x1^2 - x0*x3 + 3*x2*x3", "coprime"),
    "screen-common-factor-arity-4": (
        4, "(x0 - x1 + x3)*(x2^2 + 2*x0*x3)", "(x0 - x1 + x3)*(x1 - 3*x2)",
        "fell through"),
    # the content of p in x2 is the gcd of the two forms x0^2 - x1^2 and
    # x0^2 - x0*x1
    "content-gcd-of-forms": (3, "(x0 - x1)*(x0*x2 + x1*x2 + x0)",
                             "(x0 - x1)*(x2 + 1)", "not screened"),
}


@pytest.mark.parametrize("arity, p_text, q_text, screen",
                         PINNED_PAIRS.values(), ids=PINNED_PAIRS.keys())
def test_gcd_multivar_matches_sympy_on_pinned_pairs(arity, p_text, q_text,
                                                    screen):
    p, q = polyparse.parse(p_text, arity), polyparse.parse(q_text, arity)
    for a, b in ((p, q), (q, p)):
        assert screen_outcome(a, b) == screen
        assert gcd_multivar(a, b).terms == sympy_gcd_terms(p, q)


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
        prev = projgeom.make_map(compose(f.components, prev.components))
    comps = compose(f.components, prev.components)
    for p, q in itertools.combinations(comps, 2):
        assert gcd_multivar(p, q).terms == sympy_gcd_terms(p, q)


def _normalised_terms(expr):
    """Term dict of a sympy expression, leading grlex coefficient > 0."""
    terms = {tuple(e): int(c) for e, c in
             sympy.Poly(expr, *GENS).terms() if c}
    top = max(terms, key=lambda e: (sum(e), e))
    sign = 1 if terms[top] > 0 else -1
    return {e: sign * c for e, c in terms.items()}


def sympy_resultant(a, b, k):
    """Res_{x_k}(a, b) from sympy, as an expression."""
    da, db = (max(e[k] for e in c.terms) for c in (a, b))
    pa, pb = (sympy.Poly.from_dict(c.terms, *GENS, domain="ZZ").as_expr()
              for c in (a, b))
    # sympy 1.14 drops the sign (-1)^(da * db) when da < db, so ask it with
    # the higher degree first
    if da >= db:
        return sympy.resultant(pa, pb, GENS[k])
    return (-1) ** (da * db) * sympy.resultant(pb, pa, GENS[k])


@st.composite
def resultant_operands(draw):
    """(p, q, k): two forms of degree 1-4 in x0..x2, of up to five terms,
    with coefficients near 2^64 in half the draws, and a variable x_k."""
    size = st.integers(1, 9)
    if draw(st.booleans()):
        size = st.integers(2 ** 64 - 2 ** 8, 2 ** 64 + 2 ** 8)
    coeffs = st.builds(lambda sign, c: sign * c, st.sampled_from([1, -1]),
                       size)
    p, q = (BigPoly(3, draw(st.dictionaries(
        st.sampled_from(forms_of_degree(3, draw(st.integers(1, 4)))), coeffs,
        min_size=1, max_size=5))) for _ in "pq")
    return p, q, draw(st.integers(0, 2))


def resultant_cases(p, q, k):
    """The corners of elimination.resultant that Res_{x_k}(p, q) reaches;
    s is the first of the other two variables, the second is 1."""
    s = min(v for v in range(3) if v != k)
    cases = set()
    for f in (p, q):
        dk = max(e[k] for e in f.terms)
        if dk == 0:
            cases.add("operand free of x_k")
        elif dk < poly.degree(f):
            cases.add("0 < deg_k < deg")
        if not any(e[k] == dk and e[s] == 0 for e in f.terms):
            cases.add("leading coefficient vanishes at s = 0")
    counts = []
    lift = ffield.crt_lift

    def record(images, primes):
        counts.append(len(primes))
        return lift(images, primes)

    with mock.patch.object(ffield, "crt_lift", record):
        elimination.resultant(p, q, k)
    if counts[0] >= 3:
        cases.add("three or more primes")
    return cases


RESULTANT_CASES = ["operand free of x_k", "0 < deg_k < deg",
                   "leading coefficient vanishes at s = 0",
                   "three or more primes"]


@settings(max_examples=120, deadline=None)
@given(resultant_operands())
def test_resultant_matches_sympy(pqk):
    p, q, k = pqk
    for case in sorted(resultant_cases(p, q, k)):
        event(case)
    want = sympy.Poly(sympy_resultant(p, q, k), *GENS)
    assert elimination.resultant(p, q, k).terms == sympy_terms(want)


@pytest.mark.parametrize("case", RESULTANT_CASES)
def test_resultant_operands_reach_every_case(case):
    find(resultant_operands(), lambda pqk: case in resultant_cases(*pqk),
         settings=settings(database=None, max_examples=1000,
                           phases=[Phase.generate]))


# Res_{x0} of an operand free of x0 is a power of it.  One prime P =
# WORD_PRIME lifts a coefficient c only when 2|c| < P, which fails here,
# although P exceeds the bound |p|^dq |q|^dp without its factor 2
# (twice-the-bound: R = q = (P - 1) x1^2), or twice that bound with the
# largest coefficient in place of the sum of absolute coefficients
# (sum-of-coefficients: R = p^2 has the coefficient 2 A^2 in (P/2, P)).
_A = math.isqrt(WORD_PRIME // 3)
RESULTANT_BOUND_EDGES = {
    "twice-the-bound": ("x0 + x1", "%d*x1^2" % (WORD_PRIME - 1)),
    "sum-of-coefficients": ("%d*x1 + %d*x2" % (_A, _A), "x0^2 + x1^2"),
}


@pytest.mark.parametrize("p_text, q_text", RESULTANT_BOUND_EDGES.values(),
                         ids=RESULTANT_BOUND_EDGES.keys())
def test_resultant_at_the_edge_of_its_bound(p_text, q_text):
    p, q = polyparse.parse(p_text, 3), polyparse.parse(q_text, 3)
    want = sympy.Poly(sympy_resultant(p, q, 0), *GENS)
    assert elimination.resultant(p, q, 0).terms == sympy_terms(want)


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
            if not any(e[k] for c in (a, b) for e in c.terms):
                continue  # the empty Sylvester matrix: no certificate
            r = sympy_resultant(a, b, k)
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
           for c, s in elimination.divisor_certificate(f.components)}
    assert got == want
