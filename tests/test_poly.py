"""Polynomial substrate: ring laws, evaluation, composition, exact gcd."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgcd import poly
from orbitgcd.poly import (ArityMismatch, BigPoly, add, compose, const,
                           content, degree, div_exact, eval_int, gcd_multivar,
                           is_homogeneous, leading_term, monomial, mul, neg,
                           primitive_part, scale, variable, zero)


def rand_poly(rng: random.Random, arity: int = 3, max_terms: int = 5,
              max_exp: int = 3, max_coeff: int = 9) -> BigPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(arity))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[exps] = terms.get(exps, 0) + c
    return BigPoly(arity, {e: c for e, c in terms.items() if c})


# ---------------------------------------------------------------------------
# construction and invariants


def test_no_zero_coefficients_stored():
    p = BigPoly(2, {(1, 0): 3, (0, 1): 0})
    assert (0, 1) not in p.terms
    assert p.terms == {(1, 0): 3}


def test_zero_polynomial_degree_sentinel():
    z = zero(3)
    assert degree(z) is None
    assert not z
    assert degree(const(3, 5)) == 0


def test_mixed_arity_rejected():
    with pytest.raises(ArityMismatch):
        add(variable(2, 0), variable(3, 0))
    with pytest.raises(ArityMismatch):
        mul(variable(2, 0), variable(3, 0))


def test_variable_and_monomial_constructors():
    x, y = variable(2, 0), variable(2, 1)
    assert x.terms == {(1, 0): 1}
    assert monomial(2, (2, 1), coeff=-4).terms == {(2, 1): -4}
    assert eval_int(mul(x, y), (3, 5)) == 15


# ---------------------------------------------------------------------------
# arithmetic oracles


def test_binomial_square():
    x, y = variable(2, 0), variable(2, 1)
    square = mul(add(x, y), add(x, y))
    assert square.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_difference_of_squares():
    x, y = variable(2, 0), variable(2, 1)
    prod = mul(add(x, y), add(x, neg(y)))
    assert prod.terms == {(2, 0): 1, (0, 2): -1}


def test_eval_matches_horner_free_reference():
    rng = random.Random(11)
    for _ in range(200):
        p = rand_poly(rng)
        pt = tuple(rng.randint(-7, 7) for _ in range(3))
        expected = sum(c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
                       for e, c in p.terms.items())
        assert eval_int(p, pt) == expected


@settings(max_examples=60)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_evaluation_is_ring_morphism(a, b, c):
    rng = random.Random(a * 7919 + b * 104729 + c)
    p, q = rand_poly(rng), rand_poly(rng)
    pt = (a, b, c)
    assert eval_int(add(p, q), pt) == eval_int(p, pt) + eval_int(q, pt)
    assert eval_int(mul(p, q), pt) == eval_int(p, pt) * eval_int(q, pt)


def test_scale_and_neg():
    p = BigPoly(2, {(1, 1): 2, (0, 0): -3})
    assert scale(p, 0) == zero(2)
    assert scale(p, -2).terms == {(1, 1): -4, (0, 0): 6}
    assert add(p, neg(p)) == zero(2)


# ---------------------------------------------------------------------------
# homogeneity, degree, composition


def test_is_homogeneous():
    x, y, z = (variable(3, i) for i in range(3))
    cubic = add(mul(mul(x, x), y), mul(mul(z, z), z))
    assert is_homogeneous(cubic) == (True, 3)
    assert is_homogeneous(add(cubic, x)) == (False, None)
    assert is_homogeneous(zero(3)) == (True, None)


def test_compose_known_expansion():
    # p(u, v) = u^2 + v^2 composed with (x + y, x - y) = 2x^2 + 2y^2
    u, v = variable(2, 0), variable(2, 1)
    p = add(mul(u, u), mul(v, v))
    x, y = variable(2, 0), variable(2, 1)
    [out] = compose([p], [add(x, y), add(x, neg(y))])
    assert out.terms == {(2, 0): 2, (0, 2): 2}


def test_compose_degree_multiplies():
    x, y, z = (variable(3, i) for i in range(3))
    subst = [mul(x, y), mul(y, z), add(mul(x, x), mul(y, z))]
    p = add(mul(mul(x, x), y), mul(mul(y, y), z))
    [out] = compose([p], subst)
    assert degree(out) == degree(p) * 2
    pt = (3, -2, 5)
    inner = tuple(eval_int(s, pt) for s in subst)
    assert eval_int(out, pt) == eval_int(p, inner)


def test_compose_takes_inhomogeneous_and_unequal_substitutions():
    # substitution is a ring map for any polynomials, forms or not
    x, y = variable(2, 0), variable(2, 1)
    p = add(mul(x, y), scale(mul(y, y), 3))
    for subst in ([add(mul(x, x), y), y],  # first entry not homogeneous
                  [mul(x, x), y]):  # degrees 2 and 1 differ
        [out] = compose([p], subst)
        for pt in [(2, -3), (0, 5), (-7, 4)]:
            inner = [eval_int(s, pt) for s in subst]
            assert eval_int(out, pt) == eval_int(p, inner)


@settings(max_examples=40)
@given(st.integers(0, 10 ** 6))
def test_compose_evaluation_commutes(seed):
    rng = random.Random(seed)
    d = rng.randint(1, 2)
    arity = 2
    subst = []
    for _ in range(arity):
        terms = {}
        for e0 in range(d + 1):
            c = rng.randint(-4, 4)
            if c:
                terms[(e0, d - e0)] = c
        if not terms:
            terms[(d, 0)] = 1
        subst.append(BigPoly(arity, terms))
    p = rand_poly(rng, arity=arity, max_terms=4, max_exp=2)
    [out] = compose([p], subst)
    pt = (rng.randint(-9, 9), rng.randint(-9, 9))
    inner = tuple(eval_int(s, pt) for s in subst)
    assert eval_int(out, pt) == eval_int(p, inner)


def test_compose_cancels_to_the_zero_polynomial_and_takes_no_polynomials():
    x0, x1 = variable(2, 0), variable(2, 1)
    s = add(x0, x1)
    [out] = compose([add(mul(x0, x0), neg(mul(x1, x1)))], [s, s])
    assert out.arity == 2 and out.terms == {}
    assert compose([], [s, s]) == []
    with pytest.raises(ArityMismatch):
        compose([x0], [s])
    for subst in ([s, variable(3, 0)], []):
        with pytest.raises(ArityMismatch):
            compose([], subst)


def test_compose_shares_one_product_per_monomial(monkeypatch):
    # the six quadratic monomials of P^2 cost one product each, of a
    # substitution entry and another; constants and x_i cost none
    f = [BigPoly(3, {e: c for e, c in zip(
        [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)],
        coeffs)}) for coeffs in [(7, 7, -5, 1, -5, -2), (-9, 7, -5, -1, 4, 7),
                                 (-1, 1, 7, -9, 4, 4)]]
    operands = []

    def spy(p, q):
        operands.append((p, q))
        return mul(p, q)

    monkeypatch.setattr(poly, "mul", spy)
    f2 = compose(f, f)
    assert len(operands) == 6
    assert all(degree(p) and degree(q) for p, q in operands)
    pt = (2, -3, 5)
    inner = [eval_int(c, pt) for c in f]
    assert [eval_int(c, pt) for c in f2] == [eval_int(c, inner) for c in f]


# ---------------------------------------------------------------------------
# content, primitive part, exact division


def test_content_and_primitive_part():
    p = BigPoly(2, {(2, 0): 6, (0, 2): -9})
    assert content(p) == 3
    pp = primitive_part(p)
    assert pp.terms == {(2, 0): 2, (0, 2): -3}
    assert content(zero(2)) == 0
    # sign canonicalization: leading grlex coefficient positive
    q = BigPoly(2, {(2, 0): -4, (0, 1): 2})
    assert primitive_part(q).terms == {(2, 0): 2, (0, 1): -1}


def test_leading_term_grlex():
    p = BigPoly(2, {(1, 2): 5, (3, 0): -2, (0, 2): 7})
    assert leading_term(p) == ((3, 0), -2)


def test_div_exact_roundtrip_and_failure():
    rng = random.Random(17)
    for _ in range(100):
        p = rand_poly(rng, max_terms=4)
        q = rand_poly(rng, max_terms=4)
        if not q:
            continue
        prod = mul(p, q)
        quotient = div_exact(prod, q)
        assert quotient == p
    x, y = variable(2, 0), variable(2, 1)
    assert div_exact(add(x, y), mul(x, x)) is None
    assert div_exact(add(mul(x, x), y), add(x, y)) is None


# ---------------------------------------------------------------------------
# gcd


def test_gcd_structured_oracles():
    x, y = variable(2, 0), variable(2, 1)
    common = add(x, y)
    p = mul(common, add(x, neg(y)))
    q = mul(common, add(x, scale(y, 2)))
    g = gcd_multivar(p, q)
    assert g == common


def test_gcd_with_zero_is_primitive_part():
    p = BigPoly(2, {(2, 0): -6, (0, 2): 9})
    assert gcd_multivar(p, zero(2)) == primitive_part(p)
    assert gcd_multivar(zero(2), p) == primitive_part(p)
    assert gcd_multivar(zero(2), zero(2)) == zero(2)


def test_gcd_of_coprime_is_constant():
    x, y, z = (variable(3, i) for i in range(3))
    g = gcd_multivar(add(x, y), add(y, z))
    assert degree(g) == 0
    assert g == const(3, 1)


def test_gcd_common_monomial_factor():
    x, y = variable(2, 0), variable(2, 1)
    m = mul(mul(x, x), y)
    p = mul(m, add(x, y))
    q = mul(m, add(x, neg(y)))
    g = gcd_multivar(p, q)
    assert g == m


def test_gcd_result_is_primitive_even_with_common_content():
    x, y = variable(2, 0), variable(2, 1)
    p = scale(mul(add(x, y), add(x, y)), 6)
    q = scale(add(x, y), 10)
    g = gcd_multivar(p, q)
    assert g == add(x, y)
    assert content(g) == 1


def test_gcd_monomial_example():
    x, y, z = (variable(3, i) for i in range(3))
    p = mul(mul(x, x), y)
    q = mul(mul(x, y), y)
    assert gcd_multivar(p, q) == mul(x, y)


def test_gcd_difference_of_squares_example():
    x, y = variable(2, 0), variable(2, 1)
    p = add(mul(x, x), neg(mul(y, y)))
    q = add(x, neg(y))
    assert gcd_multivar(p, q) == q


def test_content_scales_multiplicatively():
    rng = random.Random(31)
    for _ in range(60):
        p = rand_poly(rng, arity=2, max_terms=4)
        c = rng.randint(-12, 12)
        assert content(scale(p, c)) == abs(c) * content(p)


def test_gcd_three_variables():
    x, y, z = (variable(3, i) for i in range(3))
    common = add(add(mul(x, y), mul(y, z)), mul(z, z))
    p = mul(common, add(x, z))
    q = mul(common, add(y, z))
    g = gcd_multivar(p, q)
    assert g == primitive_part(common)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_gcd_divides_both_and_is_primitive(seed):
    rng = random.Random(seed)
    p = rand_poly(rng, arity=2, max_terms=4, max_exp=2, max_coeff=5)
    q = rand_poly(rng, arity=2, max_terms=4, max_exp=2, max_coeff=5)
    g = gcd_multivar(p, q)
    if p or q:
        assert g
        assert content(g) == 1
        assert leading_term(g)[1] > 0
        cofactors = []
        for h in (p, q):
            if h:
                quotient = div_exact(h, g)
                assert quotient is not None
                cofactors.append(quotient)
        if len(cofactors) == 2:
            # nothing non-constant remains in common after dividing out g
            assert degree(gcd_multivar(*cofactors)) == 0
    else:
        assert g == zero(2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_gcd_detects_planted_common_factor(seed):
    rng = random.Random(seed)
    common = rand_poly(rng, arity=2, max_terms=3, max_exp=2, max_coeff=4)
    if not common:
        common = variable(2, 0)
    a = rand_poly(rng, arity=2, max_terms=3, max_exp=2, max_coeff=4)
    b = rand_poly(rng, arity=2, max_terms=3, max_exp=2, max_coeff=4)
    if not a:
        a = const(2, 1)
    if not b:
        b = const(2, 1)
    g = gcd_multivar(mul(common, a), mul(common, b))
    # the planted factor divides the gcd
    assert div_exact(g, primitive_part(common)) is not None


def test_gcd_symmetric_up_to_nothing():
    rng = random.Random(23)
    for _ in range(50):
        p = rand_poly(rng, arity=2, max_terms=4, max_exp=2)
        q = rand_poly(rng, arity=2, max_terms=4, max_exp=2)
        assert gcd_multivar(p, q) == gcd_multivar(q, p)


def test_gcd_univariate_matches_integer_structure():
    # (x - 1)(x - 2) and (x - 1)(x + 5) in one variable embedded in two
    x = variable(2, 0)
    one = const(2, 1)
    f1 = mul(add(x, scale(one, -1)), add(x, scale(one, -2)))
    f2 = mul(add(x, scale(one, -1)), add(x, scale(one, 5)))
    assert gcd_multivar(f1, f2) == add(x, scale(one, -1))
