"""Parser and printer for the polynomial expression grammar."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgcd import poly
from orbitgcd.poly import BigPoly, add, eval_int, mul, neg, scale, variable
from orbitgcd.polyparse import MAX_EXPONENT, MAX_NESTING, PolyParseError, parse
from oracles import format_poly


def test_basic_terms():
    p = parse("x0^2*x1 - 3*x1^3 + 7", 3)
    assert p.terms == {(2, 1, 0): 1, (0, 3, 0): -3, (0, 0, 0): 7}


def test_whitespace_and_explicit_coefficients():
    assert parse("  2 * x0  +  x1 ", 2) == parse("2*x0+x1", 2)
    assert parse("x0*2", 2) == parse("2*x0", 2)


def test_unary_minus_and_parentheses():
    p = parse("-x0*(x1 + 2*x2)^2", 3)
    x0, x1, x2 = (variable(3, i) for i in range(3))
    inner = add(x1, scale(x2, 2))
    assert p == neg(mul(x0, mul(inner, inner)))


def test_binomial_power_expansion():
    p = parse("(x0 + x1)^3", 2)
    assert p.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}


def test_integer_only_expression():
    p = parse("2^5 - 30", 2)
    assert p.terms == {(0, 0): 2}


def test_nested_parentheses():
    p = parse("((x0 - x1)*(x0 + x1) + x1^2)", 2)
    assert p.terms == {(2, 0): 1}


def test_large_coefficients_are_exact():
    big = 10 ** 40 + 7
    p = parse("%d*x0" % big, 1)
    assert p.terms == {(1,): big}


def test_variable_index_bounds():
    parse("x2", 3)
    with pytest.raises(PolyParseError):
        parse("x3", 3)
    with pytest.raises(PolyParseError):
        parse("x17", 3)


def test_error_positions_are_reported():
    with pytest.raises(PolyParseError) as info:
        parse("x0 + * x1", 2)
    assert info.value.position == 5
    with pytest.raises(PolyParseError) as info:
        parse("x0 + (x1", 2)
    assert info.value.position >= 5


def test_chained_exponent_rejected():
    with pytest.raises(PolyParseError):
        parse("x0^2^3", 2)


def test_exponent_cap():
    parse("x0^%d" % MAX_EXPONENT, 1)
    with pytest.raises(PolyParseError):
        parse("x0^%d" % (MAX_EXPONENT + 1), 1)


def test_nesting_cap():
    # parentheses and unary minus both nest; the first factor past the cap
    # is where the error points
    x0 = poly.variable(1, 0)
    assert parse("(" * MAX_NESTING + "x0" + ")" * MAX_NESTING, 1) == x0
    assert parse("-" * MAX_NESTING + "x0", 1) == x0
    assert parse("-(" * (MAX_NESTING // 2) + "x0" + ")" * (MAX_NESTING // 2),
                 1) == x0
    for text, at in [("(" * (MAX_NESTING + 1) + "x0" + ")" * (MAX_NESTING + 1),
                      MAX_NESTING + 1),
                     ("x0 + " + "-" * 990 + "x0", 5 + MAX_NESTING + 1),
                     ("(" * 200 + "x0" + ")" * 200, MAX_NESTING + 1),
                     ("-(" * MAX_NESTING + "x0" + ")" * MAX_NESTING,
                      MAX_NESTING + 1)]:
        with pytest.raises(PolyParseError, match="nesting deeper than") as info:
            parse(text, 1)
        assert info.value.position == at


def test_empty_and_garbage_inputs():
    for text in ("", "   ", "x0 +", "* x0", "x0 x1", "(x0", "x0)", "^2", "x"):
        with pytest.raises(PolyParseError):
            parse(text, 2)


def test_parse_rejects_empty_source_and_bad_arity():
    with pytest.raises(PolyParseError, match="empty polynomial source"):
        parse("", 2)
    with pytest.raises(PolyParseError, match="arity must be positive"):
        parse("x0", 0)
    with pytest.raises(PolyParseError, match="arity must be positive"):
        parse("5", 0)


def test_format_zero_and_constants():
    assert format_poly(poly.zero(2)) == "0"
    assert format_poly(poly.const(2, -5)) == "-5"
    assert parse(format_poly(poly.const(2, 5)), 2) == poly.const(2, 5)


def test_format_style():
    p = parse("3*x0^2*x1 - x1^3 + 7", 3)
    text = format_poly(p)
    assert "3*x0^2*x1" in text
    assert parse(text, 3) == p


def rand_poly(rng: random.Random, arity: int) -> BigPoly:
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 4) for _ in range(arity))
        c = rng.randint(-99, 99)
        if c:
            terms[exps] = c
    return BigPoly(arity, terms)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 4))
def test_format_parse_roundtrip(seed, arity):
    rng = random.Random(seed)
    p = rand_poly(rng, arity)
    assert parse(format_poly(p), p.arity) == p


def test_roundtrip_preserves_values():
    rng = random.Random(99)
    for _ in range(100):
        p = rand_poly(rng, 3)
        q = parse(format_poly(p), 3)
        pt = tuple(rng.randint(-5, 5) for _ in range(3))
        assert eval_int(p, pt) == eval_int(q, pt)
