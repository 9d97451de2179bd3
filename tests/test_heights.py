"""Weil and subscheme heights, closed forms, ratio series."""

import dataclasses
import itertools
import math
import random

import pytest
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

from orbitgcd import elimination, heights, poly, polyparse, projgeom
from orbitgcd.heights import (bcz_exact_parts, height_ratio_series,
                              multiplicatively_dependent, subscheme_height,
                              weil_height)
from orbitgcd.projgeom import make_ideal, make_map, make_point


def ideal(*gens: str, arity: int = 3) -> projgeom.SubschemeIdeal:
    return make_ideal([polyparse.parse(g, arity) for g in gens])


def pmap(*comps: str, arity: int = 3) -> projgeom.RationalMap:
    return make_map([polyparse.parse(c, arity) for c in comps])


COORD_AXES = ideal("x0", "x1")


# ---------------------------------------------------------------------------
# Weil height


def test_weil_height_examples():
    assert weil_height(make_point((3, 2, 1))) == math.log(3)
    assert weil_height(make_point((1, 1, 1))) == 0.0
    assert weil_height(make_point((-7, 2, 1))) == math.log(7)


@settings(max_examples=60)
@given(st.lists(st.integers(-10 ** 9, 10 ** 9), min_size=3, max_size=3),
       st.integers(1, 10 ** 4))
def test_weil_height_representative_independent(coords, lam):
    if all(c == 0 for c in coords):
        coords[2] = 1
    a = weil_height(make_point(coords))
    b = weil_height(make_point([lam * c for c in coords]))
    assert a == b


# ---------------------------------------------------------------------------
# subscheme height


def test_coordinate_subscheme_closed_formula():
    # h_Y at (12 : 8 : 1) for Y = (x0, x1):
    # archimedean term log(12/12), gcd term log gcd(12, 8)
    hv = subscheme_height(COORD_AXES, make_point((12, 8, 1)))
    assert not hv.infinite
    assert hv.sup_norm == 12
    assert hv.arch_value == 12
    assert hv.gcd_value == 4
    assert hv.arch_part == pytest.approx(0.0, abs=1e-15)
    assert hv.gcd_part == math.log(4)
    assert hv.total == pytest.approx(math.log(4))


def test_point_on_subscheme_is_infinite():
    hv = subscheme_height(COORD_AXES, make_point((0, 0, 1)))
    assert hv.infinite
    assert hv.total is None and hv.arch_part is None and hv.gcd_part is None


def test_total_splits_and_gcd_part_nonnegative():
    rng = random.Random(7)
    for _ in range(300):
        coords = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(3)]
        if coords[0] == 0 and coords[1] == 0:
            coords[0] = 1
        hv = subscheme_height(COORD_AXES, make_point(coords))
        assert not hv.infinite
        assert hv.gcd_part >= 0.0
        assert hv.total == pytest.approx(hv.arch_part + hv.gcd_part, abs=1e-12)


def test_mixed_degree_generators_pick_exact_minimum():
    # Y = (x0 - x2, x1^2 - x2^2) at (5 : 3 : 1):
    # candidates are log(5/|5-1|) and log(25/|9-1|); the first is smaller
    y = ideal("x0 - x2", "x1^2 - x2^2")
    hv = subscheme_height(y, make_point((5, 3, 1)))
    assert hv.arch_degree == 1
    assert hv.arch_value == 4
    assert hv.gcd_value == math.gcd(4, 8)
    assert hv.arch_part == pytest.approx(math.log(5) - math.log(4))
    assert hv.total == pytest.approx(math.log(5) - math.log(4) + math.log(4))
    # x1 and x0*x1 tie at 3/5 = 15/25: the earlier generator wins
    hv = subscheme_height(ideal("x1", "x0*x1"), make_point((5, 3, 1)))
    assert (hv.arch_value, hv.arch_degree) == (3, 1)
    hv = subscheme_height(ideal("x0*x1", "x1"), make_point((5, 3, 1)))
    assert (hv.arch_value, hv.arch_degree) == (15, 2)


def test_generator_value_larger_than_sup_gives_negative_arch():
    # all coordinates 1 makes the generator sum exceed the sup norm
    y = ideal("x0 + x1 + x2")
    hv = subscheme_height(y, make_point((1, 1, 1)))
    assert hv.arch_part == pytest.approx(-math.log(3))
    assert hv.gcd_part == math.log(3)
    assert hv.total == pytest.approx(0.0, abs=1e-15)


def _cross_multiplication_witnesses(Y, x):
    """(sup_norm, gcd_value, arch_value, arch_degree) with the argmin decided
    by comparing |v| ||a||^{d_best} against |v_best| ||a||^d in full."""
    sup = max(abs(c) for c in x.coords)
    values = []
    for g in Y.generators:
        v = poly.eval_int(g, x.coords)
        if v:
            values.append((abs(v), poly.degree(g)))
    if not values:
        return None
    best_v, best_d = values[0]
    for v, d in values[1:]:
        if v * sup ** best_d > best_v * sup ** d:
            best_v, best_d = v, d
    return sup, math.gcd(*(v for v, _ in values)), best_v, best_d


_FORM_EXPONENTS = {d: [e for e in itertools.product(range(d + 1), repeat=3)
                       if sum(e) == d] for d in (1, 2, 3)}


@st.composite
def _forms(draw):
    d = draw(st.integers(1, 3))
    exps = draw(st.lists(st.sampled_from(_FORM_EXPONENTS[d]), min_size=1,
                         max_size=4, unique=True))
    coeffs = draw(st.lists(st.integers(-5, 5).filter(bool),
                           min_size=len(exps), max_size=len(exps)))
    return poly.BigPoly(3, dict(zip(exps, coeffs)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_arch_argmin_matches_cross_multiplication(data):
    coords = data.draw(st.lists(st.one_of(st.integers(-3, 3),
                                          st.integers(-2 ** 200, 2 ** 200)),
                                min_size=3, max_size=3))
    assume(any(coords))
    x = make_point(coords)
    top = max(range(3), key=lambda i: abs(x.coords[i]))
    gens = []
    for _ in range(data.draw(st.integers(1, 4))):
        g = data.draw(_forms())
        # partners that tie with g: -g, or x_top * g, whose value is
        # ||a|| |g(a)| at one degree more
        tie = data.draw(st.sampled_from(["none", "neg", "times sup"]))
        if tie == "neg":
            partner = poly.neg(g)
        elif tie == "times sup" and poly.degree(g) < 3:
            partner = poly.mul(g, poly.variable(3, top))
        else:
            gens.append(g)
            continue
        pair = [g, partner]
        if data.draw(st.booleans()):
            pair.reverse()
        gens.extend(pair)
    Y = make_ideal(gens)
    hv = subscheme_height(Y, x)
    expected = _cross_multiplication_witnesses(Y, x)
    if expected is None:
        assert hv.infinite
    else:
        assert (hv.sup_norm, hv.gcd_value, hv.arch_value,
                hv.arch_degree) == expected


@settings(max_examples=60)
@given(st.lists(st.integers(-10 ** 8, 10 ** 8), min_size=3, max_size=3),
       st.integers(1, 997))
def test_subscheme_height_representative_independent(coords, lam):
    if all(c == 0 for c in coords):
        coords[1] = 2
    y = ideal("x0 - x2", "x1 + 2*x2")
    a = subscheme_height(y, make_point(coords))
    b = subscheme_height(y, make_point([lam * c for c in coords]))
    assert a.infinite == b.infinite
    if not a.infinite:
        assert a.sup_norm == b.sup_norm
        assert a.gcd_value == b.gcd_value
        assert a.total == b.total


# ---------------------------------------------------------------------------
# closed forms for the diagonal map


def test_bcz_exact_parts_small_n():
    w = bcz_exact_parts(2, 3, 1)
    assert (w.sup_norm, w.gcd_value, w.arch_value) == (3, 1, 2)
    w = bcz_exact_parts(2, 3, 6)
    assert w.sup_norm == 729
    assert w.gcd_value == math.gcd(2 ** 6 - 1, 3 ** 6 - 1)
    assert w.gcd_value == 7
    assert w.arch_value == 728


def test_bcz_closed_form_validates():
    with pytest.raises(ValueError):
        bcz_exact_parts(1, 3, 2)
    with pytest.raises(ValueError):
        bcz_exact_parts(2, 3, 0)


def test_bcz_closed_form_matches_subscheme_height():
    y = ideal("x0 - x2", "x1 - x2")
    for n in (1, 2, 5, 9, 17):
        pt = make_point((2 ** n, 3 ** n, 1))
        hv = subscheme_height(y, pt)
        parts = bcz_exact_parts(2, 3, n)
        assert hv.sup_norm == parts.sup_norm
        assert hv.gcd_value == parts.gcd_value
        assert hv.arch_value == parts.arch_value
        assert weil_height(pt) == math.log(parts.sup_norm)


# ---------------------------------------------------------------------------
# multiplicative dependence


def test_multiplicative_dependence_table():
    dependent = [(2, 4), (4, 2), (4, 8), (8, 4), (9, 27), (4, 4), (2, 2),
                 (16, 8), (100, 1000)]
    independent = [(2, 3), (6, 12), (12, 18), (2, 6), (10, 100000000000 + 1)]
    for a, b in dependent:
        assert multiplicatively_dependent(a, b), (a, b)
    for a, b in independent:
        assert not multiplicatively_dependent(a, b), (a, b)


def test_multiplicative_dependence_powers_of_common_base():
    rng = random.Random(13)
    for _ in range(50):
        base = rng.randint(2, 50)
        i, j = rng.randint(1, 6), rng.randint(1, 6)
        assert multiplicatively_dependent(base ** i, base ** j)



def test_multiplicative_dependence_matches_smallest_root_base():
    # a^i = b^j exactly when a and b are powers of the same smallest base
    def root_base(m):
        for c in range(2, m + 1):
            power = c
            while power < m:
                power *= c
            if power == m:
                return c

    bases = {m: root_base(m) for m in range(2, 260)}
    for a in bases:
        for b in bases:
            assert multiplicatively_dependent(a, b) == (bases[a] == bases[b])
    with pytest.raises(ValueError):
        multiplicatively_dependent(1, 3)

# ---------------------------------------------------------------------------
# ratio series along orbits


def test_series_rows_and_ratio_definition():
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    series = height_ratio_series(f, COORD_AXES, make_point((3, 2, 1)), 5)
    assert len(series.rows) == 6
    assert len(series.orbit.points) == 6
    for row in series.rows:
        pt = series.orbit.points[row.n]
        assert row.h == weil_height(pt)
        assert row.bits == max(c.bit_length() for c in pt.coords)
        if row.h > 0 and not row.height.infinite:
            assert row.ratio == pytest.approx(row.height.total / row.h)
        else:
            assert row.ratio is None


def test_series_ratio_none_at_height_zero():
    f = pmap("2*x0", "3*x1", "x2")
    y = ideal("x0 - x2", "x1 - x2")
    series = height_ratio_series(f, y, make_point((1, 1, 1)), 3)
    row0, row1 = series.rows[:2]
    assert row0.h == 0.0
    assert row0.height.infinite  # (1:1:1) lies on Y
    assert row0.ratio is None
    # later rows have positive height and finite values
    assert row1.h > 0 and not row1.height.infinite and row1.ratio is not None


def test_series_truncates_with_orbit():
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    series = height_ratio_series(f, COORD_AXES, make_point((1, 0, 0)), 4)
    assert series.rows == []
    assert series.orbit.indeterminate_at == 0


def test_backnonfin_ratio_closed_form_small_n():
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    series = height_ratio_series(f, COORD_AXES, make_point((3, 2, 1)), 8)
    for row in series.rows[1:]:
        n = row.n
        num = (3 ** n - 2 ** n) * math.log(2)
        den = 2 ** n * math.log(3) + (3 ** n - 2 ** n) * math.log(2)
        assert row.ratio == pytest.approx(num / den, rel=1e-12)


# ---------------------------------------------------------------------------
# the height gcd certified from the previous orbit point

A2 = ("x0^2*x1", "x1^3 + x0^2*x1 + x0*x2^2", "x2^3")
BACKNONFIN = ("x0^2*x1", "x1^3", "x2^3")


def _pulled_back_certificate(f, Y):
    return elimination.divisor_certificate(
        [poly.compose(g, f.components) for g in Y.generators])


def _series_with_supports(f, Y, x0, n_max):
    """height_ratio_series with every subscheme_height call recorded as
    (support, point), the way the benchmark's check pass wraps it."""
    calls = []

    def spy(Y_n, x):
        calls.append((Y_n.support, x))
        return subscheme_height(Y_n, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(heights, "subscheme_height", spy)
        series = height_ratio_series(f, Y, x0, n_max)
    assert [x for _, x in calls] == series.orbit.points
    return series, [support for support, _ in calls]


_GENERATORS = {2: ("x0", "x1", "x0 - x1", "x0*x1"),
               3: ("x0", "x1", "x2", "x0 + x2", "x1 - x2", "x0*x2")}


@st.composite
def _planted_orbits(draw):
    """(f, Y, x0, n_max) built as in the orbit test
    test_certified_orbit_matches_the_gcd_fold.

    In P^2, f_2 = c*l^d with the line l = beta*x1 - alpha*x2 free of x0,
    and f_0, f_1 vanish at P = (a : alpha : beta) on l, so f(P) lies on
    the generators x0, x2 and x0 + x2.  When Y has x2 or x0 + x2, its
    pulled-back forms have the factor l^d and l is a certificate form.
    The start is congruent to P mod m, so m tends to divide the gcd of
    the next row, or in P^2 it is a common zero of the certificate lines.
    In P^1 only f_0 is planted.
    """
    arity = draw(st.sampled_from([2, 3, 3, 3]))
    d = draw(st.integers(1, 3))
    P = (draw(st.integers(1, 4)),) + tuple(draw(st.lists(
        st.integers(-4, 4).filter(bool), min_size=arity - 1,
        max_size=arity - 1)))
    monos = [e for e in itertools.product(range(d + 1), repeat=arity)
             if sum(e) == d]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(monos),
                      max_size=len(monos))
    top = (d,) + (0,) * (arity - 1)

    def form(terms):
        return poly.BigPoly(arity, {e: c for e, c in terms.items() if c})

    comps = []
    for _ in range(2):
        g = form(dict(zip(monos, draw(coeffs))))
        terms = {e: P[0] ** d * c for e, c in g.terms.items()}
        terms[top] = terms.get(top, 0) - poly.eval_int(g, P)
        comps.append(form(terms))
    v = 0
    if arity == 3:
        lines = [{(0, 1, 0): P[2], (0, 0, 1): -P[1]}]
        if draw(st.booleans()):
            # f_1 = c'*l'^d with l' = x0 + v*x1: for Y with x1 and x2 the
            # certificate has l, l' and a third line, whose values at a
            # point rarely share a prime
            v = draw(st.integers(-3, 3))
            lines.append({(1, 0, 0): 1, (0, 1, 0): v})
            comps.pop()
        for terms in lines:
            power = poly.const(3, draw(st.sampled_from([1, 1, 2, 6])))
            for _ in range(d):
                power = power * form(terms)
            comps.append(power)
    else:
        comps[1] = form(dict(zip(monos, draw(coeffs))))
    assume(any(c.terms for c in comps))
    f = make_map(comps)
    Y = ideal(*draw(st.lists(st.sampled_from(_GENERATORS[arity]),
                             min_size=arity - 1, max_size=3, unique=True)),
              arity=arity)
    if arity == 3 and draw(st.booleans()):
        # the common zero of l and l' (of l alone when l' is x0), where
        # every certificate line vanishes
        raw = [-v * P[1], P[1], P[2]]
    else:
        m = math.prod(draw(st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1,
                                    max_size=3)))
        shift = draw(st.lists(st.integers(-3, 3), min_size=arity,
                              max_size=arity))
        raw = [p + m * t for p, t in zip(P, shift)]
        assume(any(raw))
    return f, Y, make_point(raw), draw(st.integers(1, 4))


def _check_against_plain_gcd(f, Y, x0, n_max):
    """Every row of the certified series equals subscheme_height with no
    support, every prime of each gcd divides its row's support, and the
    outcomes the supports reached are returned by name."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projgeom, "CERTIFICATE_MIN_BITS", 0)
        series, supports = _series_with_supports(f, Y, x0, n_max)
    points = series.orbit.points
    assert [row.height for row in series.rows] == [
        subscheme_height(Y, pt) for pt in points]
    if f.arity == 2:
        assert not any(supports)
        return {"arity 2"}
    linear = all(poly.degree(g) == 1 for g in Y.generators)
    cert = _pulled_back_certificate(f, Y) if linear else ()
    outcomes = set()
    for n, (row, support) in enumerate(zip(series.rows, supports)):
        if not (n and cert):
            assert support == 0
            continue
        if support == 0:
            assert all(c * poly.eval_int(s, points[n - 1].coords) == 0
                       for c, s in cert)
            outcomes.add("support 0")
            continue
        outcomes.add("support 1" if support == 1 else "support > 1")
        g = row.height.gcd_value or 1  # None on Y
        while math.gcd(g, support) > 1:
            g //= math.gcd(g, support)
        assert g == 1
    return outcomes


@settings(max_examples=80, deadline=None)
@given(_planted_orbits())
def test_certified_height_gcd_matches_the_plain_gcd(case):
    _check_against_plain_gcd(*case)


@pytest.mark.parametrize("outcome",
                         ["support 1", "support > 1", "support 0", "arity 2"])
def test_planted_orbits_reach_every_support_outcome(outcome):
    find(_planted_orbits(),
         lambda case: outcome in _check_against_plain_gcd(*case),
         settings=settings(database=None, max_examples=1000, deadline=None,
                           phases=[Phase.generate]))


def test_pulled_back_certificates_of_the_built_in_maps():
    x1, x0x2, x0x1 = (polyparse.parse(t, 3)
                      for t in ("x1", "x0*x2", "x0*x1"))
    assert _pulled_back_certificate(pmap(*A2), COORD_AXES) == (
        (1, x1), (1, x0x2), (1, x0x1))
    assert _pulled_back_certificate(pmap(*BACKNONFIN),
                                    COORD_AXES) == ((1, x1),)


@pytest.mark.parametrize("comps, start, n_max, unit", [
    (A2, (4253, 4133, 4327), 9, True),
    (A2, (2, 3, 1), 10, True),
    (BACKNONFIN, (32941, 33037, 33629), 9, False),
])
def test_support_along_deep_orbits(comps, start, n_max, unit):
    # a start of the benchmark's deep orbits and the built-in a2 start;
    # from CERTIFICATE_MIN_BITS on a2's support proves every gcd 1, while
    # backnonfin's single form x1 never does (its gcd is nearly all of the
    # values)
    series, supports = _series_with_supports(
        pmap(*comps), COORD_AXES, make_point(start), n_max)
    assert [row.height for row in series.rows] == [
        subscheme_height(COORD_AXES, pt) for pt in series.orbit.points]
    certified = [s for row, s in zip(series.rows, supports)
                 if row.n and row.bits >= projgeom.CERTIFICATE_MIN_BITS]
    assert len(certified) >= 2 and all(certified)
    assert [s == 1 for s in certified] == [unit] * len(certified)
    assert not any(s for row, s in zip(series.rows, supports)
                   if row.bits < projgeom.CERTIFICATE_MIN_BITS)


def test_support_is_not_part_of_the_ideal_value():
    Y = ideal("x0", "x1 - x2")
    assert Y == dataclasses.replace(Y, support=1)
    assert hash(Y) == hash(dataclasses.replace(Y, support=1))
    assert Y.support == 0


def test_nonlinear_ideal_never_builds_the_height_certificate():
    # the built-in a2 start keeps x2 = 1, so the orbit never builds its own
    # certificate, while its rows pass CERTIFICATE_MIN_BITS from n = 9 on
    f = pmap(*A2)
    built = []
    original = elimination.divisor_certificate

    def spy(forms):
        built.append(tuple(forms))
        return original(forms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elimination, "divisor_certificate", spy)
        series = height_ratio_series(f, ideal("x0^2", "x1*x2"),
                                     make_point((2, 3, 1)), 10)
        assert series.rows[-1].bits >= projgeom.CERTIFICATE_MIN_BITS
        assert built == []
        height_ratio_series(f, COORD_AXES, make_point((2, 3, 1)), 10)
    assert built == [tuple(poly.compose(g, f.components)
                           for g in COORD_AXES.generators)]
