"""Weil and subscheme heights, closed forms, ratio series."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbitgcd import heights, poly, polyparse, projgeom
from orbitgcd.heights import (bcz_closed_form, bcz_exact_parts,
                              height_ratio_series, multiplicatively_dependent,
                              subscheme_height, weil_height)
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


def test_bcz_closed_form_values():
    row = bcz_closed_form(2, 3, 6)
    expected_hy = math.log(729) - math.log(728) + math.log(7)
    assert row.h == math.log(729)
    assert row.h_Y == pytest.approx(expected_hy, rel=1e-15)
    assert row.ratio == pytest.approx(expected_hy / math.log(729), rel=1e-15)


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
        row = bcz_closed_form(2, 3, n)
        parts = bcz_exact_parts(2, 3, n)
        assert hv.sup_norm == parts.sup_norm
        assert hv.gcd_value == parts.gcd_value
        assert hv.arch_value == parts.arch_value
        assert hv.total == pytest.approx(row.h_Y, rel=1e-12)
        assert weil_height(pt) == pytest.approx(row.h, rel=1e-15)


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
