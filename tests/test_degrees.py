"""Degree sequences, fiber counting over F_p, monomial dynamical degrees,
and the arithmetic-degree estimators."""

import functools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitgcd import degrees, polyparse, projgeom
from orbitgcd.degrees import (arithmetic_degree_estimate, d1_estimate,
                              degree_sequence, geometric_fiber_count,
                              hyperbolicity_report, monomial_dyn_degrees,
                              orbit_genericity_heuristic,
                              topological_degree_ff)
from orbitgcd.ffield import (is_probable_prime, uni_deg, uni_interpolate,
                             uni_mul, uni_norm, uni_resultant)
from orbitgcd.projgeom import make_map, make_point
from oracles import (arithmetic_degree_reference, modes_by_prime,
                     rational_fiber_count)


def pmap(*comps: str, arity: int = 3) -> projgeom.RationalMap:
    return make_map([polyparse.parse(c, arity) for c in comps])


def reduced(f: projgeom.RationalMap, prime: int):
    return [{e: r for e, c in comp.terms.items() if (r := c % prime)}
            for comp in f.components]


BACKNONFIN = ("x0^2*x1", "x1^3", "x2^3")
CREMONA = ("x1*x2", "x0*x2", "x0*x1")


# ---------------------------------------------------------------------------
# degree sequences


def test_degree_sequence_pure_power_map():
    seq = degree_sequence(pmap(*BACKNONFIN), 5)
    assert seq.entries == [(1, 3), (2, 9), (3, 27), (4, 81), (5, 243)]
    assert not seq.truncated
    for n, d, root in seq.with_roots():
        assert root == pytest.approx(3.0)


def test_degree_sequence_budget_truncation():
    seq = degree_sequence(pmap(*BACKNONFIN), 10, budget=100)
    assert seq.entries == [(1, 3), (2, 9), (3, 27), (4, 81)]
    assert seq.truncated
    assert d1_estimate(seq) == pytest.approx(81 / 27)
    assert degrees.DEFAULT_DEGREE_BUDGET == 729


def test_degree_sequence_immediate_truncation():
    seq = degree_sequence(pmap(*BACKNONFIN), 5, budget=5)
    assert seq.entries == [(1, 3)]
    assert seq.truncated
    assert d1_estimate(seq) == pytest.approx(3.0)


def test_degree_sequence_stops_at_a_constant_iterate():
    # (x2 : x0 : 3*x2) squares to (3 : 1 : 9); (x0 : 2*x0 : 3*x0) reduces
    # to the constant (1 : 2 : 3) itself
    for comps, entries in ((("x2", "x0", "3*x2"), [(1, 1), (2, 0)]),
                           (("x0", "2*x0", "3*x0"), [(1, 0)])):
        seq = degree_sequence(pmap(*comps), 6)
        assert seq.entries == entries
        assert not seq.truncated
        assert seq.flags() == [
            "degree sequence stopped at n=%d: f^n is constant "
            "(the map is not dominant)" % entries[-1][0]]
        assert d1_estimate(seq) == 0.0
    assert degree_sequence(pmap(*BACKNONFIN), 10, budget=100).flags() == [
        "degree sequence truncated by the composition budget"]
    assert degree_sequence(pmap(*BACKNONFIN), 3).flags() == []


def test_degree_sequence_rejects_bad_n():
    with pytest.raises(ValueError):
        degree_sequence(pmap(*BACKNONFIN), 0)


def test_degree_drop_under_composition():
    # the standard quadratic involution squares to the identity, so the
    # raw degree 4 collapses to 1 after removing the common factor
    seq = degree_sequence(pmap(*CREMONA), 4)
    assert seq.entries == [(1, 2), (2, 1), (3, 2), (4, 1)]
    assert d1_estimate(seq) == pytest.approx(1.0)


def test_degree_submultiplicative_across_maps():
    maps = [pmap(*BACKNONFIN), pmap(*CREMONA),
            pmap("x0^2", "x1^2", "x2^2"),
            pmap("x0*x1", "x1^2 + x0*x2", "x2^2")]
    for f in maps:
        seq = degree_sequence(f, 5)
        degs = dict(seq.entries)
        for m in degs:
            for n in degs:
                if m + n in degs:
                    assert degs[m + n] <= degs[m] * degs[n]


# ---------------------------------------------------------------------------
# fiber counting over F_p


def test_fiber_mode_backnonfin_is_six():
    report = topological_degree_ff(pmap(*BACKNONFIN), [1009], 8,
                                   rng=random.Random(0), flags=[])
    assert report.mode == 6
    assert report.modes == [6]
    assert not report.ambiguous and not report.degenerate
    assert report.samples == 8 and report.failed_samples == 0
    assert report.histogram == {6: 8}
    assert modes_by_prime(report) == {1009: 6}


def test_fiber_mode_coupled_cubic_is_seven():
    f = pmap("x0^2*x1", "x1^3 + x0^2*x1 + x0*x2^2", "x2^3")
    report = topological_degree_ff(f, [1009], 8, rng=random.Random(1),
                                   flags=[])
    assert report.mode == 7
    assert not report.ambiguous


def test_fiber_mode_power_maps():
    squaring = topological_degree_ff(pmap("x0^2", "x1^2", "x2^2"), [1009], 6,
                                     rng=random.Random(2), flags=[])
    assert squaring.mode == 4
    cubing = topological_degree_ff(pmap("x0^3", "x1^3", "x2^3"), [1009], 6,
                                   rng=random.Random(3), flags=[])
    assert cubing.mode == 9


def test_fiber_mode_linear_map_is_one():
    f = pmap("2*x0", "3*x1", "x2")
    report = topological_degree_ff(f, [1009], 6, rng=random.Random(4),
                                   flags=[])
    assert report.mode == 1


def test_fiber_counts_stable_across_primes():
    report = topological_degree_ff(pmap(*BACKNONFIN), [1009, 2003], 5,
                                   rng=random.Random(5), flags=[])
    assert modes_by_prime(report) == {1009: 6, 2003: 6}
    assert report.samples == 10


def test_coefficients_divisible_by_p_drop_out_of_the_fiber_count():
    # 1009*x0*x1*x2 vanishes mod 1009 and 1010*x0^2*x1 is x0^2*x1 there,
    # so the counts, and the draws they take, are those of BACKNONFIN
    wrapped = pmap("1010*x0^2*x1 + 1009*x0*x1*x2", "x1^3", "x2^3")
    reports, draws = [], []
    for f in (wrapped, pmap(*BACKNONFIN)):
        rng = random.Random(3)
        reports.append(topological_degree_ff(f, [1009], 6, rng=rng,
                                             flags=[]).as_dict())
        draws.append(rng.randrange(10 ** 9))
    assert reports[0] == reports[1]
    assert reports[0]["histogram"] == [[6, 6]]
    assert draws[0] == draws[1]


def test_rational_count_never_exceeds_geometric():
    f = pmap("x0^2", "x1^2", "x2^2")
    rng = random.Random(7)
    p = 53
    for _ in range(5):
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        geo = geometric_fiber_count(reduced(f, p), p, (a, b), random.Random(11))
        if geo is None:
            continue
        rational = rational_fiber_count(f, p, (a, b, 1))
        assert rational <= geo


def test_squaring_fiber_over_unit_target():
    # preimages of (1:1:1) under coordinate squaring: signs of the first
    # two coordinates, so 4 points, all rational over any odd prime field
    f = pmap("x0^2", "x1^2", "x2^2")
    assert geometric_fiber_count(reduced(f, 53), 53, (1, 1),
                                 random.Random(1)) == 4
    assert rational_fiber_count(f, 53, (1, 1, 1)) == 4


A2 = ("x0^2*x1", "x1^3 + x0^2*x1 + x0*x2^2", "x2^3")


def fiber_flags(f, primes, targets=4):
    """The report (or None) and the flags of one fiber count at seed 0."""
    flags = []
    report = topological_degree_ff(f, primes, targets, random.Random(0), flags)
    return report, flags


def test_fiber_guards():
    with pytest.raises(ValueError):
        fiber_flags(pmap(*BACKNONFIN), [47])
    # 91 = 7 * 13 clears the floor; every number is checked before any count
    with pytest.raises(ValueError, match="91 is not prime"):
        fiber_flags(pmap(*BACKNONFIN), [1009, 91])
    with pytest.raises(ValueError):  # a bad number wins over the arity flag
        fiber_flags(pmap("x0^2", "x1^2", arity=2), [47])
    assert fiber_flags(pmap("x0^2", "x1^2", arity=2), [1009]) == (None, [
        "fiber counting skipped: implemented for maps of P^2 only"])
    wipe = ("fiber counting skipped prime 53: it divides every coefficient "
            "of map component 0")
    f = pmap("53*x0^2 + 53*x1^2", "x1^2", "x2^2")
    assert fiber_flags(f, [53]) == (None, [wipe])
    report, flags = fiber_flags(f, [53, 1009])
    assert flags == [wipe] and list(report.by_prime) == [1009]
    small = "fiber counting skipped prime 53: too small for the degree-8 map"
    f = pmap("x0^8 + x1*x2^7", "x1^8 - x0*x2^7", "x2^8 + x0*x1^7")
    assert fiber_flags(f, [53]) == (None, [small])
    # by_prime keeps one histogram per prime, so a repeat is not counted;
    # skip flags come in the order of the primes, before the count's flags
    report, flags = fiber_flags(pmap("x0^2", "x0*x1", "x1^2"), [1009, 1009])
    assert flags == ["fiber counting skipped prime 1009: repeated",
                     "fiber counting degenerate (map may fail to be dominant)"]
    assert report.by_prime == {1009: {0: 4}} and report.samples == 4


def test_zero_component_is_flagged_once_before_any_prime():
    rng, flags = random.Random(0), []
    assert topological_degree_ff(pmap("x0^2", "0", "x2^2"), [1009, 2003], 4,
                                 rng, flags) is None
    assert flags == ["fiber counting skipped: map component 1 is "
                     "identically zero"]
    assert rng.getstate() == random.Random(0).getstate()


def test_skipped_prime_draws_nothing():
    # a2's histogram at 53 holds the counts 4 and 7, so a shifted stream
    # of targets and shears would change it
    outs = []
    for primes in ([53, 53, 59], [53, 59]):
        rng, flags = random.Random(1), []
        report = topological_degree_ff(pmap(*A2), primes, 20, rng, flags)
        outs.append((report.as_dict(), rng.randrange(10 ** 9)))
    assert outs[0] == outs[1]
    assert outs[0][0]["by_prime"]["53"] == [[4, 1], [7, 19]]
    assert outs[0][0]["samples"] == 40


def test_fiber_histogram_pinned_for_a_quadratic_with_a_base_point():
    # a seeded random quadratic with the base point (0:1:0); the histogram,
    # the failures and the next draw of the generator were recorded before
    # the eliminants of a shear shared their specialized components
    f = pmap("x0^2 + x0*x1 + 3*x0*x2 - x1*x2",
             "-x0^2 + x2^2 - 2*x0*x1 - 2*x1*x2",
             "-2*x0^2 + 2*x0*x1 + 2*x0*x2")
    rng = random.Random(0)
    report = topological_degree_ff(f, [1009, 2003], 12, rng=rng, flags=[])
    assert report.by_prime == {1009: {3: 12}, 2003: {3: 12}}
    assert report.failed_samples == 0
    assert rng.randrange(10 ** 9) == 728549938


def test_chart_equation_vanishing_identically_returns_none():
    # f0 - 2*f2 = 0, so the fiber over (2:5:1) is a curve, not a count;
    # the chart equation must merge 2*x2^2 and -2*x2^2 into nothing
    f = pmap("2*x2^2", "x1^2", "x2^2")
    assert geometric_fiber_count(reduced(f, 1009), 1009, (2, 5),
                                 random.Random(0)) is None


@pytest.mark.parametrize("prime", [1009, 2003])
@pytest.mark.parametrize("comps, mode", [
    (CREMONA, 1),
    (("x0^2 + x1*x2", "x0*x1 + x1^2 - x0*x2", "x0^2 - x1^2 + 3*x0*x1"), 3),
])
def test_base_point_in_the_chart_is_stripped_from_the_count(comps, mode, prime):
    # each map has a base point in the chart z = 1, which every eliminant
    # shares; counting it as a fiber point gives mode + 1
    report = topological_degree_ff(pmap(*comps), [prime], 10,
                                   rng=random.Random(0), flags=[])
    assert report.mode == mode


def _specialized_direct(terms, shear, v0, prime):
    """One chart poly at z=1, sheared x=a*u+b*v, y=g*u+d*v, then v=v0,
    built term by term from repeated products."""
    al, be, ga, de = shear
    acc = [0] * (1 + max(e0 + e1 for e0, e1, _ in terms))
    for (e0, e1, _), c in terms.items():
        mono = [c % prime]
        for _ in range(e0):
            mono = uni_mul(mono, [be * v0 % prime, al], prime)
        for _ in range(e1):
            mono = uni_mul(mono, [de * v0 % prime, ga], prime)
        for k, m in enumerate(mono):
            acc[k] = (acc[k] + m) % prime
    return uni_norm(acc)


def _eliminant_direct(g1, g2, shear, prime):
    """The eliminant from each chart equation specialized on its own."""
    d1, d2 = degrees._xy_degree(g1), degrees._xy_degree(g2)
    xs, ys = [], []
    for v0 in range(d1 * d2 + 1):
        h1 = _specialized_direct(g1, shear, v0, prime)
        h2 = _specialized_direct(g2, shear, v0, prime)
        if uni_deg(h1) != d1 or uni_deg(h2) != d2:
            return None
        xs.append(v0)
        ys.append(uni_resultant(h1, h2, prime))
    r = uni_interpolate(xs, ys, prime)
    return r or None


@st.composite
def chart_cases(draw):
    """(prime, components as {exponents: residue} maps, target, shear) on
    random quadratic and cubic P^2 maps; ga = 0 is common, so that the
    shear often drops the u-degree of a chart equation."""
    prime = draw(st.sampled_from([1009, 2003]))
    deg = draw(st.sampled_from([2, 3]))
    monos = degrees._monomial_exponents(3, deg)
    comps = []
    for _ in range(3):
        support = draw(st.lists(st.sampled_from(monos), min_size=1,
                                max_size=len(monos), unique=True))
        comps.append({e: draw(st.integers(-3, 3).filter(bool)) % prime
                      for e in support})
    target = (draw(st.integers(0, prime - 1)), draw(st.integers(0, prime - 1)))
    ga = draw(st.one_of(st.just(0), st.integers(0, prime - 1)))
    shear = (draw(st.integers(1, prime - 1)), draw(st.integers(0, prime - 1)),
             ga, draw(st.integers(1, prime - 1)))
    return prime, comps, target, shear


_POWER_MAP = [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}]
# x0*x1, x0*x2, x0^2: for every target both chart equations share x0
_SHARED_FACTOR_MAP = [{(1, 1, 0): 1}, {(1, 0, 1): 1}, {(2, 0, 0): 1}]


@settings(max_examples=80, deadline=None)
@given(case=chart_cases())
@example(case=(1009, _POWER_MAP, (5, 7), (1, 0, 0, 1)))  # y^2 - 7 drops to degree 0 in u
@example(case=(2003, _SHARED_FACTOR_MAP, (4, 9), (3, 5, 7, 11)))  # resultant vanishes
def test_eliminant_from_shared_specialization_matches_direct(case):
    prime, comps, (a, b), shear = case
    g1 = degrees._chart_terms(comps[0], a, comps[2], prime)
    g2 = degrees._chart_terms(comps[1], b, comps[2], prime)
    if not g1 or not g2 or degrees._xy_degree(g1) == 0 \
            or degrees._xy_degree(g2) == 0:
        return  # geometric_fiber_count never asks for these eliminants
    forms = degrees._sheared_forms(comps, shear, prime)
    sheared = functools.partial(degrees._specialized, forms, prime=prime)
    got = degrees._eliminant(g1, g2, (a, b), sheared, prime)
    assert got == _eliminant_direct(g1, g2, shear, prime)


@st.composite
def sparse_maps(draw):
    """(prime, components as {exponents: residue} maps, shear) for P^2 maps
    of degree 1-4 whose components each miss some monomials."""
    prime = draw(st.sampled_from([53, 1009]))
    deg = draw(st.integers(1, 4))
    monos = degrees._monomial_exponents(3, deg)
    comps = [{e: draw(st.integers(1, prime - 1)) for e in sorted(draw(
        st.lists(st.sampled_from(monos), min_size=1,
                 max_size=max(1, len(monos) - 1), unique=True)))}
        for _ in range(3)]
    shear = (draw(st.integers(1, prime - 1)), draw(st.integers(0, prime - 1)),
             draw(st.sampled_from([0, 1, prime - 1]) | st.integers(0, prime - 1)),
             draw(st.integers(1, prime - 1)))
    return prime, comps, shear


@settings(max_examples=150, deadline=None)
@given(case=sparse_maps(), v0=st.integers(0, 20))
def test_sheared_forms_match_direct_specialization(case, v0):
    prime, comps, shear = case
    d = sum(next(iter(comps[0])))
    got = degrees._specialized(degrees._sheared_forms(comps, shear, prime),
                               v0, prime)
    for terms, row in zip(comps, got):
        assert len(row) == d + 1
        assert uni_norm(list(row)) == _specialized_direct(terms, shear, v0, prime)


# ---------------------------------------------------------------------------
# monomial maps


def test_monomial_degrees_triangular_example():
    out = monomial_dyn_degrees([[2, 1], [0, 3]])
    assert out[0] == 1.0
    assert out[1] == pytest.approx(3.0, abs=1e-9)
    assert out[2] == pytest.approx(6.0, abs=1e-9)
    assert out[2] == 6.0  # determinant is taken exactly


def test_monomial_degrees_irrational_top():
    out = monomial_dyn_degrees([[2, 1], [1, 1]])
    assert out[1] == pytest.approx((3 + math.sqrt(5)) / 2, rel=1e-12)
    assert out[2] == 1.0


def test_monomial_rejects_singular_and_ragged():
    with pytest.raises(ValueError):
        monomial_dyn_degrees([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        monomial_dyn_degrees([[1, 2, 3], [4, 5, 6]])


def test_monomial_degrees_with_a_zero_diagonal():
    # the trace is 0 but the eigenvalues are near 1e8, so their float sum
    # misses 0 by about 1e-8
    m = [[0, -84934517, -2091914], [-46356016, 0, -4224924],
         [-99574598, 67366674, 0]]
    assert monomial_dyn_degrees(m)[3] == float(abs(_det3(m)))


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _rand_nonsingular(rng, lo=-5, hi=5):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(3)] for _ in range(3)]
        if _det3(m) != 0:
            return m


def test_monomial_top_degree_is_exact_determinant():
    rng = random.Random(17)
    for _ in range(25):
        m = _rand_nonsingular(rng)
        out = monomial_dyn_degrees(m)
        assert out[3] == float(abs(_det3(m)))


def test_monomial_degrees_log_concave():
    rng = random.Random(19)
    for _ in range(25):
        out = monomial_dyn_degrees(_rand_nonsingular(rng))
        for i in range(1, len(out) - 1):
            assert out[i] ** 2 >= out[i - 1] * out[i + 1] * (1 - 1e-9)


def test_monomial_degrees_of_matrix_square():
    rng = random.Random(23)
    for _ in range(10):
        m = _rand_nonsingular(rng, -3, 3)
        m2 = [[sum(m[i][k] * m[k][j] for k in range(3)) for j in range(3)]
              for i in range(3)]
        if _det3(m2) == 0:
            continue
        out = monomial_dyn_degrees(m)
        out2 = monomial_dyn_degrees(m2)
        for i in range(1, 4):
            assert out2[i] == pytest.approx(out[i] ** 2, rel=1e-6)


# ---------------------------------------------------------------------------
# arithmetic degree from heights


def test_alpha_geometric_series():
    hs = [3.0 ** n for n in range(13)]
    est = arithmetic_degree_estimate(hs)
    assert est.ratio_tail == pytest.approx(3.0, rel=1e-12)
    assert est.root_tail == pytest.approx((3.0 ** 12) ** (1 / 12), rel=1e-12)
    assert not est.degenerate


def test_alpha_requires_four_finite_entries():
    with pytest.raises(ValueError):
        arithmetic_degree_estimate([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        arithmetic_degree_estimate([1.0, 2.0, math.inf, math.inf, math.inf])


def test_alpha_degenerate_all_zero():
    est = arithmetic_degree_estimate([0.0] * 8)
    assert est.degenerate
    assert est.root_tail == 1.0 and est.ratio_tail == 1.0


def test_alpha_constant_heights():
    est = arithmetic_degree_estimate([5.0] * 8)
    assert est.ratio_tail == pytest.approx(1.0)
    assert not est.degenerate


def test_alpha_skips_zero_quotients():
    # h_4 = 0 < h_3: the step 3 -> 4 has no logarithm and is skipped
    est = arithmetic_degree_estimate([1.0, 2.0, 4.0, 8.0, 0.0])
    assert est.ratio_tail == pytest.approx(2.0)
    assert est.ratio_steps == (2, 2)
    assert not est.degenerate


def test_ordered_sum_rounds_left_to_right_on_every_interpreter():
    # sum() keeps the 1.0 from Python 3.12 on; the printed OLS fit and
    # alpha estimates must round as on 3.11, where it is lost
    assert degrees.ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert degrees.ordered_sum(iter([0.5, 0.25])) == 0.75
    assert degrees.ordered_sum([]) == 0.0


def _outcome(estimator, hs):
    try:
        return repr(estimator(hs))
    except ValueError as exc:
        return repr(exc)


# Positive heights stay in [1e-6, 1e9], where no quotient of two of them
# underflows to 0 or overflows to inf; heights of integer points are 0 or
# at least log 2.
@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.just(math.inf),
                          st.floats(min_value=1e-6, max_value=1e9)),
                min_size=4, max_size=14))
@example([1.0, 2.0, 4.0, 8.0, 0.0])
@example([0.0, 0.0, 1.0, math.inf, 2.0, 0.0, 3.0])
@example([1.0, math.inf, math.inf, 2.0, 4.0, 8.0, 16.0, math.inf])
@example([5.0, 0.0, 5.0, 0.0, 5.0, 0.0])
def test_alpha_estimate_matches_the_reference_step_rule(hs):
    assert _outcome(arithmetic_degree_estimate, hs) \
        == _outcome(arithmetic_degree_reference, hs)


def test_alpha_rows_shape():
    rows = degrees.alpha_estimate_rows([1.0, 2.0, 4.0, 8.0])
    assert [n for n, _, _ in rows] == [1, 2, 3]
    assert rows[-1][2] == pytest.approx(2.0)
    rows = degrees.alpha_estimate_rows([0.0, 2.0, 4.0])
    assert rows[0][2] is None  # zero denominator is skipped, not divided


# ---------------------------------------------------------------------------
# hyperbolicity advisory


def test_hyperbolicity_advisory_cases():
    r = hyperbolicity_report(3.0, 7.0, 3.0)
    assert not r.hyperbolic and r.advisory is None
    r = hyperbolicity_report(3.0, 2.0, 3.01)
    assert r.hyperbolic and r.alpha_matches_d1
    assert r.advisory is not None and "Zariski dense" in r.advisory
    r = hyperbolicity_report(3.0, 2.0, 1.4)
    assert r.hyperbolic and not r.alpha_matches_d1 and r.advisory is None


# ---------------------------------------------------------------------------
# orbit genericity heuristic


def test_genericity_accepts_multiplicative_orbit():
    pts = [make_point((2 ** n, 3 ** n, 1)) for n in range(13)]
    report = orbit_genericity_heuristic(pts)
    assert report.verdict == "generic-consistent"
    assert report.by_degree[1] == "no containing hypersurface"
    assert report.by_degree[2] == "no containing hypersurface"


def test_genericity_flags_orbit_on_a_conic():
    # (2^n : 4^n : 1) satisfies x1*x2 = x0^2 for every n
    pts = [make_point((2 ** n, 4 ** n, 1)) for n in range(10)]
    report = orbit_genericity_heuristic(pts)
    assert report.verdict == "possibly-contained"
    assert report.by_degree[1] == "no containing hypersurface"
    assert report.by_degree[2] == "possible containment"


def test_genericity_needs_enough_points():
    report = orbit_genericity_heuristic([make_point((1, 2, 3))])
    assert report.verdict == "insufficient"
    report = orbit_genericity_heuristic([])
    assert report.verdict == "insufficient"


def test_rank_certificate_primes_are_prime():
    for p in degrees._RANK_PRIMES:
        assert is_probable_prime(p)
