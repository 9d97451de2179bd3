"""Projective points, rational maps, orbits."""

import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbitgcd import elimination, polyparse, projgeom
from orbitgcd.elimination import resultant
from orbitgcd.ffield import WORD_PRIME
from orbitgcd.poly import BigPoly, compose, degree, eval_int, gcd_multivar
from orbitgcd.projgeom import (OrbitResult, make_ideal, make_map, make_point,
                               orbit)


def pmap(*comps: str, arity: int = 3) -> projgeom.RationalMap:
    return make_map([polyparse.parse(c, arity) for c in comps])


# ---------------------------------------------------------------------------
# points


def test_make_point_normalizes():
    assert make_point((2, 4, 6)).coords == (1, 2, 3)
    assert make_point((-2, 4, 6)).coords == (1, -2, -3)
    assert make_point((0, -5, 10)).coords == (0, 1, -2)
    assert make_point((7,) * 3).coords == (1, 1, 1)


def test_make_point_rejects_degenerate():
    with pytest.raises(ValueError):
        make_point((0, 0, 0))
    with pytest.raises(ValueError):
        make_point((5,))


@settings(max_examples=80)
@given(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=2, max_size=4),
       st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_point_representative_independence(coords, lam, extra):
    if all(c == 0 for c in coords):
        coords[0] = 1
    a = make_point(coords)
    scaled = [lam * c for c in coords]
    b = make_point(scaled)
    assert a == b
    # any support with every prime of the common factor gives the same point
    assert make_point(scaled, math.gcd(*scaled) * extra) == a
    assert math.gcd(*a.coords) == 1
    first = next(c for c in a.coords if c != 0)
    assert first > 0


def test_point_str():
    assert str(make_point((3, 2, 1))) == "(3 : 2 : 1)"


# ---------------------------------------------------------------------------
# maps


def test_make_map_validates():
    with pytest.raises(ValueError):
        pmap("x0^2", "x1", "x2")  # unequal degrees
    with pytest.raises(ValueError):
        pmap("x0 + 1", "x1", "x2")  # inhomogeneous
    with pytest.raises(ValueError):
        make_map([polyparse.parse("0", 3)] * 3)  # all zero


def test_make_map_reduces_common_factor():
    f = pmap("x0^2*x1", "x0*x1^2", "x0*x1*x2")
    assert f.degree == 1
    got = {tuple(sorted(c.terms.items())) for c in f.components}
    expected = {tuple(sorted(polyparse.parse(s, 3).terms.items()))
                for s in ("x0", "x1", "x2")}
    assert got == expected


def test_map_components_are_coprime_after_reduction():
    f = pmap("2*x0^2", "4*x0*x1", "6*x1^2")
    g = f.components[0]
    for c in f.components[1:]:
        g = gcd_multivar(g, c)
    assert degree(g) == 0


def test_apply_and_base_locus():
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    step = orbit(f, make_point((3, 2, 1)), 1)
    assert step.points[1].coords == (9 * 2, 8, 1)
    # (1:0:0) is an indeterminacy point
    assert orbit(f, make_point((1, 0, 0)), 1).indeterminate_at == 0


def test_iterate_map_degrees():
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    f2 = make_map(compose(f.components, f.components))
    assert f2.degree == 9
    # the reduced f o f evaluates like two steps of f
    x = make_point((3, 2, 1))
    assert orbit(f2, x, 1).points[1] == orbit(f, x, 2).points[2]


# ---------------------------------------------------------------------------
# orbits


def test_orbit_closed_form_coordinates():
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    res = orbit(f, make_point((3, 2, 1)), 6)
    assert len(res.points) == 7
    assert res.indeterminate_at is None and not res.periodic
    for n, pt in enumerate(res.points):
        expected = (3 ** (2 ** n) * 2 ** (3 ** n - 2 ** n), 2 ** (3 ** n), 1)
        assert pt.coords == expected


def test_orbit_detects_fixed_point():
    f = pmap("x0^2", "x1^2", "x2^2")
    res = orbit(f, make_point((1, 1, 1)), 10)
    assert res.periodic
    assert res.period_start == 0
    assert len(res.points) == 1


def test_orbit_detects_cycle():
    # (x : y) -> (y : x) swaps, so any non-fixed start has period 2
    f = pmap("x1", "x0", arity=2)
    res = orbit(f, make_point((2, 1)), 10)
    assert res.periodic
    assert res.period_start == 0
    assert len(res.points) == 2


def test_orbit_starting_in_base_locus_is_empty():
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    res = orbit(f, make_point((1, 0, 0)), 5)
    assert res.points == []
    assert res.indeterminate_at == 0


def test_orbit_hitting_base_locus_truncates():
    # (x0*x1 : x1^2 : x0*x2) sends (1 : 0 : 1) to the base point (0 : 0 : 1)
    f = pmap("x0*x1", "x1^2", "x0*x2")
    res = orbit(f, make_point((1, 0, 1)), 5)
    assert res.points == [make_point((1, 0, 1))]
    assert res.indeterminate_at == 1


def test_orbit_last_point_in_base_locus_is_not_emitted():
    # (0:1:1) maps to (1:0:0), where every component vanishes
    f = pmap("x1^2", "x0*x2", "x0*x1")
    res = orbit(f, make_point((0, 1, 1)), 1)
    assert res.points == [make_point((0, 1, 1))]
    assert res.indeterminate_at == 1


def test_orbit_last_point_with_all_residues_zero_is_emitted():
    # the values P, 2P, 2P^2 are all 0 mod P but none is 0
    P = WORD_PRIME
    f = pmap("x0*x2", "x1*x2", "x0*x1")
    x = make_point((P, 2 * P, 1))
    res = orbit(f, x, 0)
    assert res.points == [x]
    assert res.indeterminate_at is None


def test_orbit_evaluates_each_point_at_its_residues_first(monkeypatch):
    # eval_int sees each point's residues mod P until a component is
    # nonzero there, its exact coordinates only when every one is 0, and
    # then, unless it is the last point, its exact coordinates once per
    # component for the image
    evaluated = []
    eval_int = projgeom.poly.eval_int
    monkeypatch.setattr(projgeom.poly, "eval_int", lambda p, pt: (
        evaluated.append(tuple(pt)) or eval_int(p, pt)))
    P = WORD_PRIME
    f = pmap("x0^2*x1", "x1^3", "x2^3")
    res = orbit(f, make_point((3, 2, 1)), 6)
    assert len(res.points) == 7
    residues = [tuple(c % P for c in pt.coords) for pt in res.points]
    assert residues[-1] != res.points[-1].coords  # larger than P
    expected = []
    for pt, r in zip(res.points[:-1], residues):
        expected += [r] + [pt.coords] * 3  # f_0 is nonzero mod P
    assert evaluated == expected + [residues[-1]]
    # (P : 2P : 1) has values P, 2P, 2P^2, all 0 mod P but none 0; its
    # image (1 : 2 : 2P) is nonzero mod P only at f_2 = x0*x1
    evaluated.clear()
    res = orbit(pmap("x0*x2", "x1*x2", "x0*x1"), make_point((P, 2 * P, 1)), 1)
    assert res.points == [make_point((P, 2 * P, 1)), make_point((1, 2, 2 * P))]
    assert evaluated == ([(0, 0, 1)] * 3 + [(P, 2 * P, 1)] * 4
                         + [(1, 2, 0)] * 3)


_RESIDUE_MAPS = [("x1^2", "x0*x2", "x0*x1"), ("x0*x2", "x1*x2", "x0*x1"),
                 ("x0^2*x1 - 3*x2^3", "x1^3 + 5*x0*x1*x2", "x2^3")]


@settings(max_examples=100, deadline=None)
@given(comps=st.sampled_from(_RESIDUE_MAPS),
       coords=st.lists(st.integers(-2, 2)
                       | st.integers(-3, 3).map(lambda k: k * WORD_PRIME)
                       | st.integers(-2 ** 80, 2 ** 80),
                       min_size=3, max_size=3))
@example(comps=_RESIDUE_MAPS[0], coords=[1, 0, 0])  # a base point
@example(comps=_RESIDUE_MAPS[1], coords=[WORD_PRIME, 2 * WORD_PRIME, 1])
def test_last_point_residue_test_agrees_with_exact_evaluation(comps, coords):
    f = pmap(*comps)
    exact = [eval_int(c, coords) for c in f.components]
    residues = [x % WORD_PRIME for x in coords]
    assert [eval_int(c, residues) % WORD_PRIME for c in f.components] \
        == [v % WORD_PRIME for v in exact]
    assert projgeom._in_base_locus(f, tuple(coords)) \
        == all(v == 0 for v in exact)


def _reference_orbit(f, x0, n_max):
    """orbit with every point, the last one included, evaluated exactly."""
    result = OrbitResult()
    seen = {}
    current = x0
    for n in range(n_max + 1):
        if current.coords in seen:
            result.periodic = True
            result.period_start = seen[current.coords]
            break
        values = [eval_int(c, current.coords) for c in f.components]
        if all(v == 0 for v in values):
            result.indeterminate_at = n
            break
        seen[current.coords] = n
        result.points.append(current)
        if n == n_max:
            break
        current = make_point(values)
    return result


_QUADRATIC = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]
# small coordinates and multiples of the screening prime, so that starts
# congruent to a planted base point mod P exercise the exact fallback
_COORD = st.one_of(st.integers(-3, 3),
                   st.integers(-3, 3).map(lambda k: k * WORD_PRIME))


@settings(max_examples=150, deadline=None)
@given(q=st.lists(_COORD, min_size=3, max_size=3),
       coeffs=st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                       min_size=3, max_size=3),
       start=st.sampled_from(["free", "planted", "planted mod P"]),
       free=st.lists(_COORD, min_size=3, max_size=3),
       shift=st.lists(st.integers(-2, 2), min_size=3, max_size=3),
       n_max=st.integers(0, 3))
# x0*x2, x1*x2, x0*x1 (planted at (1 : 0 : 0)) from (P : 2P : 1), whose
# values all vanish mod P, to the 2-cycle with (1 : 2 : 2P)
@example(q=[1, 0, 0], coeffs=[[0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0],
                              [0, 0, 0, 0, 1, 0]],
         start="free", free=[WORD_PRIME, 2 * WORD_PRIME, 1], shift=[0, 0, 0],
         n_max=3)
def test_orbit_matches_exact_evaluation_at_every_point(q, coeffs, start, free,
                                                       shift, n_max):
    assume(any(q))
    # c_i = q_k^2 g_i - g_i(q) x_k^2 vanishes at the planted point q
    k = next(i for i, c in enumerate(q) if c)
    square = tuple(2 if i == k else 0 for i in range(3))
    comps = []
    for row in coeffs:
        g = BigPoly(3, {e: c for e, c in zip(_QUADRATIC, row) if c})
        terms = {e: q[k] ** 2 * c for e, c in g.terms.items()}
        terms[square] = terms.get(square, 0) - eval_int(g, q)
        comps.append(BigPoly(3, {e: c for e, c in terms.items() if c}))
    assume(any(c.terms for c in comps))
    f = make_map(comps)
    if start == "planted":
        raw = q
    elif start == "planted mod P":
        raw = [a + WORD_PRIME * t for a, t in zip(q, shift)]
    else:
        raw = free
    assume(any(raw))
    x0 = make_point(raw)
    assert orbit(f, x0, n_max) == _reference_orbit(f, x0, n_max)


def test_certificate_skips_pairs_without_the_variable():
    # f_1 = x1^2 and f_2 = x2^2 have no x0, so Res_{x0}(f_1, f_2) is the
    # empty determinant 1; as a certificate it would claim g = 1 at
    # (1:2:2), where the values (4, 4, 4) have g = 4
    f = pmap("4*x0^2", "x1^2", "x2^2")
    assert resultant(f.components[1], f.components[2], 0).terms == {(0, 0, 0): 1}
    cert = elimination.divisor_certificate(f.components)
    assert cert == tuple((c, polyparse.parse(s, 3))
                         for c, s in ((1, "x1"), (1, "x2"), (16, "x0")))
    x = make_point((1, 2, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projgeom, "CERTIFICATE_MIN_BITS", 0)
        assert orbit(f, x, 1).points == [x, make_point((1, 1, 1))]
    assert elimination.certified_support(cert, x.coords) == 2


def test_certificate_is_empty_off_p2_and_without_small_forms():
    assert elimination.divisor_certificate(
        pmap("x0^2", "x1^2", arity=2).components) == ()
    # every pair of this quadratic map meets in points with distinct
    # projections, so each squarefree part has degree 4 >= 2
    assert elimination.divisor_certificate(
        pmap("x0^2 + x1*x2", "x1^2 - x0*x2", "x2^2 + x0*x1").components) == ()


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([2, 3]), data=st.data(),
       planted=st.tuples(st.integers(1, 4), st.integers(-4, 4).filter(bool),
                         st.integers(-4, 4).filter(bool)),
       moduli=st.lists(st.sampled_from([2, 3, 5, 7]), min_size=1, max_size=3),
       n_max=st.integers(1, 4))
def test_certified_orbit_matches_the_gcd_fold(d, data, planted, moduli, n_max):
    # f_2 = c*l^d with l = beta*x1 - alpha*x2 free of x0, so Res_{x0}(f_i, f_2)
    # is a power of c*l^d and l is a certificate form of degree 1 < d; f_0
    # and f_1 vanish at the planted base point P = (a : alpha : beta) on
    # l = 0, and the start is congruent to P mod m, so m divides g
    a, alpha, beta = planted
    monos = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    coeffs = st.lists(st.integers(-3, 3), min_size=len(monos),
                      max_size=len(monos))
    comps = []
    for _ in range(2):
        g = BigPoly(3, dict(zip(monos, data.draw(coeffs))))
        terms = {e: a ** d * c for e, c in g.terms.items()}
        top = (d, 0, 0)
        terms[top] = terms.get(top, 0) - eval_int(g, planted)
        comps.append(BigPoly(3, terms))
    line = BigPoly(3, {(0, 1, 0): beta, (0, 0, 1): -alpha})
    power = BigPoly(3, {(0, 0, 0): data.draw(st.integers(1, 6))})
    for _ in range(d):
        power = power * line
    comps.append(power)
    f = make_map(comps)
    assume(f.degree == d and elimination.divisor_certificate(f.components))
    m = math.prod(moduli)
    shift = data.draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
    raw = [p + m * t for p, t in zip(planted, shift)]
    assume(math.gcd(*raw) == 1)
    x0 = make_point(raw)
    values = [eval_int(c, x0.coords) for c in f.components]
    assert all(v % m == 0 for v in values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projgeom, "CERTIFICATE_MIN_BITS", 0)
        assert orbit(f, x0, n_max) == _reference_orbit(f, x0, n_max)


def test_orbit_arity_mismatch():
    f = pmap("x1", "x0", arity=2)
    with pytest.raises(ValueError):
        orbit(f, make_point((1, 2, 3)), 3)


def test_orbit_points_are_primitive():
    f = pmap("x0^2*x1", "x1^3 + x0^2*x1 + x0*x2^2", "x2^3")
    res = orbit(f, make_point((2, 3, 1)), 6)
    assert len(res.points) == 7
    for pt in res.points:
        assert math.gcd(*pt.coords) == 1
        assert next(c for c in pt.coords if c) > 0


# ---------------------------------------------------------------------------
# ideals


def test_make_ideal_validates():
    make_ideal([polyparse.parse("x0", 3), polyparse.parse("x1^2 - x2^2", 3)])
    with pytest.raises(ValueError):
        make_ideal([])
    with pytest.raises(ValueError):
        make_ideal([polyparse.parse("x0 + 1", 2)])  # inhomogeneous
    with pytest.raises(ValueError):
        make_ideal([polyparse.parse("7", 2)])  # degree 0
    with pytest.raises(ValueError):
        make_ideal([polyparse.parse("0", 2)])
