"""Primality, the F_p census oracles and the univariate polynomial kernels."""

import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitgcd import ffield
from orbitgcd.ffield import (check_prime, distinct_root_count,
                             is_probable_prime, uni_deg, uni_divmod, uni_gcd,
                             uni_interpolate, uni_mul, uni_norm, uni_resultant)
from oracles import normalize_proj, proj_points_fp


# ---------------------------------------------------------------------------
# primality


def test_primality_known_cases():
    assert is_probable_prime(2)
    assert is_probable_prime(1009)
    assert is_probable_prime(2 ** 61 - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael number
    assert not is_probable_prime(3215031751)  # strong pseudoprime to base 2..7
    assert not is_probable_prime(2 ** 61 + 1)


def test_check_prime_enforces_floor():
    assert check_prime(53) == 53
    with pytest.raises(ValueError):
        check_prime(47)  # prime but below the working floor
    with pytest.raises(ValueError):
        check_prime(91)  # composite


# ---------------------------------------------------------------------------
# projective points over F_p


def test_point_census_size_and_distinctness():
    p = 53
    pts = list(proj_points_fp(2, p))
    assert len(pts) == p * p + p + 1
    assert len(set(pts)) == len(pts)
    for pt in pts:
        assert normalize_proj(pt, p) == pt


def test_normalize_scaling_invariance():
    p = 61
    rng = random.Random(5)
    for _ in range(100):
        pt = tuple(rng.randint(0, p - 1) for _ in range(3))
        if all(c == 0 for c in pt):
            pt = (0, 0, 1)
        lam = rng.randint(1, p - 1)
        scaled = tuple(c * lam % p for c in pt)
        assert normalize_proj(pt, p) == normalize_proj(scaled, p)
    assert normalize_proj((0, 0, 0), 61) is None


# ---------------------------------------------------------------------------
# univariate kernels (dense coefficient lists, low degree first)


def test_uni_norm_and_deg():
    assert uni_norm([1, 2, 0, 0]) == [1, 2]
    assert uni_norm([0, 0]) == []
    assert uni_deg([]) == -1
    assert uni_deg([5]) == 0
    assert uni_deg([0, 0, 3]) == 2


def _uni_sub(f, g, p):
    """f - g mod p, normalized."""
    width = max(len(f), len(g))
    return uni_norm([(a - b) % p for a, b in zip(f + [0] * (width - len(f)),
                                                  g + [0] * (width - len(g)))])


def _uni_poly(max_deg, p):
    """A nonzero polynomial mod p of degree at most max_deg; coefficients
    are generic residues or come from a small set, so that cancellations
    are common."""
    coeff = st.sampled_from([0, 1, 2, p - 1, p // 2]) | st.integers(0, p - 1)
    return st.lists(coeff, min_size=1, max_size=max_deg + 1).map(
        uni_norm).filter(bool)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.sampled_from([53, 1009]))
def test_uni_mul_divmod_roundtrip(data, p):
    f = data.draw(_uni_poly(8, p) | st.just([]))
    g = data.draw(_uni_poly(6, p))
    q, r = uni_divmod(f, g, p)
    assert uni_deg(r) < uni_deg(g)
    assert _uni_sub(f, uni_mul(q, g, p), p) == r
    if uni_deg(f) < uni_deg(g):
        assert (q, r) == ([], f)


def test_uni_gcd_oracle_and_conventions():
    p = 1009
    # gcd(x^2 - 1, x^2 - 2x + 1) = x - 1, returned monic
    f = [p - 1, 0, 1]
    g = [1, p - 2, 1]
    assert uni_gcd(f, g, p) == [p - 1, 1]
    assert uni_gcd([], g, p) == [c * pow(g[-1], p - 2, p) % p for c in g]
    assert uni_gcd([], [], p) == []
    # result is monic even when inputs are scaled
    assert uni_gcd([c * 7 % p for c in f], [c * 13 % p for c in g], p) \
        == [p - 1, 1]


def test_distinct_root_count_oracle():
    p = 101
    # (x - 1)^2 (x - 2) x  has 3 distinct roots
    f = [1]
    for root, mult in ((1, 2), (2, 1), (0, 1)):
        for _ in range(mult):
            f = uni_mul(f, [(-root) % p, 1], p)
    assert distinct_root_count(f, p) == 3
    assert distinct_root_count([5], p) == 0
    assert distinct_root_count([], p) == 0
    # x^2 + 1 is squarefree: two roots in the algebraic closure of F_103
    assert distinct_root_count([1, 0, 1], 103) == 2
    # a perfect square collapses to its radical
    assert distinct_root_count(uni_mul([1, 0, 1], [1, 0, 1], 103), 103) == 2


def _sylvester_resultant(f, g, p):
    """Reference resultant via the Sylvester matrix determinant."""
    m, n = uni_deg(f), uni_deg(g)
    assert m >= 0 and n >= 0
    size = m + n
    if size == 0:
        return 1
    rows = []
    fr = list(reversed(f))
    gr = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + fr + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gr + [0] * (size - n - 1 - i))
    det = 1
    mat = [row[:] for row in rows]
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        inv = pow(mat[col][col], p - 2, p)
        det = det * mat[col][col] % p
        for r in range(col + 1, size):
            factor = mat[r][col] * inv % p
            for c in range(col, size):
                mat[r][c] = (mat[r][c] - factor * mat[col][c]) % p
    return det % p


@st.composite
def resultant_operands(draw):
    """(p, f, g) with f, g nonzero: unrelated; with a planted common factor,
    so that a remainder vanishes; or f = q*g + r with deg r <= deg g - 2,
    so that the first remainder drops by more than one degree.  Constant
    operands come from degree-0 draws."""
    p = draw(st.sampled_from([53, 1009]))
    kind = draw(st.sampled_from(["plain", "shared", "drop"]))
    f, g = draw(_uni_poly(6, p)), draw(_uni_poly(6, p))
    if kind == "shared":
        h = draw(_uni_poly(2, p))
        f, g = uni_mul(f, h, p), uni_mul(g, h, p)
    elif kind == "drop":
        g = draw(_uni_poly(5, p).filter(lambda u: uni_deg(u) >= 2))
        r = draw(_uni_poly(uni_deg(g) - 2, p) | st.just([]))
        f = _uni_sub(uni_mul(f, g, p), [(-c) % p for c in r], p)
    if draw(st.booleans()):
        f, g = g, f
    return p, f, g


@settings(max_examples=300, deadline=None)
@given(case=resultant_operands())
def test_uni_resultant_against_sylvester(case):
    p, f, g = case
    assert uni_resultant(f, g, p) == _sylvester_resultant(f, g, p)


def test_uni_resultant_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    p = 1009
    rng = random.Random(31)
    for trial in range(60):
        f = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        g = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
        f.append(rng.randrange(1, p))
        g.append(rng.randrange(1, p))
        shared = trial % 3 == 0
        if shared:
            root = [rng.randrange(p), 1]  # x + r divides both
            f, g = uni_mul(f, root, p), uni_mul(g, root, p)
        fx = sum(c * x ** i for i, c in enumerate(f))
        gx = sum(c * x ** i for i, c in enumerate(g))
        # sympy 1.14 drops the sign (-1)^(deg f * deg g) when deg f < deg g
        # (resultant(x - 3, (x - 5)^3 + 1) gives 7, not -7), so ask it with
        # the higher degree first and apply Res(f, g) = (-1)^(mn) Res(g, f)
        if uni_deg(f) >= uni_deg(g):
            want = int(sympy.resultant(fx, gx, x))
        else:
            sign = (-1) ** (uni_deg(f) * uni_deg(g))
            want = sign * int(sympy.resultant(gx, fx, x))
        assert uni_resultant(f, g, p) == want % p
        if shared:
            assert want % p == 0


def test_uni_resultant_shared_root_vanishes():
    p = 211
    shared = [3, 1]  # x + 3
    f = uni_mul(shared, [1, 1], p)
    g = uni_mul(shared, [2, 5, 1], p)
    assert uni_resultant(f, g, p) == 0


def test_uni_resultant_of_zero_is_zero():
    assert uni_resultant([], [1, 2], 53) == 0
    assert uni_resultant([3], [], 53) == 0


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=9),
       extra=st.integers(0, 3), data=st.data())
def test_uni_interpolate_roundtrip(coeffs, extra, data):
    # the same node count at two primes and at two node sets, so that an
    # interpolation matrix reused for the wrong nodes or prime shows
    for p in (53, 1009):
        want = uni_norm([c % p for c in coeffs])
        n = len(coeffs) + extra
        spread = data.draw(st.lists(st.integers(0, p - 1), min_size=n,
                                    max_size=n, unique=True))
        for nodes in (list(range(n)), spread):
            values = [sum(c * pow(x, k, p) for k, c in enumerate(want)) % p
                      for x in nodes]
            assert uni_interpolate(nodes, values, p) == want


def test_uni_interpolate_rejects_repeated_nodes():
    with pytest.raises(ValueError):
        uni_interpolate([1, 54], [2, 3], 53)


def test_word_primes_are_the_primes_below_2_61_in_order():
    assert ffield.word_prime(0) == ffield.WORD_PRIME == 2 ** 61 - 1
    for i in range(1, 4):
        above, below = ffield.word_prime(i - 1), ffield.word_prime(i)
        assert is_probable_prime(below)
        assert not any(is_probable_prime(n) for n in range(below + 1, above))


@settings(max_examples=200, deadline=None)
@given(arity=st.integers(1, 4), data=st.data())
def test_term_image_against_direct_evaluation(arity, data):
    # the image in x_k at the point, evaluated at t, is the polynomial at
    # the point with x_k = t, mod p; the entry at k is not read
    p = data.draw(st.sampled_from([53, 1009, ffield.WORD_PRIME]))
    k = data.draw(st.integers(0, arity - 1))
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 5)] * arity),
        st.integers(-2 ** 70, 2 ** 70).filter(bool), max_size=6))
    point = data.draw(st.lists(st.integers(-2 ** 64, 2 ** 64),
                               min_size=arity, max_size=arity))
    image = ffield.term_image(terms, point, k, p)
    assert image == uni_norm(list(image)) and all(0 <= c < p for c in image)
    assert len(image) <= max((e[k] + 1 for e in terms), default=0)
    for t in (0, 1, 2, -7, 2 ** 65 + 3):
        at = point[:k] + [t] + point[k + 1:]
        want = sum(c * math.prod(x ** e for x, e in zip(at, exps))
                   for exps, c in terms.items())
        assert sum(c * t ** a for a, c in enumerate(image)) % p == want % p
    point[k] = "not read"
    assert ffield.term_image(terms, point, k, p) == image


@settings(max_examples=200, deadline=None)
@given(count=st.integers(1, 4), data=st.data())
def test_crt_lift_is_the_symmetric_lift(count, data):
    primes = [ffield.word_prime(i) for i in range(count)]
    m = math.prod(primes)
    values = data.draw(st.lists(st.integers(-(m // 2), m // 2), min_size=1,
                                max_size=6))
    values += [-(m // 2), m // 2, -1, 0]
    images = [[v % p for v in values] for p in primes]
    assert ffield.crt_lift(images, primes) == values
    # one residue off at one prime moves that value's lift
    images[-1][0] = (images[-1][0] + 1) % primes[-1]
    assert ffield.crt_lift(images, primes)[0] != values[0]


def test_crt_lift_recovers_the_bound_only_below_the_modulus():
    primes = [53, 1009]
    m = 53 * 1009
    # a modulus just above 2 * bound recovers both signs of the bound
    bound = (m - 1) // 2
    assert 2 * bound < m
    images = [[bound % p, -bound % p] for p in primes]
    assert ffield.crt_lift(images, primes) == [bound, -bound]
    # just below 2 * bound, bound and bound - m share their images, and the
    # lift returns the one in the symmetric range
    bound += 1
    assert 2 * bound > m
    images = [[bound % p, -bound % p] for p in primes]
    assert ffield.crt_lift(images, primes) == [bound - m, m - bound]


def test_ffield_imports_no_package_module_at_run_time():
    # poly imports ffield at module level, and ffield is the prime field
    # alone: it imports no package module, not even for type checking
    source = Path(ffield.__file__).read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
    assert found  # the walk saw the module's own imports
    assert not [m for m in found
                if m.startswith(".") or m.split(".")[0] == "orbitgcd"]
