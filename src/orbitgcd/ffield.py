"""Prime-field arithmetic and polynomial evaluation over F_p.

Supports the fiber-counting estimator: modular reduction of integer
polynomials, iteration over P^2(F_p), and a small univariate toolkit
(division, gcd, derivative, resultant, interpolation) on coefficient
lists stored low degree first.  Primes are validated probabilistically at
construction with error below 2^-64; the primes this package actually
uses are small enough that the check is in fact deterministic.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Sequence, Tuple

from .poly import BigPoly

# Miller-Rabin witnesses proving primality for every n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

MIN_PRIME = 50


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True  # a proves n composite

    if n < _MR_DETERMINISTIC_BOUND:
        return not any(witness(a) for a in _MR_BASES)
    rng = random.Random(n)
    return not any(witness(rng.randrange(2, n - 1)) for _ in range(40))


def check_prime(p: int) -> int:
    if p < MIN_PRIME:
        raise ValueError("prime %d below the minimum %d" % (p, MIN_PRIME))
    if not is_probable_prime(p):
        raise ValueError("%d is not prime" % p)
    return p


# A polynomial reduced mod p: its nonzero (coeff mod p, exponents) terms,
# in increasing exponent order.
Terms = List[Tuple[int, Tuple[int, ...]]]


def reduce_poly(poly_: BigPoly, prime: int) -> Terms:
    check_prime(prime)
    return [(c, exps) for exps, coeff in sorted(poly_.terms.items())
            if (c := coeff % prime)]


def eval_terms(terms: Terms, point: Sequence[int], prime: int) -> int:
    """Value mod prime of the reduced polynomial at an integer point."""
    acc = 0
    for coeff, exps in terms:
        v = coeff
        for x, e in zip(point, exps):
            if e:
                v = v * pow(x, e, prime) % prime
        acc += v
    return acc % prime


def proj_points_fp(N: int, prime: int) -> Iterator[Tuple[int, ...]]:
    """Each point of P^N(F_p) once, normalized to last nonzero coord = 1."""
    check_prime(prime)
    if N != 2:
        raise ValueError("only P^2 is supported")
    for a in range(prime):
        for b in range(prime):
            yield (a, b, 1)
    for a in range(prime):
        yield (a, 1, 0)
    yield (1, 0, 0)


def normalize_proj(vec: Sequence[int], prime: int) -> "Tuple[int, ...] | None":
    """Canonical representative with last nonzero coordinate 1, or None for 0."""
    vals = [v % prime for v in vec]
    for i in range(len(vals) - 1, -1, -1):
        if vals[i]:
            inv = pow(vals[i], prime - 2, prime)
            return tuple(v * inv % prime for v in vals)
    return None


# ---------------------------------------------------------------------------
# univariate toolkit over F_p; polynomials are int lists, low degree first,
# normalized with no trailing zeros (the zero polynomial is the empty list)

Uni = List[int]


def uni_norm(f: Uni) -> Uni:
    while f and f[-1] == 0:
        f.pop()
    return f


def uni_deg(f: Uni) -> int:
    return len(f) - 1  # zero polynomial -> -1


def uni_add(f: Uni, g: Uni, p: int) -> Uni:
    out = [0] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % p
    return uni_norm(out)


def uni_scale(f: Uni, c: int, p: int) -> Uni:
    c %= p
    return uni_norm([a * c % p for a in f])


def uni_mul(f: Uni, g: Uni, p: int) -> Uni:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return uni_norm(out)


def uni_divmod(f: Uni, g: Uni, p: int) -> Tuple[Uni, Uni]:
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    f = list(f)
    dg = uni_deg(g)
    inv = pow(g[-1], p - 2, p)
    q = [0] * max(0, len(f) - dg)
    while uni_deg(f) >= dg:
        k = uni_deg(f) - dg
        c = f[-1] * inv % p
        q[k] = c
        for i, b in enumerate(g):
            f[i + k] = (f[i + k] - c * b) % p
        uni_norm(f)
    return uni_norm(q), f


def uni_gcd(f: Uni, g: Uni, p: int) -> Uni:
    f, g = list(f), list(g)
    while g:
        f, g = g, uni_divmod(f, g, p)[1]
    if f:
        f = uni_scale(f, pow(f[-1], p - 2, p), p)  # monic for determinism
    return f


def uni_deriv(f: Uni, p: int) -> Uni:
    return uni_norm([i * c % p for i, c in enumerate(f)][1:])


def distinct_root_count(f: Uni, p: int) -> int:
    """Distinct roots in an algebraic closure = degree of the squarefree part.

    Valid whenever deg f < p, which the callers guarantee; then f' = 0
    only for constant f and no p-th-power collapse can occur.
    """
    if uni_deg(f) <= 0:
        return 0
    return uni_deg(f) - uni_deg(uni_gcd(f, uni_deriv(f, p), p))


def uni_resultant(f: Uni, g: Uni, p: int) -> int:
    """Res(f, g) mod p via the Euclidean remainder sequence."""
    f, g = list(f), list(g)
    if not f or not g:
        return 0
    res = 1
    while True:
        df, dg = uni_deg(f), uni_deg(g)
        if dg == 0:
            return res * pow(g[0], df, p) % p
        r = uni_divmod(f, g, p)[1]
        if not r:
            return 0
        res = res * pow(-1, df * dg, p) % p
        res = res * pow(g[-1], df - uni_deg(r), p) % p
        f, g = g, r


def uni_interpolate(xs: Sequence[int], ys: Sequence[int], p: int) -> Uni:
    """Newton-form interpolation through distinct nodes xs."""
    n = len(xs)
    dd = [y % p for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            denom = (xs[i] - xs[i - j]) % p
            dd[i] = (dd[i] - dd[i - 1]) * pow(denom, p - 2, p) % p
    out: Uni = []
    for j in range(n - 1, -1, -1):
        out = uni_add(uni_mul(out, [(-xs[j]) % p, 1], p), [dd[j]], p)
    return out
