"""Prime-field arithmetic and polynomial evaluation over F_p.

Supports the fiber-counting estimator: modular reduction and evaluation
of integer polynomials, and a small univariate toolkit (division, gcd,
derivative, resultant, interpolation) on coefficient lists stored low
degree first.  Primes are validated probabilistically at construction
with error below 2^-64; the primes this package actually uses are small
enough that the check is in fact deterministic.
"""

from __future__ import annotations

import functools
import operator
import random
from typing import List, Sequence, Tuple

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


def uni_mul(f: Uni, g: Uni, p: int) -> Uni:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return uni_norm(out)


def _uni_reduce(f: Uni, g: Uni, p: int) -> Uni:
    """Reduce the list f mod g in place (one inverse); return the quotient."""
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(0, len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = f[k + dg] * inv % p
        if c:
            for i in range(dg):
                f[k + i] = (f[k + i] - c * g[i]) % p
    del f[dg:]
    uni_norm(f)
    return uni_norm(q)


def uni_divmod(f: Uni, g: Uni, p: int) -> Tuple[Uni, Uni]:
    if not g:
        raise ZeroDivisionError("univariate division by zero")
    r = list(f)
    return _uni_reduce(r, g, p), r


def uni_gcd(f: Uni, g: Uni, p: int) -> Uni:
    f, g = list(f), list(g)
    while g:
        _uni_reduce(f, g, p)
        f, g = g, f
    inv = pow(f[-1], -1, p) if f else 0
    return [c * inv % p for c in f]  # monic for determinism


def distinct_root_count(f: Uni, p: int) -> int:
    """Distinct roots in an algebraic closure = degree of the squarefree part.

    Valid whenever deg f < p, which the callers guarantee; then f' has
    degree deg f - 1 and no p-th-power collapse can occur.
    """
    if uni_deg(f) <= 0:
        return 0
    deriv = [i * c % p for i, c in enumerate(f)][1:]
    return uni_deg(f) - uni_deg(uni_gcd(f, deriv, p))


def uni_resultant(f: Uni, g: Uni, p: int) -> int:
    """Res(f, g) mod p via the Euclidean remainder sequence, each remainder
    computed in place: Res(f, g) = (-1)^(df*dg) lc(g)^(df-dr) Res(g, f % g)."""
    if not f or not g:
        return 0
    f, g = list(f), list(g)
    res = 1
    while len(g) > 1:
        df, dg = len(f) - 1, len(g) - 1
        _uni_reduce(f, g, p)
        if not f:
            return 0
        if df & dg & 1:
            res = -res
        res = res * pow(g[-1], df - len(f) + 1, p) % p
        f, g = g, f
    return res * pow(g[0], len(f) - 1, p) % p


@functools.lru_cache(maxsize=64)
def _inverse_vandermonde(xs: Tuple[int, ...], p: int) -> Tuple[Tuple[int, ...], ...]:
    """Rows of the inverse Vandermonde matrix of the nodes xs mod p: row k
    holds the t^k coefficients of the Lagrange basis polynomials.  Raises
    ValueError for nodes that repeat mod p."""
    master = [1]  # prod (t - x) over all nodes
    for x in xs:
        master = [(a - x * b) % p for a, b in zip([0] + master, master + [0])]
    cols = []
    for x in xs:
        q = uni_divmod(master, [-x % p, 1], p)[0]  # master / (t - x)
        inv = pow(sum(c * pow(x, k, p) for k, c in enumerate(q)), -1, p)
        cols.append([c * inv % p for c in q])
    return tuple(zip(*cols))


def uni_interpolate(xs: Sequence[int], ys: Sequence[int], p: int) -> Uni:
    """The polynomial of degree < len(xs) through the points (xs, ys), as
    the inverse Vandermonde matrix of the distinct nodes xs times ys."""
    rows = _inverse_vandermonde(tuple(xs), p)
    return uni_norm([sum(map(operator.mul, row, ys)) % p for row in rows])
