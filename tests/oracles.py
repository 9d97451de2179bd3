"""Test-only oracles: a brute-force census of P^2(F_p), the F_p-rational
fiber count built on it, and a printer for the polynomial grammar of
orbitgcd.polyparse.  The package itself never calls them."""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from orbitgcd import ffield
from orbitgcd.poly import BigPoly
from orbitgcd.projgeom import RationalMap


def proj_points_fp(N: int, prime: int) -> Iterator[Tuple[int, ...]]:
    """Each point of P^N(F_p) once, normalized to last nonzero coord = 1."""
    ffield.check_prime(prime)
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


def rational_fiber_count(f: RationalMap, prime: int,
                         target: Tuple[int, ...]) -> int:
    """Exhaustive count of F_p-rational preimages of a normalized target.

    A cross-check for degrees.geometric_fiber_count: every rational
    preimage is a geometric one, so this never exceeds the geometric count
    for the same target.  Cost is a scan of all p^2 + p + 1 points; use
    small primes.
    """
    comps = [ffield.reduce_poly(c, prime) for c in f.components]
    want = normalize_proj(target, prime)
    found = 0
    for s in proj_points_fp(2, prime):
        image = normalize_proj(
            [ffield.eval_terms(c, s, prime) for c in comps], prime)
        if image is not None and image == want:
            found += 1
    return found


def format_poly(p: BigPoly) -> str:
    """Render in the polyparse grammar; parse(format_poly(p)) == p."""
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                   reverse=True)
    pieces: List[str] = []
    for exps, coeff in items:
        factors: List[str] = []
        mag = abs(coeff)
        if mag != 1 or not any(exps):
            factors.append(str(mag))
        for i, e in enumerate(exps):
            if e == 1:
                factors.append("x%d" % i)
            elif e > 1:
                factors.append("x%d^%d" % (i, e))
        body = "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
