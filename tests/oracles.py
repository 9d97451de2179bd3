"""Test-only oracles: a brute-force census of P^2(F_p), the F_p-rational
fiber count built on it, the per-prime mode of a fiber-count report, a
printer for the polynomial grammar of orbitgcd.polyparse, and a reference
arithmetic-degree estimator with its own step loop.  The package itself
never calls them."""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from orbitgcd import ffield, poly
from orbitgcd.degrees import AlphaEstimate, FiberCountReport, ordered_sum
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
    want = normalize_proj(target, prime)
    found = 0
    for s in proj_points_fp(2, prime):
        image = normalize_proj([poly.eval_int(c, s) for c in f.components],
                               prime)
        if image is not None and image == want:
            found += 1
    return found


def modes_by_prime(report: FiberCountReport) -> Dict[int, Optional[int]]:
    """The most frequent fiber count at each prime of the report, the
    smallest one on a tie; None at a prime with no count."""
    return {p: min(hist, key=lambda k: (-hist[k], k)) if hist else None
            for p, hist in report.by_prime.items()}


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


def arithmetic_degree_reference(heights: Sequence[float]) -> AlphaEstimate:
    """degrees.arithmetic_degree_estimate with its own step rule: a step
    i -> i+1 counts when 0 < h_i < inf and 0 < h_{i+1} < inf, over the
    last ceil(len/3) steps, or over all steps when none of those counts."""
    hs = [float(h) for h in heights]
    finite = [h for h in hs if math.isfinite(h)]
    if len(finite) < 4:
        raise ValueError("need at least 4 finite height entries")
    if all(h == 0.0 for h in hs):
        return AlphaEstimate(1.0, 1.0, len(hs) - 1, (0, 0), degenerate=True)
    n_last = len(hs) - 1
    while n_last > 0 and not math.isfinite(hs[n_last]):
        n_last -= 1
    root_tail = max(1.0, hs[n_last]) ** (1.0 / n_last)

    window = math.ceil(len(hs) / 3)
    first = max(0, len(hs) - 1 - window)

    def steps_in(lo: int) -> List[Tuple[int, float]]:
        out = []
        for i in range(lo, len(hs) - 1):
            if 0 < hs[i] < math.inf and 0 < hs[i + 1] < math.inf:
                out.append((i, hs[i + 1] / hs[i]))
        return out

    steps = steps_in(first) or steps_in(0)
    if not steps:
        return AlphaEstimate(root_tail, 1.0, n_last, (0, 0), degenerate=True)
    logs = [math.log(s) for _, s in steps]
    log_mean = ordered_sum(logs) / len(logs)
    return AlphaEstimate(root_tail, math.exp(log_mean), n_last,
                         (steps[0][0], steps[-1][0]))
