"""Dynamical and arithmetic degree estimation.

Four independent estimators live here:

* algebraic degree sequences deg f^n of reduced iterates (growth rate of
  the first dynamical degree),
* the topological degree as the number of preimages of a random target
  over F_p, counted geometrically: the fiber is cut down to a univariate
  eliminant by a resultant and the distinct roots in an algebraic closure
  are counted via the squarefree part, so the answer is the cardinality
  of the fiber over the algebraic closure of F_p rather than the count of
  F_p-rational preimages (rational counts miss almost all geometric points),
* the exact eigenvalue-product formula for monomial maps, and
* arithmetic-degree estimates from a list of orbit heights.

Randomness (targets, shears) is drawn from a caller-supplied generator so
reports are reproducible from a seed.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import ffield, poly, projgeom
from .ffield import Uni
from .projgeom import ProjPoint, RationalMap

# cap on the raw degree deg(f^n) * deg(f) of the next iterate composition
DEFAULT_DEGREE_BUDGET = 3 ** 6

SHEAR_TRIES = 8  # random shears per fiber-count target before giving up
GENERICITY_MAX_DEGREE = 2  # top hypersurface degree of the genericity check

# Fixed large primes for exact-rank certificates (full rank mod p implies
# full rank over Q).  Primality is asserted in the test suite.
_RANK_PRIMES = (ffield.WORD_PRIME, 1000000000000000009, 999999999999999989)


# ---------------------------------------------------------------------------
# algebraic degree sequence


@dataclass
class DegreeSequence:
    """Degrees of reduced iterates; truncated marks a budget stop, and a
    last entry of degree 0 marks a constant iterate."""
    entries: List[Tuple[int, int]]  # (n, deg f^n)
    truncated: bool

    def with_roots(self) -> List[Tuple[int, int, float]]:
        return [(n, d, d ** (1.0 / n)) for n, d in self.entries]

    def flags(self) -> List[str]:
        """The flags of a budget stop and of a constant iterate."""
        out = []
        if self.truncated:
            out.append("degree sequence truncated by the composition budget")
        n, d = self.entries[-1]
        if d == 0:
            out.append("degree sequence stopped at n=%d: f^n is constant "
                       "(the map is not dominant)" % n)
        return out


def degree_sequence(f: RationalMap, n_max: int,
                    budget: int = DEFAULT_DEGREE_BUDGET) -> DegreeSequence:
    """deg f^n for n = 1..n_max, stopping early when the raw degree of the
    next composition would exceed the budget (prefix is returned, flagged),
    or after the first constant iterate f^n (entry (n, 0)), which cannot
    be composed further."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    entries = [(1, f.degree)]
    current = f
    truncated = False
    for n in range(2, n_max + 1):
        if current.degree == 0:
            break
        if current.degree * f.degree > budget:
            truncated = True
            break
        composed = [poly.compose(c, current.components) for c in f.components]
        current = projgeom.make_map(composed)
        entries.append((n, current.degree))
    return DegreeSequence(entries, truncated)


def d1_estimate(seq: DegreeSequence) -> float:
    """(deg f^n)^{1/n} at the last computed n; when the sequence was cut by
    the budget the ratio of the last two degrees is a better tail proxy."""
    n, d = seq.entries[-1]
    if seq.truncated and len(seq.entries) >= 2:
        return d / seq.entries[-2][1]
    return d ** (1.0 / n)


# ---------------------------------------------------------------------------
# topological degree by geometric fiber counting over F_p


@dataclass
class FiberCountReport:
    histogram: Dict[int, int]
    by_prime: Dict[int, Dict[int, int]]
    modes: List[int]
    mode: Optional[int]
    ambiguous: bool
    degenerate: bool
    failed_samples: int
    samples: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready form; histograms become sorted [count, frequency] pairs."""
        return {"histogram": [[k, v] for k, v in sorted(self.histogram.items())],
                "by_prime": {str(p): [[k, v] for k, v in sorted(h.items())]
                             for p, h in self.by_prime.items()},
                "modes": self.modes, "mode": self.mode,
                "ambiguous": self.ambiguous, "degenerate": self.degenerate,
                "failed_samples": self.failed_samples, "samples": self.samples}


def _chart_terms(fi: poly.TermMap, t: int, f_last: poly.TermMap,
                 prime: int) -> poly.TermMap:
    """Nonzero terms of f_i - t * f_last mod prime, the chart equation for
    target value t; empty when the equation vanishes identically."""
    acc = dict(fi)
    for e, c in f_last.items():
        acc[e] = (acc.get(e, 0) - t * c) % prime
    return {e: c for e, c in acc.items() if c}


def _xy_degree(terms: poly.TermMap) -> int:
    return max(e[0] + e[1] for e in terms)


def _sheared_forms(comps: Sequence[poly.TermMap],
                   shear: Tuple[int, int, int, int],
                   prime: int) -> List[List[List[int]]]:
    """Each poly at z=1, sheared x=al*u+be*v, y=ga*u+de*v, as its u^k
    coefficients (k = 0..d), polynomials in v from v^(d-k) down: c*x^e0*y^e1
    gives c * b_k u^k v^(e0+e1-k) for each t^k coefficient b_k of the
    binary form (al*t + be)^e0 * (ga*t + de)^e1."""
    al, be, ga, de = shear
    d = sum(next(iter(comps[0])))
    forms: Dict[Tuple[int, int], List[int]] = {(0, 0): [1]}
    for e in range(1, d + 1):  # times (al*t + be), or (ga*t + de) on x^0
        for e0 in range(e + 1):
            lo, hi, prev = ((be, al, forms[e0 - 1, e - e0]) if e0 else
                            (de, ga, forms[0, e - 1]))
            forms[e0, e - e0] = ffield.uni_mul(prev, [lo, hi], prime)
    out = []
    for terms in comps:
        coeffs = [[0] * (d - k + 1) for k in range(d + 1)]
        for (e0, e1, _), c in terms.items():
            for k, b in enumerate(forms[e0, e1]):
                coeffs[k][d - e0 - e1] += c * b
        out.append(coeffs)
    return out


def _specialized(forms: Sequence[List[List[int]]], v0: int,
                 prime: int) -> List[Uni]:
    """The _sheared_forms at v=v0 by Horner: each poly's d+1 u-coefficients."""
    out: List[Uni] = []
    for coeffs in forms:
        out.append([])
        for vs in coeffs:
            acc = 0
            for c in vs:
                acc = acc * v0 + c
            out[-1].append(acc % prime)
    return out


def _eliminant(g1: poly.TermMap, g2: poly.TermMap, target_ab: Tuple[int, int],
               sheared: Callable[[int], Sequence[Uni]],
               prime: int) -> Optional[Uni]:
    """Res_u of the sheared chart equations, interpolated in v.

    The chart equations g1, g2 are f_k - t_k * f_2 for the target
    (t_0, t_1) = target_ab.  Specialization is linear in the terms, so
    S(f_k - t_k * f_2)(u, v0) = S(f_k)(u, v0) - t_k * S(f_2)(u, v0) mod p:
    sheared(v0) returns the three S(f_j)(u, v0) of one shear, and the
    caller computes them once per (shear, v0) for all its eliminants.  The
    u-degree of S(g_k) is at most the xy-degree d_k of the chart terms.

    The prime exceeds d^2 + 1 >= d1*d2 + 1 (topological_degree_ff skips
    smaller ones), so the d1*d2 + 1 samples v0 are distinct mod p.
    Returns None when the shear loses a leading coefficient or the
    resultant vanishes identically (shared factor for this target).
    """
    a, b = target_ab
    d1, d2 = _xy_degree(g1), _xy_degree(g2)
    n_samples = d1 * d2 + 1
    ys = []
    for v0 in range(n_samples):
        s0, s1, s2 = sheared(v0)
        h1 = [(x - a * z) % prime for x, z in zip(s0[:d1 + 1], s2)]
        h2 = [(y - b * z) % prime for y, z in zip(s1[:d2 + 1], s2)]
        if not h1[d1] or not h2[d2]:
            return None
        ys.append(ffield.uni_resultant(h1, h2, prime))
    return ffield.uni_interpolate(range(n_samples), ys, prime) or None


def _strip_shared(r: Uni, other: Uni, prime: int) -> Uni:
    """Divide out of r every factor it shares with other."""
    g = ffield.uni_gcd(r, other, prime)
    while ffield.uni_deg(g) > 0:
        r = ffield.uni_divmod(r, g, prime)[0]
        g = ffield.uni_gcd(r, g, prime)
    return r


def _line_count(g1: poly.TermMap, g2: poly.TermMap, f2: poly.TermMap,
                prime: int) -> int:
    """Distinct fiber points on the line z=0, excluding base points.

    g1, g2 are the chart equations f0 - a*f2 and f1 - b*f2 (neither
    empty).  On that locus they reduce to a pair of binary forms; common
    roots where f2 also vanishes are base points of the map and are not
    fiber points.
    """
    l1, l2, phi = (ffield.term_image(t, (0, 1, 0), 0, prime)
                   for t in (g1, g2, f2))
    h = ffield.uni_gcd(l1, l2, prime)  # gcd(0, g) = g, so zeros are safe
    if not h:
        return 0  # both forms vanish on the whole line; degenerate, skip
    base = ffield.uni_gcd(h, phi, prime)
    cnt = ffield.distinct_root_count(h, prime) - ffield.distinct_root_count(base, prime)
    # the point (1:0:0) corresponds to the top coefficient vanishing
    if max(len(l1), len(l2)) <= sum(next(iter(f2))) < len(phi):
        cnt += 1
    return cnt


def geometric_fiber_count(comps: Sequence[poly.TermMap], prime: int,
                          target_ab: Tuple[int, int], rng: random.Random
                          ) -> Optional[int]:
    """#f^{-1}((a:b:1)) over the algebraic closure of F_p, base points excluded.

    comps are the components of f reduced mod p, each a nonempty map from
    exponents to nonzero residues.  Two successful random shears are
    required and the larger count wins (a shear can only undercount, when
    two fiber points collide in v).
    Each shear expands the three components once (_sheared_forms) and
    specializes them once per sample v0; its main and auxiliary eliminants
    are all built from that memo (see _eliminant).  A shear that drops a
    leading coefficient of a chart equation fails at the first sample of
    _eliminant and is skipped.
    Returns None when no shear produced a usable eliminant.
    """
    a, b = target_ab
    g1 = _chart_terms(comps[0], a, comps[2], prime)
    g2 = _chart_terms(comps[1], b, comps[2], prime)
    if not g1 or not g2:
        return None  # target proportional to a component; resample
    if _xy_degree(g1) == 0 or _xy_degree(g2) == 0:
        # a chart equation is a nonzero constant: no affine fiber points
        return _line_count(g1, g2, comps[2], prime)

    counts: List[int] = []
    for _ in range(SHEAR_TRIES):
        al, ga = rng.randrange(1, prime), rng.randrange(prime)
        be, de = rng.randrange(prime), rng.randrange(1, prime)
        if (al * de - be * ga) % prime == 0:
            continue
        forms = _sheared_forms(comps, (al, be, ga, de), prime)
        sheared = functools.lru_cache(maxsize=None)(
            functools.partial(_specialized, forms, prime=prime))
        r = _eliminant(g1, g2, target_ab, sheared, prime)
        if r is None:
            continue
        # factors shared with the eliminants of unrelated targets come from
        # the base locus, not from this fiber; strip them
        stripped = 0
        for _aux in range(4):
            if stripped == 2:
                break
            aa, bb = rng.randrange(prime), rng.randrange(prime)
            a1 = _chart_terms(comps[0], aa, comps[2], prime)
            a2 = _chart_terms(comps[1], bb, comps[2], prime)
            if not a1 or not a2 or _xy_degree(a1) == 0 or _xy_degree(a2) == 0:
                continue
            raux = _eliminant(a1, a2, (aa, bb), sheared, prime)
            if raux is not None:
                r = _strip_shared(r, raux, prime)
                stripped += 1
        counts.append(ffield.distinct_root_count(r, prime))
        if len(counts) == 2:
            break
    if not counts:
        return None
    return max(counts) + _line_count(g1, g2, comps[2], prime)


def topological_degree_ff(f: RationalMap, primes: Sequence[int],
                          targets_per_prime: int, rng: random.Random,
                          flags: List[str]) -> Optional[FiberCountReport]:
    """Histogram of geometric fiber sizes over random targets; the mode
    estimates the topological degree.  None when no prime is usable.

    Targets are drawn from the affine chart (a : b : 1), which covers all
    but a null set of P^2(F_p).  Each trouble appends to flags: a map that
    is not of P^2 is skipped; a prime p is skipped, drawing nothing from
    rng, when it repeats an earlier one, when p <= d^2 + 1 (an eliminant
    interpolates through up to d^2 + 1 points of F_p) or when p divides
    every coefficient of some component; then ties in the histogram (an
    ambiguous mode, all reported) and a degenerate count are flagged.
    Raises ValueError for a number that ffield.check_prime rejects.
    """
    for prime in primes:
        ffield.check_prime(prime)
    if f.arity != 3:
        flags.append("fiber counting skipped: implemented for maps of P^2 "
                     "only")
        return None
    bound = f.degree * f.degree
    by_prime: Dict[int, Dict[int, int]] = {}
    overall: Counter = Counter()
    failed = samples = 0
    for i, prime in enumerate(primes):
        if prime in primes[:i]:
            flags.append("fiber counting skipped prime %d: repeated" % prime)
            continue
        if prime <= bound + 1:
            flags.append("fiber counting skipped prime %d: too small for the "
                         "degree-%d map" % (prime, f.degree))
            continue
        comps = [{e: r for e, c in comp.terms.items() if (r := c % prime)}
                 for comp in f.components]
        wiped = [k for k, c in enumerate(comps) if not c]
        if wiped:
            flags.append("fiber counting skipped prime %d: it divides every "
                         "coefficient of map component %d" % (prime, wiped[0]))
            continue
        hist: Counter = Counter()
        for _ in range(targets_per_prime):
            samples += 1
            count = None
            for _retry in range(3):
                target = (rng.randrange(prime), rng.randrange(prime))
                count = geometric_fiber_count(comps, prime, target, rng)
                if count is not None:
                    break
            if count is None:
                failed += 1
                continue
            if count > bound:
                raise RuntimeError(
                    "fiber count %d exceeds the Bezout bound %d" % (count, bound))
            hist[count] += 1
            overall[count] += 1
        by_prime[prime] = dict(sorted(hist.items()))
    if not by_prime:
        return None
    best = max(overall.values(), default=None)
    modes = sorted(k for k, v in overall.items() if v == best)
    mode = modes[0] if len(modes) == 1 else None
    report = FiberCountReport(histogram=dict(sorted(overall.items())),
                              by_prime=by_prime, modes=modes, mode=mode,
                              ambiguous=len(modes) > 1,
                              degenerate=failed * 2 > samples or mode == 0,
                              failed_samples=failed, samples=samples)
    if report.ambiguous:
        flags.append("fiber-count mode ambiguous: candidates %s"
                     % ", ".join(map(str, modes)))
    if report.degenerate:
        flags.append("fiber counting degenerate (map may fail to be dominant)")
    return report


# ---------------------------------------------------------------------------
# monomial maps


def _char_poly_coeffs(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Exact characteristic polynomial lambda^n + c1 lambda^{n-1} + ... + cn
    by the Faddeev-LeVerrier recursion; every division is exact."""
    a = [list(map(int, row)) for row in matrix]
    n = len(a)
    mk = [row[:] for row in a]
    coeffs = [1, -sum(mk[i][i] for i in range(n))]
    ck = coeffs[1]
    for k in range(2, n + 1):
        b = [row[:] for row in mk]
        for i in range(n):
            b[i][i] += ck
        mk = [[sum(a[i][l] * b[l][j] for l in range(n)) for j in range(n)]
              for i in range(n)]
        t = sum(mk[i][i] for i in range(n))
        if t % k != 0:
            raise AssertionError("Faddeev-LeVerrier trace not divisible")
        ck = -(t // k)
        coeffs.append(ck)
    return coeffs


def monomial_dyn_degrees(matrix: Sequence[Sequence[int]]) -> List[float]:
    """d_0..d_N for the dominant monomial map of integer exponent matrix A:
    the i-th entry is the product of the i largest eigenvalue moduli; d_N
    is float(|det A|) of the exact integer determinant, exact up to 2^53.

    Roots come from numpy's companion-matrix eigenvalues and are
    cross-checked against the exact determinant and trace.  Raises
    ValueError for a matrix that is not square, is empty or singular, or
    whose characteristic polynomial leaves the floating-point range.
    """
    import numpy  # deferred: the only numpy use, and most of the import time

    n = len(matrix)
    if n < 1 or any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square and non-empty")
    coeffs = _char_poly_coeffs(matrix)
    det = abs(coeffs[-1])  # the constant term is (-1)^n det A
    if det == 0:
        raise ValueError("matrix is singular")
    try:
        roots = numpy.roots(numpy.array(coeffs, dtype=float))
    except OverflowError:
        raise ValueError("characteristic polynomial coefficient too large "
                         "for floating point") from None
    moduli = sorted((abs(complex(r)) for r in roots), reverse=True)

    out = [1.0]
    for m in moduli:
        out.append(out[-1] * m)
    if abs(out[-1] - det) > 1e-10 * max(1.0, det):
        raise RuntimeError("eigenvalue moduli disagree with |det| beyond tolerance")
    # the rounding error of the eigenvalue sum scales with the moduli, not
    # with the trace, which cancels to 0 for a zero diagonal
    trace = sum(matrix[i][i] for i in range(n))
    if abs(sum(complex(r) for r in roots).real - trace) > 1e-8 * max(1.0, sum(moduli)):
        raise RuntimeError("eigenvalue sum disagrees with trace beyond tolerance")
    out[-1] = float(det)
    return out


# ---------------------------------------------------------------------------
# arithmetic degree from orbit heights


def ordered_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum, as sum() up to Python 3.11 (not compensated)."""
    return functools.reduce(operator.add, values, 0.0)


@dataclass
class AlphaEstimate:
    root_tail: float
    ratio_tail: float
    root_index: int
    ratio_steps: Tuple[int, int]  # first and last step index used
    degenerate: bool = False


def arithmetic_degree_estimate(heights: Sequence[float]) -> AlphaEstimate:
    """Tail estimates of the arithmetic degree from h(f^n x), n = 0, 1, ...

    root_tail is the root of the last finite h_n in alpha_estimate_rows, and
    ratio_tail the geometric mean of its quotients 0 < h_n/h_{n-1} < inf over
    the last ceil(len/3) steps, or over all steps if the tail has none.
    """
    hs = [float(h) for h in heights]
    finite = [h for h in hs if math.isfinite(h)]
    if len(finite) < 4:
        raise ValueError("need at least 4 finite height entries")
    if all(h == 0.0 for h in hs):
        return AlphaEstimate(1.0, 1.0, len(hs) - 1, (0, 0), degenerate=True)
    rows = alpha_estimate_rows(hs)
    n_last, root_tail, _ = next(r for r in reversed(rows)
                                if math.isfinite(hs[r[0]]))
    # a quotient from an infinite h_{n-1} is 0 or nan, so it never counts
    usable = [(n - 1, step) for n, _, step in rows
              if step is not None and 0 < step < math.inf]
    first = len(hs) - 1 - math.ceil(len(hs) / 3)
    steps = [s for s in usable if s[0] >= first] or usable
    if not steps:
        return AlphaEstimate(root_tail, 1.0, n_last, (0, 0), degenerate=True)
    log_mean = ordered_sum(math.log(s) for _, s in steps) / len(steps)
    return AlphaEstimate(root_tail, math.exp(log_mean), n_last,
                         (steps[0][0], steps[-1][0]))


def alpha_estimate_rows(heights: Sequence[float]) -> List[Tuple[int, float, Optional[float]]]:
    """Per-iterate estimates (n, max(1,h_n)^{1/n}, h_n/h_{n-1})."""
    rows: List[Tuple[int, float, Optional[float]]] = []
    for n in range(1, len(heights)):
        root = max(1.0, heights[n]) ** (1.0 / n)
        step = heights[n] / heights[n - 1] if heights[n - 1] > 0 else None
        rows.append((n, root, step))
    return rows


# ---------------------------------------------------------------------------
# hyperbolicity advisory and orbit genericity heuristic


@dataclass(frozen=True)
class HyperbolicityReport:
    d1: float
    d2: float
    alpha: float
    hyperbolic: bool
    alpha_matches_d1: bool
    advisory: Optional[str]


def hyperbolicity_report(d1: float, d2: float, alpha_est: float) -> HyperbolicityReport:
    """Purely informational: flags d1 > d2 and alpha close to d1 (2% band);
    when both hold the orbit is expected to be Zariski dense."""
    hyperbolic = d1 > d2
    matches = abs(alpha_est - d1) <= 0.02 * max(d1, 1e-12)
    advisory = None
    if hyperbolic and matches:
        advisory = ("orbit expected Zariski dense "
                    "(1-cohomologically hyperbolic and alpha matches d1)")
    return HyperbolicityReport(d1, d2, alpha_est, hyperbolic, matches, advisory)


@dataclass
class GenericityReport:
    verdict: str  # "generic-consistent" | "possibly-contained" | "insufficient"
    detail: str
    by_degree: Dict[int, str] = field(default_factory=dict)


def _monomial_exponents(arity: int, degree: int) -> List[Tuple[int, ...]]:
    if arity == 1:
        return [(degree,)]
    out = []
    for e in range(degree + 1):
        for rest in _monomial_exponents(arity - 1, degree - e):
            out.append((e,) + rest)
    return out


def _rank_mod(rows: List[List[int]], prime: int) -> int:
    m = [[v % prime for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], prime - 2, prime)
        for r in range(rank + 1, len(m)):
            if m[r][col]:
                fac = m[r][col] * inv % prime
                for cc in range(col, cols):
                    m[r][cc] = (m[r][cc] - fac * m[rank][cc]) % prime
        rank += 1
        if rank == len(m):
            break
    return rank


def orbit_genericity_heuristic(points: Sequence[ProjPoint]) -> GenericityReport:
    """Heuristic check that no hypersurface of degree at most
    GENERICITY_MAX_DEGREE contains the computed orbit segment.

    Full column rank of the monomial-evaluation matrix modulo a large
    prime certifies full rank over Q, hence no containing hypersurface of
    that degree.  Rank deficiency modulo several primes is reported as
    possible containment only; it is not a proof.
    """
    if not points:
        return GenericityReport("insufficient", "no orbit points", {})
    arity = points[0].arity
    by_degree: Dict[int, str] = {}
    verdict = "generic-consistent"
    details: List[str] = []
    for d in range(1, GENERICITY_MAX_DEGREE + 1):
        monos = _monomial_exponents(arity, d)
        if len(points) < len(monos):
            by_degree[d] = "insufficient"
            if verdict == "generic-consistent":
                verdict = "insufficient"
            details.append("degree %d: need %d points, have %d"
                           % (d, len(monos), len(points)))
            continue
        certified = False
        for prime in _RANK_PRIMES:
            rows = []
            for pt in points:
                coords = [c % prime for c in pt.coords]
                rows.append([math.prod(pow(c, e, prime) for c, e in zip(coords, exps)) % prime
                             for exps in monos])
            if _rank_mod(rows, prime) == len(monos):
                certified = True
                break
        if certified:
            by_degree[d] = "no containing hypersurface"
        else:
            by_degree[d] = "possible containment"
            verdict = "possibly-contained"
            details.append("degree %d evaluation matrix is rank-deficient "
                           "mod %d primes" % (d, len(_RANK_PRIMES)))
    detail = "; ".join(details) if details else \
        "no hypersurface of degree <= %d contains the orbit segment" % GENERICITY_MAX_DEGREE
    return GenericityReport(verdict, detail, by_degree)


