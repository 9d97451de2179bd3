"""End-to-end acceptance battery.

Eight numbered criteria, each a single test that prints one PASS/FAIL
line past pytest's capture and asserts the same conditions with pinned
tolerances and time limits.
"""

import dataclasses
import math
import random
import time

from orbitgcd import degrees, experiments, heights, poly, polyparse, projgeom
from orbitgcd.degrees import (arithmetic_degree_estimate,
                              monomial_dyn_degrees, topological_degree_ff)
from orbitgcd.experiments import (builtin_scenario, hypothesis_verdict,
                                  render_csv, render_json, run_scenario)
from orbitgcd.heights import height_ratio_series, subscheme_height, weil_height
from orbitgcd.projgeom import make_ideal, make_map, make_point, orbit
from oracles import modes_by_prime


def announce(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print("ACCEPTANCE %d: %s (%s)"
              % (criterion, "PASS" if ok else "FAIL", detail), flush=True)


def ideal(*gens: str, arity: int = 3) -> projgeom.SubschemeIdeal:
    return make_ideal([polyparse.parse(g, arity) for g in gens])


def pmap(*comps: str, arity: int = 3) -> projgeom.RationalMap:
    return make_map([polyparse.parse(c, arity) for c in comps])


COORD_AXES = ideal("x0", "x1")
BACKNONFIN = ("x0^2*x1", "x1^3", "x2^3")


# ---------------------------------------------------------------------------


def test_criterion_1_axis_heights_exact_integer_witnesses(capsys):
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures = []
    for _ in range(1000):
        while True:
            coords = [rng.getrandbits(64) - (1 << 63) for _ in range(3)]
            if coords[0] or coords[1]:
                break
        pt = make_point(coords)
        hv = subscheme_height(COORD_AXES, pt)
        a, b, c = (abs(v) for v in pt.coords)
        if hv.infinite:
            failures.append((coords, "unexpected infinity"))
            continue
        if hv.sup_norm != max(a, b, c):
            failures.append((coords, "sup"))
        if hv.arch_value != max(a, b):
            failures.append((coords, "arch witness"))
        if hv.gcd_value != math.gcd(a, b):
            failures.append((coords, "gcd witness"))
        expected = (math.log(max(a, b, c)) - math.log(max(a, b))
                    + math.log(math.gcd(a, b)))
        if abs(hv.total - expected) > 1e-9 * max(1.0, abs(expected)):
            failures.append((coords, "total"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 1.0
    announce(capsys, 1, ok, "1000 random 64-bit points, exact gcd/max witnesses, "
                    "%.3fs" % elapsed)
    assert not failures, failures[:3]
    assert elapsed < 1.0


def test_criterion_2_orbit_coordinates_and_limit_ratio(capsys):
    t0 = time.perf_counter()
    f = pmap(*BACKNONFIN)
    series = height_ratio_series(f, COORD_AXES, make_point((3, 2, 1)), 12)
    failures = []
    for n, pt in enumerate(series.orbit.points):
        expected = (3 ** (2 ** n) * 2 ** (3 ** n - 2 ** n), 2 ** (3 ** n), 1)
        if pt.coords != expected:
            failures.append("coords at n=%d" % n)
    ratios = [row.ratio for row in series.rows]
    closed = [((3 ** n - 2 ** n) * math.log(2))
              / (2 ** n * math.log(3) + (3 ** n - 2 ** n) * math.log(2))
              for n in range(13)]
    if abs(ratios[12] - closed[12]) > 1e-9:
        failures.append("ratio at n=12 off closed form: %r" % ratios[12])
    if not ratios[12] > 0.98:
        failures.append("ratio at n=12 not above 0.98")
    for n in range(3, 12):
        if not ratios[n + 1] > ratios[n]:
            failures.append("ratio not increasing at n=%d" % n)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    announce(capsys, 2, ok, "exact orbit to n=12, ratio@12=%.12f vs closed form, "
                    "%.3fs" % (ratios[12], elapsed))
    assert not failures, failures
    assert elapsed < 30.0


def test_criterion_3_topological_degrees_by_fiber_counting(capsys):
    t0 = time.perf_counter()
    primes = (1009, 2003, 4001)
    cases = [
        (pmap(*BACKNONFIN), 6),
        (pmap("x0^2*x1", "x1^3 + x0^2*x1 + x0*x2^2", "x2^3"), 7),
        (pmap("x0^2", "x1^2", "x2^2"), 4),
    ]
    failures = []
    modes = []
    for i, (f, want) in enumerate(cases):
        report = topological_degree_ff(f, primes, 20, rng=random.Random(i),
                                       flags=[])
        modes.append(report.mode)
        if report.mode != want:
            failures.append("map %d: mode %r, want %d" % (i, report.mode, want))
        per_prime = modes_by_prime(report)
        if any(per_prime[p] != want for p in primes):
            failures.append("map %d: unstable across primes %r"
                            % (i, per_prime))
        if report.ambiguous or report.degenerate:
            failures.append("map %d: ambiguous/degenerate" % i)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 300.0
    announce(capsys, 3, ok, "fiber-count modes %s over primes %s, %.3fs"
                    % (modes, list(primes), elapsed))
    assert not failures, failures
    assert elapsed < 300.0


def test_criterion_4_monomial_dynamical_degrees(capsys):
    failures = []
    degs = monomial_dyn_degrees([[2, 1], [0, 3]])
    if abs(degs[1] - 3.0) > 1e-9 or abs(degs[2] - 6.0) > 1e-9:
        failures.append("triangular example: %r" % degs[1:])

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    rng = random.Random(404)
    checked = 0
    while checked < 100:
        m = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        d = det3(m)
        if d == 0:
            continue
        out = monomial_dyn_degrees(m)
        if out[3] != float(abs(d)):
            failures.append("matrix %r: top degree %r != |det| %d"
                            % (m, out[3], abs(d)))
        for i in range(1, 3):
            if out[i] ** 2 < out[i - 1] * out[i + 1] * (1 - 1e-9):
                failures.append("matrix %r: log-concavity broken at i=%d"
                                % (m, i))
        checked += 1
    ok = not failures
    announce(capsys, 4, ok, "exponent-matrix degrees: (3,6) example, 100 exact "
                    "determinants, log-concavity")
    assert not failures, failures[:3]


def test_criterion_5_arithmetic_degree_estimates(capsys):
    failures = []
    f = pmap(*BACKNONFIN)
    series = height_ratio_series(f, COORD_AXES, make_point((3, 2, 1)), 12)
    est = arithmetic_degree_estimate([row.h for row in series.rows])
    if abs(est.ratio_tail - 3.0) > 0.05 * 3.0:
        failures.append("tail ratio %r not within 5%% of 3" % est.ratio_tail)

    squaring = pmap("x0^2", "x1^2", "x2^2")
    sq_orbit = orbit(squaring, make_point((2, 1, 1)), 12)
    sq_heights = [weil_height(p) for p in sq_orbit.points]
    sq_est = arithmetic_degree_estimate(sq_heights)
    if abs(sq_est.ratio_tail - 2.0) > 1e-6:
        failures.append("squaring-map estimate %r not 2.0" % sq_est.ratio_tail)
    ok = not failures
    announce(capsys, 5, ok, "tail ratios: %.6f (target 3 within 5%%), %.9f "
                    "(target 2 within 1e-6)"
                    % (est.ratio_tail, sq_est.ratio_tail))
    assert not failures, failures


def test_criterion_6_diagonal_scenario_closed_form(capsys):
    report = run_scenario(builtin_scenario("bcz"), name="bcz", seed=0)
    failures = []
    for row in report.rows:
        if row.n == 0:
            continue
        parts = heights.bcz_exact_parts(2, 3, row.n)
        got = (row.height.sup_norm, row.height.gcd_value,
               row.height.arch_value)
        want = (parts.sup_norm, parts.gcd_value, parts.arch_value)
        if got != want:
            failures.append("witness mismatch at n=%d: %r != %r"
                            % (row.n, got, want))
    if report.closed_form_check \
            != "verified 40 rows against the diagonal-map closed form":
        failures.append("cross-check: %r" % report.closed_form_check)
    if report.trend.verdict != "ratio -> 0":
        failures.append("trend verdict %r" % report.trend.verdict)
    ok = not failures
    announce(capsys, 6, ok, "40 rows integer-exact vs closed form; trend %r"
                    % report.trend.verdict)
    assert not failures, failures[:3]


def test_criterion_7_hypothesis_verdicts(capsys):
    failures = []
    a2 = run_scenario(builtin_scenario("a2"), name="a2", seed=0)
    threshold = math.sqrt(7)
    if not (a2.alpha.ratio_tail > threshold):
        failures.append("alpha estimate %r not above sqrt(7)"
                        % a2.alpha.ratio_tail)
    if a2.hypotheses.verdict != "predicts ratio -> 0":
        failures.append("coupled-cubic verdict %r" % a2.hypotheses.verdict)
    # the decision is exactly the alpha > sqrt(d_top) comparison
    if hypothesis_verdict(threshold, 7.0, True, False, True) \
            != "hypothesis fails: alpha <= sqrt(d_top)":
        failures.append("boundary alpha not rejected")
    if hypothesis_verdict(threshold + 1e-9, 7.0, True, False, True) \
            != "predicts ratio -> 0":
        failures.append("alpha just above threshold not accepted")

    back = run_scenario(builtin_scenario("backnonfin"), name="backnonfin",
                        seed=0)
    if back.hypotheses.verdict \
            != "not applicable: subscheme outside the admissible locus":
        failures.append("backnonfin verdict %r" % back.hypotheses.verdict)
    if back.trend.verdict != "ratio -> 1":
        failures.append("backnonfin trend %r" % back.trend.verdict)
    ok = not failures
    announce(capsys, 7, ok, "a2: alpha=%.6f > sqrt(7) -> %r; backnonfin: %r with "
                    "trend %r" % (a2.alpha.ratio_tail, a2.hypotheses.verdict,
                                  back.hypotheses.verdict, back.trend.verdict))
    assert not failures, failures


def test_criterion_8_randomized_property_battery(capsys):
    t0 = time.perf_counter()
    rng = random.Random(808)
    cases = 0
    failures = []

    def rand_poly(arity, terms, max_exp=3, max_coeff=20):
        p = poly.zero(arity)
        for _ in range(terms):
            exps = tuple(rng.randint(0, max_exp) for _ in range(arity))
            p = poly.add(p, poly.monomial(arity, exps,
                                          rng.randint(-max_coeff, max_coeff)))
        return p

    # ring laws: commutativity, associativity, distributivity
    for _ in range(1500):
        arity = rng.choice((2, 3))
        a, b, c = (rand_poly(arity, rng.randint(1, 4)) for _ in range(3))
        if poly.add(a, b) != poly.add(b, a):
            failures.append("add commutativity")
        cases += 1
        if poly.mul(a, b) != poly.mul(b, a):
            failures.append("mul commutativity")
        cases += 1
        if poly.mul(poly.mul(a, b), c) != poly.mul(a, poly.mul(b, c)):
            failures.append("mul associativity")
        cases += 1
        if poly.mul(a, poly.add(b, c)) \
                != poly.add(poly.mul(a, b), poly.mul(a, c)):
            failures.append("distributivity")
        cases += 1

    # gcd and exact-division round-trips
    for _ in range(500):
        arity = 2
        m = rand_poly(arity, rng.randint(1, 3), max_exp=2, max_coeff=5)
        p = rand_poly(arity, rng.randint(1, 3), max_exp=2, max_coeff=5)
        q = rand_poly(arity, rng.randint(1, 3), max_exp=2, max_coeff=5)
        pm, qm = poly.mul(p, m), poly.mul(q, m)
        if not pm and not qm:
            cases += 2
            continue
        g = poly.gcd_multivar(pm, qm)
        for prod in (pm, qm):
            if not prod:
                cases += 1
                continue
            cof = poly.div_exact(prod, g)
            if cof is None or poly.mul(cof, g) != prod:
                failures.append("gcd round-trip")
            cases += 1

    def rand_homog(arity, degree):
        while True:
            p = poly.zero(arity)
            for _ in range(rng.randint(1, 3)):
                exps = [0] * arity
                for _ in range(degree):
                    exps[rng.randrange(arity)] += 1
                coeff = rng.choice((-1, 1)) * rng.randint(1, 8)
                p = poly.add(p, poly.monomial(arity, tuple(exps), coeff))
            if p:
                return p

    # composition commutes with evaluation, here for forms of one common
    # degree, the substitutions that iterates of projective maps make
    for _ in range(1500):
        inner_arity = rng.choice((2, 3))
        outer_arity = rng.choice((2, 3))
        outer = rand_poly(outer_arity, rng.randint(1, 3), max_exp=2)
        inner_degree = rng.randint(1, 2)
        inners = [rand_homog(inner_arity, inner_degree)
                  for _ in range(outer_arity)]
        pt = [rng.randint(-6, 6) for _ in range(inner_arity)]
        [composed] = poly.compose([outer], inners)
        direct = poly.eval_int(outer, [poly.eval_int(g, pt) for g in inners])
        if poly.eval_int(composed, pt) != direct:
            failures.append("compose/eval")
        cases += 1

    # degree submultiplicativity along computed iterate sequences
    for comps in (BACKNONFIN, ("x1*x2", "x0*x2", "x0*x1"),
                  ("x0^2", "x1^2", "x2^2"),
                  ("x0*x1", "x1^2 + x0*x2", "x2^2")):
        seq = degrees.degree_sequence(pmap(*comps), 5)
        ds = dict(seq.entries)
        for m in ds:
            for n in ds:
                if m + n in ds:
                    if ds[m + n] > ds[m] * ds[n]:
                        failures.append("submultiplicativity %s" % (comps,))
                    cases += 1

    # height values do not depend on the coordinate representative
    ys = [COORD_AXES, ideal("x0 - x2", "x1 + 2*x2"), ideal("x0*x1 - x2^2")]
    for _ in range(2000):
        coords = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(3)]
        if not any(coords):
            coords[0] = 1
        lam = rng.randint(1, 10 ** 3)
        y = rng.choice(ys)
        h1 = subscheme_height(y, make_point(coords))
        h2 = subscheme_height(y, make_point([lam * v for v in coords]))
        same = (h1.infinite == h2.infinite
                and (h1.infinite or (h1.sup_norm == h2.sup_norm
                                     and h1.gcd_value == h2.gcd_value
                                     and h1.arch_value == h2.arch_value)))
        if not same:
            failures.append("representative dependence %r" % (coords,))
        cases += 1

    # report rendering is deterministic for a fixed seed
    for name, n_max in (("bcz", 10), ("backnonfin", 8)):
        cfg = dataclasses.replace(builtin_scenario(name), n_max=n_max)
        r1 = run_scenario(cfg, name=name, seed=5)
        r2 = run_scenario(cfg, name=name, seed=5)
        if render_csv(r1) != render_csv(r2):
            failures.append("csv determinism %s" % name)
        cases += 1
        if render_json(r1) != render_json(r2):
            failures.append("json determinism %s" % name)
        cases += 1

    elapsed = time.perf_counter() - t0
    ok = not failures and cases >= 10 ** 4 and elapsed < 120.0
    announce(capsys, 8, ok, "%d randomized cases, %.1fs" % (cases, elapsed))
    assert not failures, failures[:5]
    assert cases >= 10 ** 4
    assert elapsed < 120.0
