"""Scenario orchestration: configuration, built-in experiments, reports.

A scenario bundles a self-map of projective space, a subscheme, a start
point and sampling parameters.  run_scenario computes the orbit, the
height columns, degree and arithmetic-degree estimates, a trend call for
the ratio h_Y/h, and a hypothesis check, and returns everything in one
report object that the renderers turn into CSV, JSON or a text summary.

Anything that makes the numbers less trustworthy (orbit truncation,
budget stops, degenerate estimates, failed cross-checks) lands in
report.flags; purely informational notes land in report.advisories.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import degrees, ffield, heights, polyparse, projgeom
from .degrees import AlphaEstimate, DegreeSequence, FiberCountReport
from .heights import HeightRow
from .poly import BigPoly
from .projgeom import ProjPoint, RationalMap, SubschemeIdeal

CSV_HEADER = "n,bits,h,hY_arch,hY_gcd,hY_total,ratio"

# trend bands for the median of the tail ratios
TREND_LOW = 0.25
TREND_HIGH = 0.75


class ConfigError(ValueError):
    """Bad scenario configuration; message names the offending field."""


def _need_int(name: str, value: Any, low: Optional[int] = None) -> None:
    """Raise ConfigError unless value is an integer (not a bool) >= low."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        raise ConfigError("%s: need an integer%s"
                          % (name, "" if low is None else " >= %d" % low))


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario description; construction checks every field's type and
    range, and build_scenario checks what needs parsing.

    map is a semicolon-separated list of homogeneous components; ideal is
    a list of homogeneous generators cutting out the subscheme whose
    height is tracked along the orbit.
    """
    arity: int
    map: str
    ideal: Tuple[str, ...]
    start: Tuple[int, ...]
    n_max: int
    primes: Tuple[int, ...] = ()
    targets_per_prime: int = 0
    composition_cap: int = degrees.DEFAULT_DEGREE_BUDGET
    metadata: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _need_int("arity", self.arity, 2)
        if not isinstance(self.map, str) or not self.map.strip():
            raise ConfigError("map: need a non-empty string of components")
        parts = self.map.split(";")
        if len(parts) != self.arity:
            raise ConfigError("map: expected %d ';'-separated components, got %d"
                              % (self.arity, len(parts)))
        if any(not p.strip() for p in parts):
            raise ConfigError("map: empty component")
        for name, items in (("ideal", "strings"), ("start", "integers"),
                            ("primes", "integers")):
            if not isinstance(getattr(self, name), (list, tuple)):
                raise ConfigError("%s: need a list of %s" % (name, items))
        if not self.ideal:
            raise ConfigError("ideal: need at least one generator")
        if any(not isinstance(g, str) or not g.strip() for g in self.ideal):
            raise ConfigError("ideal: generators must be non-empty strings")
        if len(self.start) != self.arity:
            raise ConfigError("start: expected %d coordinates, got %d"
                              % (self.arity, len(self.start)))
        for c in self.start:
            _need_int("start", c)
        if all(c == 0 for c in self.start):
            raise ConfigError("start: coordinates must not all be zero")
        _need_int("n_max", self.n_max, 0)
        for p in self.primes:
            _need_int("primes", p)
        _need_int("targets_per_prime", self.targets_per_prime, 0)
        _need_int("composition_cap", self.composition_cap, 1)
        if not isinstance(self.metadata, Mapping) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in self.metadata.items()):
            raise ConfigError("metadata: need an object of string values")

    def to_dict(self) -> Dict[str, Any]:
        """The fields as JSON values, which config_from_dict reads back."""
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}


def config_from_dict(data: Mapping[str, Any]) -> ScenarioConfig:
    """Build a config from parsed JSON, rejecting unknown and missing keys;
    ScenarioConfig checks the values."""
    fields = dataclasses.fields(ScenarioConfig)
    known = {f.name for f in fields}
    for key in data:
        if key not in known:
            raise ConfigError("unknown config key %r" % key)
    for f in fields:
        if (f.name not in data and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ConfigError("missing config key %r" % f.name)
    return ScenarioConfig(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in data.items()})


def load_config_file(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config file %s: %s" % (path, exc)) from None
    if not isinstance(data, dict):
        raise ConfigError("config file %s: top level must be an object" % path)
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# built-in scenarios

BUILTIN_NAMES = ("backnonfin", "a2", "bcz", "diag")


def builtin_scenario(name: str, a: int = 2, b: int = 3) -> ScenarioConfig:
    """Named ready-made configurations.

    backnonfin: a map whose subscheme sits badly for the gcd-height
    convergence statement; the ratio climbs toward 1 instead of dropping.
    a2: a map of the same first degree whose second component couples the
    coordinates; the gcd column stays at 1 and the ratio at 0.
    bcz / diag: the diagonal morphism (a*x : b*y : z) through (1:1:1),
    where the gcd column is literally log gcd(a^n - 1, b^n - 1).
    """
    if name == "backnonfin":
        return ScenarioConfig(
            arity=3,
            map="x0^2*x1; x1^3; x2^3",
            ideal=("x0", "x1"),
            start=(3, 2, 1),
            n_max=12,
            primes=(1009, 2003, 4001),
            targets_per_prime=20,
            composition_cap=729,
            metadata={"Y in X_f^back": "no", "orbit generic": "asserted"})
    if name == "a2":
        return ScenarioConfig(
            arity=3,
            map="x0^2*x1; x1^3 + x0^2*x1 + x0*x2^2; x2^3",
            ideal=("x0", "x1"),
            start=(2, 3, 1),
            n_max=10,
            primes=(1009, 2003, 4001),
            targets_per_prime=20,
            composition_cap=81,
            metadata={"Y in X_f^back": "yes", "orbit generic": "asserted"})
    if name in ("bcz", "diag"):
        if a < 2 or b < 2:
            raise ConfigError("diag: parameters a, b must be >= 2")
        return ScenarioConfig(
            arity=3,
            map="%d*x0; %d*x1; x2" % (a, b),
            ideal=("x0 - x2", "x1 - x2"),
            start=(1, 1, 1),
            n_max=40,
            primes=(1009,),
            targets_per_prime=8,
            composition_cap=81,
            metadata={"Y in X_f^back": "yes", "morphism": "yes",
                      "orbit generic": "asserted",
                      "closed_form": "diagonal", "a": str(a), "b": str(b)})
    raise ConfigError("unknown builtin scenario %r (choose from %s)"
                      % (name, ", ".join(BUILTIN_NAMES)))


# ---------------------------------------------------------------------------
# building the geometric objects from a config


def _parse_labelled(label: str, texts: Sequence[str], arity: int,
                    make: Callable[[List[BigPoly]], Any]) -> Any:
    """make applied to the parsed texts; raises ConfigError labelled
    label[i] for a text that does not parse, and label for polynomials
    that make rejects."""
    polys = []
    for i, text in enumerate(texts):
        try:
            polys.append(polyparse.parse(text, arity))
        except polyparse.PolyParseError as exc:
            raise ConfigError("%s[%d]: %s" % (label, i, exc)) from None
    try:
        return make(polys)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (label, exc)) from None


def parse_map(text: str, arity: int) -> RationalMap:
    """The reduced map whose ';'-separated components text gives.

    Raises ConfigError labelled map[i] for a component that does not
    parse, and map for components that do not form a map.
    """
    return _parse_labelled("map", text.split(";"), arity, projgeom.make_map)


def build_scenario(config: ScenarioConfig) -> Tuple[RationalMap, SubschemeIdeal, ProjPoint]:
    """Parse and validate the map, ideal and start point.

    Raises ConfigError with the offending field for anything wrong at the
    semantic level (inhomogeneous components, zero map, bad primes, ...).
    """
    f = parse_map(config.map, config.arity)
    ideal = _parse_labelled("ideal", config.ideal, config.arity,
                            projgeom.make_ideal)
    try:
        x0 = projgeom.make_point(config.start)
    except ValueError as exc:
        raise ConfigError("start: %s" % exc) from None

    for i, p in enumerate(config.primes):
        try:
            ffield.check_prime(p)
        except ValueError as exc:
            raise ConfigError("primes[%d]: %s" % (i, exc)) from None
    return f, ideal, x0


# ---------------------------------------------------------------------------
# report structures


@dataclass
class TrendReport:
    usable_ratios: int
    window: Optional[Tuple[int, int]]  # first and last n in the tail window
    tail_count: int
    median_tail: Optional[float]
    verdict: str  # "ratio -> 0" | "ratio -> 1" | "inconclusive"
    ols_slope: Optional[float] = None
    ols_intercept: Optional[float] = None


@dataclass
class HypothesisReport:
    alpha: Optional[float]
    d_top: Optional[float]
    back_contained: Optional[bool]
    is_morphism: bool
    orbit_generic: bool
    verdict: str


@dataclass
class ScenarioReport:
    name: str
    seed: int
    config: ScenarioConfig
    rows: List[HeightRow]
    orbit: projgeom.OrbitResult
    degree_seq: DegreeSequence
    d1: float
    fiber: Optional[FiberCountReport]
    alpha: Optional[AlphaEstimate]
    trend: TrendReport
    hypotheses: HypothesisReport
    hyperbolicity: Optional[degrees.HyperbolicityReport]
    genericity: Optional[degrees.GenericityReport]
    closed_form_check: Optional[str]
    advisories: List[str] = field(default_factory=list)
    flags: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# analysis helpers


def classify_trend(rows: Sequence[HeightRow]) -> TrendReport:
    """Call the limiting behavior of h_Y/h from the tail of the series.

    The call is the median of the last ceil(u/3) usable ratios (u of
    them in total): at most TREND_LOW means the ratio is heading to 0, at
    least TREND_HIGH means it is heading to 1.  A least-squares line of
    ratio against 1/log(h) over the same window is attached as a
    diagnostic; its extrapolated intercept is noisy and never decides.
    """
    usable = [(r.n, r.h, r.ratio) for r in rows if r.ratio is not None]
    if len(usable) < 4:
        return TrendReport(usable_ratios=len(usable), window=None, tail_count=0,
                           median_tail=None, verdict="inconclusive")
    k = math.ceil(len(usable) / 3)
    tail = usable[-k:]
    med = statistics.median(r for _, _, r in tail)
    if med <= TREND_LOW:
        verdict = "ratio -> 0"
    elif med >= TREND_HIGH:
        verdict = "ratio -> 1"
    else:
        verdict = "inconclusive"

    pts = [(1.0 / math.log(h), r) for _, h, r in tail if h > 1.0]
    slope = intercept = None
    if len(pts) >= 2:
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        xbar = degrees.ordered_sum(xs) / len(xs)
        ybar = degrees.ordered_sum(ys) / len(ys)
        den = degrees.ordered_sum((x - xbar) ** 2 for x in xs)
        if den > 0:
            slope = degrees.ordered_sum((x - xbar) * (y - ybar)
                                        for x, y in pts) / den
            intercept = ybar - slope * xbar
    return TrendReport(usable_ratios=len(usable),
                       window=(tail[0][0], tail[-1][0]),
                       tail_count=len(tail), median_tail=med, verdict=verdict,
                       ols_slope=slope, ols_intercept=intercept)


def hypothesis_verdict(alpha: Optional[float], d_top: Optional[float],
                       back_contained: Optional[bool], is_morphism: bool,
                       orbit_generic: bool) -> str:
    """Pure decision rule for the convergence-statement hypotheses.

    The numeric hypothesis is sqrt(d_top) < alpha; the geometric one is
    that the subscheme lies in the locus where the statement applies
    (automatic for morphisms); genericity of the orbit must be asserted
    by the caller.  Raising alpha never downgrades the verdict.
    """
    if alpha is None or d_top is None:
        return "insufficient data: alpha or topological degree missing"
    if alpha <= math.sqrt(d_top):
        return "hypothesis fails: alpha <= sqrt(d_top)"
    if back_contained or is_morphism:
        if orbit_generic:
            return "predicts ratio -> 0"
        return "hypotheses not fully met: orbit genericity unknown"
    if back_contained is False:
        return "not applicable: subscheme outside the admissible locus"
    return "insufficient data: containment unknown"


def check_hypotheses(config: ScenarioConfig, alpha: Optional[AlphaEstimate],
                     fiber: Optional[FiberCountReport]) -> HypothesisReport:
    meta = config.metadata
    back_raw = meta.get("Y in X_f^back")
    back: Optional[bool] = None
    if back_raw is not None:
        back = back_raw.strip().lower() == "yes"
    is_morphism = meta.get("morphism", "").strip().lower() == "yes"
    generic = meta.get("orbit generic", "").strip().lower() == "asserted"
    alpha_val = None
    if alpha is not None and not alpha.degenerate:
        alpha_val = alpha.ratio_tail
    d_top = None
    if fiber is not None and fiber.mode is not None and not fiber.degenerate:
        d_top = float(fiber.mode)
    verdict = hypothesis_verdict(alpha_val, d_top, back, is_morphism, generic)
    return HypothesisReport(alpha=alpha_val, d_top=d_top, back_contained=back,
                            is_morphism=is_morphism, orbit_generic=generic,
                            verdict=verdict)


def _closed_form_check(config: ScenarioConfig, rows: Sequence[HeightRow],
                       advisories: List[str], flags: List[str]) -> Optional[str]:
    """Row-by-row comparison against the diagonal-map closed form."""
    if config.metadata.get("closed_form") != "diagonal":
        return None
    try:
        a = int(config.metadata["a"])
        b = int(config.metadata["b"])
    except (KeyError, ValueError):
        flags.append("closed-form check requested but parameters a, b missing")
        return None
    if a < 2 or b < 2:
        flags.append("closed-form check requested but parameters a, b "
                     "must be >= 2")
        return None
    if tuple(config.start) != (1, 1, 1):
        advisories.append("closed-form cross-check skipped: start is not (1:1:1)")
        return None
    if heights.multiplicatively_dependent(a, b):
        advisories.append("parameters a=%d, b=%d are multiplicatively dependent; "
                          "gcd growth is then driven by the common base" % (a, b))
    checked = 0
    for row in rows:
        if row.n == 0:
            continue
        expected = heights.bcz_closed_form(a, b, row.n)
        got = (row.h, row.height.total, row.ratio)
        want = (expected.h, expected.h_Y, expected.ratio)
        for g, w in zip(got, want):
            if g is None or w is None:
                continue
            if abs(g - w) > 1e-9 * max(1.0, abs(w)):
                flags.append("closed-form cross-check failed at n=%d" % row.n)
                return "failed at n=%d" % row.n
        checked += 1
    if checked == 0:
        return None
    return "verified %d rows against the diagonal-map closed form" % checked


# ---------------------------------------------------------------------------
# the driver


def run_scenario(config: ScenarioConfig, name: str = "custom",
                 seed: int = 0) -> ScenarioReport:
    """Compute everything a scenario asks for; never raises past config
    validation, reporting trouble through flags instead."""
    f, ideal, x0 = build_scenario(config)
    rng = random.Random(seed)
    advisories: List[str] = []
    flags: List[str] = []

    series = heights.height_ratio_series(f, ideal, x0, config.n_max)
    rows, orb = series.rows, series.orbit
    if orb.indeterminate_at is not None:
        flags.append("orbit entered the indeterminacy locus at n=%d; "
                     "series truncated" % orb.indeterminate_at)
    if orb.periodic:
        flags.append("orbit is periodic (returns to the point of n=%d); "
                     "series truncated" % orb.period_start)

    # the largest n_seq with deg^n_seq <= composition_cap; since deg f^n <=
    # deg^n, the budget never stops this sequence
    deg = f.degree
    if deg <= 1:
        n_seq = 4
    else:
        n_seq = 1
        while deg ** (n_seq + 1) <= config.composition_cap:
            n_seq += 1
    degseq = degrees.degree_sequence(f, n_seq, budget=config.composition_cap)
    d1 = degrees.d1_estimate(degseq)
    flags.extend(degseq.flags())

    fiber = None
    if config.primes and config.targets_per_prime > 0:
        fiber = degrees.fiber_report(f, config.primes,
                                     config.targets_per_prime, rng, flags)

    alpha = None
    if len(rows) >= 4:
        alpha = degrees.arithmetic_degree_estimate([r.h for r in rows])
        if alpha.degenerate:
            flags.append("arithmetic-degree estimate degenerate")
    else:
        advisories.append("too few orbit points for an arithmetic-degree "
                          "estimate (need 4)")

    trend = classify_trend(rows)
    hypotheses = check_hypotheses(config, alpha, fiber)

    hyper = None
    if fiber is not None and fiber.mode is not None and alpha is not None:
        hyper = degrees.hyperbolicity_report(d1, float(fiber.mode),
                                             alpha.ratio_tail)
        if hyper.advisory:
            advisories.append(hyper.advisory)

    genericity = None
    if orb.points:
        genericity = degrees.orbit_genericity_heuristic(orb.points)
        if genericity.verdict == "possibly-contained":
            advisories.append("orbit segment may lie on a low-degree "
                              "hypersurface; genericity is doubtful")

    closed_form = _closed_form_check(config, rows, advisories, flags)

    return ScenarioReport(
        name=name, seed=seed, config=config, rows=rows, orbit=orb,
        degree_seq=degseq, d1=d1,
        fiber=fiber, alpha=alpha, trend=trend, hypotheses=hypotheses,
        hyperbolicity=hyper, genericity=genericity,
        closed_form_check=closed_form, advisories=advisories, flags=flags)


# ---------------------------------------------------------------------------
# rendering


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return "%.12g" % value


def _row_values(row: HeightRow) -> List[Any]:
    """The CSV_HEADER columns of a row; the four height cells are None
    when h_Y is infinite."""
    hv = row.height
    if hv.infinite:
        return [row.n, row.bits, row.h, None, None, None, None]
    return [row.n, row.bits, row.h, hv.arch_part, hv.gcd_part, hv.total,
            row.ratio]


def render_csv(report: ScenarioReport) -> str:
    lines = [CSV_HEADER]
    for row in report.rows:
        n, bits, *floats = _row_values(row)
        lines.append(",".join([str(n), str(bits)] + [_fmt(v) for v in floats]))
    return "\n".join(lines) + "\n"


def _fields(part: Any) -> Optional[Dict[str, Any]]:
    """A report part as a dict keyed by its field names, or None."""
    return dataclasses.asdict(part) if part is not None else None


def _summary_dict(report: ScenarioReport) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "orbit_points": len(report.rows),
        "indeterminate_at": report.orbit.indeterminate_at,
        "periodic": report.orbit.periodic,
        "period_start": report.orbit.period_start,
        "d1_estimate": report.d1,
        "degree_sequence": [list(e) for e in report.degree_seq.entries],
        "degree_sequence_truncated": report.degree_seq.truncated,
        "trend": _fields(report.trend),
        "hypothesis_check": _fields(report.hypotheses),
        "closed_form_check": report.closed_form_check,
        "advisories": list(report.advisories),
        "alpha": _fields(report.alpha),
        "alpha_estimates": [],
        "fiber": report.fiber.as_dict() if report.fiber is not None else None,
        "hyperbolicity": _fields(report.hyperbolicity),
        "genericity": _fields(report.genericity),
    }
    if report.alpha is not None:
        out["alpha_estimates"] = [
            [n, root, step] for n, root, step in
            degrees.alpha_estimate_rows([r.h for r in report.rows])]
    return out


def render_json(report: ScenarioReport) -> str:
    columns = CSV_HEADER.split(",")
    payload = {"scenario": report.name,
               "seed": report.seed,
               "config": report.config.to_dict(),
               "rows": [dict(zip(columns, _row_values(row)))
                        for row in report.rows],
               "summary": _summary_dict(report),
               "flags": list(report.flags)}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_summary(report: ScenarioReport) -> str:
    lines = ["scenario %s (seed=%d)" % (report.name, report.seed)]
    if report.rows:
        lines.append("orbit: %d points, n = %d..%d, final coordinate size %d bits"
                     % (len(report.rows), report.rows[0].n, report.rows[-1].n,
                        report.rows[-1].bits))
    else:
        lines.append("orbit: no points computed")
    degs = ", ".join(str(d) for _, d in report.degree_seq.entries)
    lines.append("degrees of iterates: %s%s -> d1 estimate %.6g"
                 % (degs, " (truncated)" if report.degree_seq.truncated else "",
                    report.d1))
    if report.fiber is not None:
        hist = ", ".join("%d:%d" % (k, v)
                         for k, v in sorted(report.fiber.histogram.items()))
        mode = report.fiber.mode if report.fiber.mode is not None \
            else "ambiguous %s" % report.fiber.modes
        lines.append("fiber counts over F_p: {%s} -> topological degree mode %s"
                     % (hist, mode))
    if report.alpha is not None:
        lines.append("arithmetic degree: root_tail=%.6g ratio_tail=%.6g"
                     % (report.alpha.root_tail, report.alpha.ratio_tail))
    t = report.trend
    if t.median_tail is not None:
        ols = ""
        if t.ols_intercept is not None:
            ols = " (diagnostic least squares: slope=%.4g intercept=%.4g)" \
                % (t.ols_slope, t.ols_intercept)
        lines.append("height-ratio trend: median of last %d usable ratios "
                     "(n=%d..%d) = %.6g -> %s%s"
                     % (t.tail_count, t.window[0], t.window[1],
                        t.median_tail, t.verdict, ols))
    else:
        lines.append("height-ratio trend: %s (%d usable ratios)"
                     % (t.verdict, t.usable_ratios))
    lines.append("hypothesis check: %s" % report.hypotheses.verdict)
    if report.hyperbolicity is not None:
        hy = report.hyperbolicity
        lines.append("hyperbolicity: d1=%.6g d2=%.6g -> %s"
                     % (hy.d1, hy.d2,
                        "1-cohomologically hyperbolic" if hy.hyperbolic
                        else "not 1-cohomologically hyperbolic"))
    if report.genericity is not None:
        lines.append("orbit genericity: %s (%s)"
                     % (report.genericity.verdict, report.genericity.detail))
    if report.closed_form_check:
        lines.append("closed form: %s" % report.closed_form_check)
    for adv in report.advisories:
        lines.append("advisory: %s" % adv)
    for flag in report.flags:
        lines.append("flag: %s" % flag)
    return "\n".join(lines) + "\n"
