"""Seeded task lists for the three benchmark workloads.

A task is one call of the orbitgcd command line.  Besides its argument
vector it carries the benchmark's own description of the map, the ideal
and the start point as term lists, so the output checks never depend on
the program's parser.  Every task list is a pure function of the
workload name and the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# A polynomial is a tuple of (coefficient, exponent tuple) terms.
Terms = Tuple[Tuple[int, Tuple[int, ...]], ...]

WORKLOADS = ("orbit-deep", "scenario-batch", "degree-seq")

QUADRATIC_MONOMIALS = ((2, 0, 0), (0, 2, 0), (0, 0, 2),
                       (1, 1, 0), (1, 0, 1), (0, 1, 1))

# x0^2+x1*x2; x1^2-x0*x2; x2^2+x0*x1 has three base points; its reduced
# iterates have degrees 2, 4, 8, 13, 20, ...
THREE_BASE_POINT_MAP: Tuple[Terms, ...] = (
    ((1, (2, 0, 0)), (1, (0, 1, 1))),
    ((1, (0, 2, 0)), (-1, (1, 0, 1))),
    ((1, (0, 0, 2)), (1, (1, 1, 0))))
THREE_BASE_POINT_DEGREES = (2, 4, 8, 13)

BACKNONFIN_MAP: Tuple[Terms, ...] = (
    ((1, (2, 1, 0)),), ((1, (0, 3, 0)),), ((1, (0, 0, 3)),))
A2_MAP: Tuple[Terms, ...] = (
    ((1, (2, 1, 0)),),
    ((1, (0, 3, 0)), (1, (2, 1, 0)), (1, (1, 0, 2))),
    ((1, (0, 0, 3)),))
AXES_IDEAL: Tuple[Terms, ...] = (((1, (1, 0, 0)),), ((1, (0, 1, 0)),))
DIAG_IDEAL: Tuple[Terms, ...] = (((1, (1, 0, 0)), (-1, (0, 0, 1))),
                                 ((1, (0, 1, 0)), (-1, (0, 0, 1))))
RANDOM_IDEALS: Tuple[Tuple[Terms, ...], ...] = (
    AXES_IDEAL, DIAG_IDEAL,
    (((1, (1, 0, 0)), (1, (0, 1, 0))), ((1, (0, 0, 1)),)))

# The orbit-deep start points are three distinct primes from a narrow band,
# so every orbit point is primitive without cancellation and the final
# coordinate size, which sets the cost, hardly depends on the seed.  a2's
# band is lower because its orbit step costs more per bit; at n = 9 the
# final coordinates have about 0.3 Mbit (backnonfin) and 0.24 Mbit (a2).
ORBIT_DEEP_N = 9


def _primes_in(lo: int, hi: int) -> Tuple[int, ...]:
    return tuple(p for p in range(lo | 1, hi, 2)
                 if all(p % q for q in range(3, int(p ** 0.5) + 1, 2)))


BACKNONFIN_START_PRIMES = _primes_in(1 << 15, (1 << 15) + 2048)
A2_START_PRIMES = _primes_in(1 << 12, (1 << 12) + 256)


@dataclass(frozen=True)
class Task:
    """One command-line call plus what the checks need to know about it.

    kind selects the checks: "run" (a scenario report), "degrees" (a
    degree sequence) or "matrix" (monomial degrees).  config, when set, is
    the scenario JSON that the runner writes to <workdir>/<name>.json
    before the run (see command).  map_terms / ideal_terms /
    start describe the scenario independently of the program; closed_form
    names an orbit with a known closed form ("backnonfin" or "diag");
    expected holds exact answers known in advance.
    """
    name: str
    kind: str
    argv: Tuple[str, ...]
    fmt: str = "json"
    config: Optional[str] = None
    map_terms: Tuple[Terms, ...] = ()
    ideal_terms: Tuple[Terms, ...] = ()
    start: Tuple[int, ...] = ()
    n_max: int = 0
    closed_form: Optional[str] = None
    expected: Dict[str, object] = field(default_factory=dict)

    def command(self, workdir: str) -> Tuple[str, ...]:
        """The argument vector, with the config file placed in workdir."""
        if self.config is None:
            return self.argv
        return tuple(os.path.join(workdir, a) if a == self.name + ".json" else a
                     for a in self.argv)


def format_poly(terms: Terms) -> str:
    """Render a term list in the command-line polynomial grammar."""
    out = []
    for i, (c, exps) in enumerate(terms):
        factors = ["x%d" % v if e == 1 else "x%d^%d" % (v, e)
                   for v, e in enumerate(exps) if e]
        mag = abs(c)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if i == 0:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def format_map(comps: Tuple[Terms, ...]) -> str:
    return "; ".join(format_poly(c) for c in comps)


def _random_quadratic(rng: random.Random, k: int, coeffs: Tuple[int, ...]) -> Terms:
    monos = rng.sample(QUADRATIC_MONOMIALS, k)
    return tuple((rng.choice(coeffs), m) for m in monos)


def _config_task(name: str, fmt: str, seed: int, map_terms: Tuple[Terms, ...],
                 ideal_terms: Tuple[Terms, ...], start: Tuple[int, ...],
                 n_max: int, primes: List[int], targets: int, cap: int,
                 metadata: Dict[str, str],
                 closed_form: Optional[str] = None,
                 expected: Optional[Dict[str, object]] = None) -> Task:
    config = {"arity": len(start), "map": format_map(map_terms),
              "ideal": [format_poly(g) for g in ideal_terms],
              "start": list(start), "n_max": n_max, "primes": primes,
              "targets_per_prime": targets, "composition_cap": cap,
              "metadata": metadata}
    return Task(name=name, kind="run",
                argv=("run", "--config", name + ".json", "--format", fmt,
                      "--seed", str(seed)),
                fmt=fmt, config=json.dumps(config, sort_keys=True),
                map_terms=map_terms, ideal_terms=ideal_terms, start=start,
                n_max=n_max, closed_form=closed_form,
                expected=expected or {})


def orbit_deep(seed: int) -> List[Task]:
    """Twelve deep orbits of backnonfin (8) and a2 (4) from prime starts."""
    rng = random.Random("orbit-deep:%d" % seed)
    tasks = []
    for i in range(12):
        if i % 3 == 2:
            tasks.append(_config_task(
                "od%02d" % i, "json", seed, A2_MAP, AXES_IDEAL,
                tuple(rng.sample(A2_START_PRIMES, 3)), ORBIT_DEEP_N, [1009], 2, 9,
                {"Y in X_f^back": "yes", "orbit generic": "asserted"},
                expected={"degree_sequence": [[1, 3], [2, 9]]}))
        else:
            tasks.append(_config_task(
                "od%02d" % i, "json", seed, BACKNONFIN_MAP, AXES_IDEAL,
                tuple(rng.sample(BACKNONFIN_START_PRIMES, 3)), ORBIT_DEEP_N,
                [1009], 2, 9,
                {"Y in X_f^back": "no", "orbit generic": "asserted"},
                closed_form="backnonfin",
                expected={"degree_sequence": [[1, 3], [2, 9]]}))
    return tasks


def _builtin_task(name: str, fmt: str, seed: int) -> Task:
    if name == "bcz":
        return Task(name="%s-%s" % (name, fmt), kind="run",
                    argv=("run", "--scenario", name, "--format", fmt,
                          "--seed", str(seed)),
                    fmt=fmt, map_terms=_diag_map(2, 3), ideal_terms=DIAG_IDEAL,
                    start=(1, 1, 1), n_max=40, closed_form="diag",
                    expected={"a": 2, "b": 3, "mode": 1, "exit": 0,
                              "degree_sequence": [[n, 1] for n in range(1, 5)]})
    if name == "backnonfin":
        return Task(name="%s-%s" % (name, fmt), kind="run",
                    argv=("run", "--scenario", name, "--format", fmt,
                          "--seed", str(seed)),
                    fmt=fmt, map_terms=BACKNONFIN_MAP, ideal_terms=AXES_IDEAL,
                    start=(3, 2, 1), n_max=12, closed_form="backnonfin",
                    expected={"mode": 6, "exit": 0, "degree_sequence":
                              [[n, 3 ** n] for n in range(1, 7)]})
    return Task(name="%s-%s" % (name, fmt), kind="run",
                argv=("run", "--scenario", name, "--format", fmt,
                      "--seed", str(seed)),
                fmt=fmt, map_terms=A2_MAP, ideal_terms=AXES_IDEAL,
                start=(2, 3, 1), n_max=10,
                expected={"mode": 7, "exit": 0, "degree_sequence":
                          [[n, 3 ** n] for n in range(1, 5)]})


def _diag_map(a: int, b: int) -> Tuple[Terms, ...]:
    return (((a, (1, 0, 0)),), ((b, (0, 1, 0)),), ((1, (0, 0, 1)),))


def scenario_batch(seed: int) -> List[Task]:
    """Everyday use: built-ins through run and degrees, diag, small random
    P^2 configs, monomial matrices."""
    rng = random.Random("scenario-batch:%d" % seed)
    # The built-ins are most of a pass; with a fixed --seed their fiber
    # samples, and so their cost, are the same for every benchmark seed.
    tasks = [_builtin_task(name, fmt, 0)
             for name in ("backnonfin", "a2", "bcz") for fmt in ("csv", "json")]
    # the same maps through `degrees --primes`, a little heavier than the
    # backnonfin runs, so the 5th-slowest task is a backnonfin run
    for name, map_terms, mode in (("backnonfin", BACKNONFIN_MAP, 6), ("a2", A2_MAP, 7)):
        tasks.append(Task(
            name="degrees-" + name, kind="degrees",
            argv=("degrees", "--map", format_map(map_terms), "--n-max", "4",
                  "--primes", "1009,2003,4001", "--targets", "30", "--seed", "0"),
            map_terms=map_terms, n_max=4,
            expected={"degrees": [3, 9, 27, 81], "mode": mode}))
    for i in range(6):
        a, b = rng.sample(range(2, 13), 2)
        fmt = ("csv", "json")[i % 2]
        tasks.append(Task(
            name="diag%02d" % i, kind="run",
            argv=("run", "--scenario", "diag", "--a", str(a), "--b", str(b),
                  "--format", fmt, "--seed", str(seed)),
            fmt=fmt, map_terms=_diag_map(a, b), ideal_terms=DIAG_IDEAL,
            start=(1, 1, 1), n_max=40, closed_form="diag",
            expected={"a": a, "b": b, "mode": 1, "exit": 0}))
    for i in range(20):
        map_terms = tuple(_random_quadratic(rng, rng.choice((3, 4, 5, 6)),
                                            (-3, -2, -1, 1, 2, 3))
                          for _ in range(3))
        ideal = rng.choice(RANDOM_IDEALS)
        start = tuple(rng.randint(1, 9) for _ in range(3))
        tasks.append(_config_task(
            "sb%02d" % i, ("csv", "json")[i % 2], seed, map_terms, ideal,
            start, 6, [1009, 2003], 6, 4, {"orbit generic": "asserted"}))
    for i in range(4):
        size = 2 + i % 2
        diag = rng.sample(range(1, 7), size)
        rows = [[diag[r] if c == r else (rng.randint(0, 3) if c > r else 0)
                 for c in range(size)] for r in range(size)]
        text = ";".join(",".join(str(v) for v in row) for row in rows)
        tasks.append(Task(name="mat%02d" % i, kind="matrix",
                          argv=("degrees", "--matrix", text),
                          expected={"diagonal": diag}))
    return tasks


def degree_seq(seed: int) -> List[Task]:
    """Degree sequences: the fixed three-base-point map to n=4, positive
    random coefficients on its support to n=3 and dense random maps to n=2.

    With 16 dense maps, 3 support maps and the fixed map, the median and
    the 5th-slowest task are both dense maps, whose cost hardly depends on
    the seed; the cost of a support map varies threefold between seeds.
    """
    rng = random.Random("degree-seq:%d" % seed)
    tasks = [Task(name="fixed-n4", kind="degrees",
                  argv=("degrees", "--map", format_map(THREE_BASE_POINT_MAP),
                        "--n-max", "4"),
                  map_terms=THREE_BASE_POINT_MAP, n_max=4,
                  expected={"degrees": list(THREE_BASE_POINT_DEGREES)})]
    for i in range(3):
        map_terms = tuple(tuple((rng.randint(1, 5), e) for _, e in comp)
                          for comp in THREE_BASE_POINT_MAP)
        tasks.append(Task(name="support%02d" % i, kind="degrees",
                          argv=("degrees", "--map", format_map(map_terms),
                                "--n-max", "3"),
                          map_terms=map_terms, n_max=3))
    for i in range(16):
        map_terms = tuple(_random_quadratic(rng, 6, (-3, -2, -1, 1, 2, 3))
                          for _ in range(3))
        tasks.append(Task(name="dense%02d" % i, kind="degrees",
                          argv=("degrees", "--map", format_map(map_terms),
                                "--n-max", "2"),
                          map_terms=map_terms, n_max=2))
    return tasks


GENERATORS = {"orbit-deep": orbit_deep, "scenario-batch": scenario_batch,
              "degree-seq": degree_seq}


def tasks_for(workload: str, seed: int) -> List[Task]:
    return GENERATORS[workload](seed)
