"""Output checks for benchmark tasks.

Each check compares what the command line printed against something the
program did not compute: closed forms (the backnonfin orbit, the diagonal
map through heights.bcz_exact_parts), degrees of iterates restricted to a
random line over F_p, known answers (2, 4, 8, 13; 3^n; the fiber modes of
the built-ins; monomial degrees of triangular matrices), and integer
height witnesses captured on the way.  check_task returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from typing import List, Optional, Sequence, Tuple

from workloads import Task, Terms

CSV_FIELDS = ("n", "bits", "h", "hY_arch", "hY_gcd", "hY_total", "ratio")
LINE_PRIME = (1 << 61) - 1
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def close(got: Optional[float], want: Optional[float], scale: float = 1.0) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= 1e-9 * max(1.0, abs(want), scale)


def evaluate(terms: Terms, point: Sequence[int]) -> int:
    total = 0
    for c, exps in terms:
        v = c
        for x, e in zip(point, exps):
            if e:
                v *= x ** e
        total += v
    return total


# ---------------------------------------------------------------------------
# parsing command-line output


def parse_rows(task: Task, stdout: str) -> Tuple[List[dict], Optional[dict]]:
    """Rows as dicts of numbers (None for empty cells) and, for JSON, the
    whole payload."""
    if task.fmt == "json":
        payload = json.loads(stdout)
        return payload["rows"], payload
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader)
    if tuple(header) != CSV_FIELDS:
        raise ValueError("unexpected CSV header %r" % header)
    rows = []
    for cells in reader:
        row = {}
        for name, cell in zip(CSV_FIELDS, cells):
            if name in ("n", "bits"):
                row[name] = int(cell)
            else:
                row[name] = float(cell) if cell else None
        rows.append(row)
    return rows, None


# ---------------------------------------------------------------------------
# closed forms


def backnonfin_rows(start: Sequence[int], n_max: int) -> List[dict]:
    """Rows for (x0^2 x1 : x1^3 : x2^3) from pairwise coprime positive
    (s0 : s1 : s2), Y = (x0, x1).

    f^n(s) = (s0^(2^n) s1^(3^n - 2^n) : s1^(3^n) : s2^(3^n)), already
    primitive, and gcd(X0, X1) = s1^(3^n - 2^n).
    """
    s0, s1, s2 = start
    rows = []
    for n in range(n_max + 1):
        e2, e3 = 2 ** n, 3 ** n
        x0 = s0 ** e2 * s1 ** (e3 - e2)
        x1 = s1 ** e3
        x2 = s2 ** e3
        sup = max(x0, x1, x2)
        h = math.log(sup)
        arch = h - math.log(max(x0, x1))
        gcd_part = (e3 - e2) * math.log(s1)
        total = arch + gcd_part
        rows.append({"n": n, "bits": sup.bit_length(), "h": h,
                     "hY_arch": arch, "hY_gcd": gcd_part, "hY_total": total,
                     "ratio": total / h if h > 0 else None})
    return rows


def diag_rows(a: int, b: int, n_max: int) -> List[dict]:
    """Rows for (a x0 : b x1 : x2) from (1 : 1 : 1), Y = (x0 - x2, x1 - x2),
    built from the exact witnesses of heights.bcz_exact_parts."""
    from orbitgcd import heights
    rows = [{"n": 0, "bits": 1, "h": 0.0, "hY_arch": None, "hY_gcd": None,
             "hY_total": None, "ratio": None}]
    for n in range(1, n_max + 1):
        w = heights.bcz_exact_parts(a, b, n)
        h = math.log(w.sup_norm)
        arch = h - math.log(w.arch_value)
        gcd_part = math.log(w.gcd_value)
        rows.append({"n": n, "bits": w.sup_norm.bit_length(), "h": h,
                     "hY_arch": arch, "hY_gcd": gcd_part,
                     "hY_total": arch + gcd_part,
                     "ratio": (arch + gcd_part) / h})
    return rows


def compare_rows(got: List[dict], want: List[dict]) -> List[str]:
    if len(got) != len(want):
        return ["%d rows, want %d" % (len(got), len(want))]
    problems = []
    for g, w in zip(got, want):
        if g["n"] != w["n"] or g["bits"] != w["bits"]:
            problems.append("row n=%s: n/bits %s/%s, want %s/%s"
                            % (w["n"], g["n"], g["bits"], w["n"], w["bits"]))
            continue
        for key in CSV_FIELDS[2:]:
            if not close(g[key], w[key], w["h"]):
                problems.append("row n=%d: %s=%r, want %r"
                                % (w["n"], key, g[key], w[key]))
    return problems


# ---------------------------------------------------------------------------
# degrees of iterates by restriction to a random line over F_p


def _trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % LINE_PRIME
    return _trim(out)


def _divmod(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    a = list(a)
    inv = pow(b[-1], LINE_PRIME - 2, LINE_PRIME)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b) and a:
        c = a[-1] * inv % LINE_PRIME
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % LINE_PRIME
        _trim(a)
    return _trim(q), a


def _gcd(a: List[int], b: List[int]) -> List[int]:
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _compose_on_line(comps: Sequence[Terms], forms: List[List[int]]) -> List[List[int]]:
    out = []
    for terms in comps:
        acc: List[int] = []
        for c, exps in terms:
            t = [c % LINE_PRIME]
            for form, e in zip(forms, exps):
                for _ in range(e):
                    t = _mul(t, form)
            width = max(len(acc), len(t))
            acc = _trim([((acc[i] if i < len(acc) else 0)
                          + (t[i] if i < len(t) else 0)) % LINE_PRIME
                         for i in range(width)])
        out.append(acc)
    return out


def line_degrees(comps: Sequence[Terms], n_max: int, rng: random.Random) -> List[int]:
    """deg f^n for n = 1..n_max from f^n restricted to the line u*A + s*B.

    The restriction is a triple of binary forms of formal degree D; each
    step composes with f and strips the common factor, including a power
    of u when every form drops below its formal degree.  A line that
    misses the base loci gives the true degrees (Monte Carlo over F_p).
    """
    arity = len(comps)
    d = max(sum(e) for _, e in comps[0])
    forms = [[rng.randrange(LINE_PRIME), rng.randrange(1, LINE_PRIME)]
             for _ in range(arity)]
    formal = 1
    degrees = []
    for _ in range(n_max):
        forms = _compose_on_line(comps, forms)
        formal *= d
        g: List[int] = []
        for f in forms:
            g = _gcd(g, f) if g else list(f)
        if len(g) > 1:
            forms = [_divmod(f, g)[0] for f in forms]
            formal -= len(g) - 1
        at_infinity = min(formal - (len(f) - 1) for f in forms if f)
        formal -= at_infinity
        degrees.append(formal)
    return degrees


def oracle_degrees(comps: Sequence[Terms], n_max: int, name: str) -> List[int]:
    """Degrees from two independent random lines; disagreement raises."""
    rng = random.Random("line:" + name)
    first = line_degrees(comps, n_max, rng)
    second = line_degrees(comps, n_max, rng)
    if first != second:
        raise ValueError("line oracle disagrees with itself: %s vs %s"
                         % (first, second))
    return first


# ---------------------------------------------------------------------------
# height witnesses


def check_witnesses(task: Task, rows: List[dict], captured: List[tuple]) -> List[str]:
    """Exact checks on the (point, HeightValue) pairs seen by
    heights.subscheme_height, tied to the printed rows.

    sup_norm is max |coord|, gcd_value divides every nonzero generator
    value, arch_value is one of them, each point is sign-canonical with no
    small prime dividing every coordinate, and each point is the image of
    the previous one under the map (cross-multiplied, no division).
    """
    problems = []
    if len(captured) != len(rows):
        return ["%d height calls for %d rows" % (len(captured), len(rows))]
    prev = None
    for row, (coords, hv) in zip(rows, captured):
        n = row["n"]
        values = [abs(evaluate(g, coords)) for g in task.ideal_terms]
        nonzero = [v for v in values if v]
        first = next(c for c in coords if c)
        if first < 0 or any(all(c % p == 0 for c in coords) for p in SMALL_PRIMES):
            problems.append("n=%d: point is not sign-canonical and primitive" % n)
        if prev is not None and task.map_terms:
            image = [evaluate(c, prev) for c in task.map_terms]
            if any(image[i] * coords[j] != image[j] * coords[i]
                   for i in range(len(coords)) for j in range(i + 1, len(coords))):
                problems.append("n=%d: point is not the image of n=%d" % (n, n - 1))
        prev = coords
        sup = max(abs(c) for c in coords)
        if row["bits"] != sup.bit_length() or not close(row["h"], math.log(sup)):
            problems.append("n=%d: bits/h do not match the point" % n)
        if hv.infinite:
            if nonzero:
                problems.append("n=%d: height infinite off Y" % n)
            continue
        if hv.sup_norm != sup:
            problems.append("n=%d: sup_norm is not max |coord|" % n)
        if not nonzero or any(v % hv.gcd_value for v in nonzero):
            problems.append("n=%d: gcd_value does not divide the generator values" % n)
        if hv.arch_value not in nonzero:
            problems.append("n=%d: arch_value is no generator value" % n)
        if not close(row["hY_gcd"], math.log(hv.gcd_value)):
            problems.append("n=%d: hY_gcd is not log gcd_value" % n)
    return problems


# ---------------------------------------------------------------------------
# per-task dispatch


def _check_run(task: Task, stdout: str, captured: Optional[List[tuple]]) -> List[str]:
    rows, payload = parse_rows(task, stdout)
    problems = []
    if task.closed_form == "backnonfin":
        problems += compare_rows(rows, backnonfin_rows(task.start, task.n_max))
    elif task.closed_form == "diag":
        problems += compare_rows(rows, diag_rows(task.expected["a"],
                                                 task.expected["b"], task.n_max))
    if captured is not None:
        problems += check_witnesses(task, rows, captured)
    if payload is not None:
        summary = payload["summary"]
        seq = summary["degree_sequence"]
        want_seq = task.expected.get("degree_sequence")
        if want_seq is None:
            want_seq = [[n, d] for n, d in enumerate(
                oracle_degrees(task.map_terms, len(seq), task.name), 1)]
        if seq != want_seq:
            problems.append("degree sequence %s, want %s" % (seq, want_seq))
        fiber = summary["fiber"]
        if "mode" in task.expected:
            if fiber is None or fiber["mode"] != task.expected["mode"]:
                problems.append("fiber mode %s, want %s"
                                % (fiber and fiber["mode"], task.expected["mode"]))
        elif fiber is not None and fiber["mode"] is not None:
            if not 0 <= fiber["mode"] <= seq[0][1] ** 2:
                problems.append("fiber mode %s beyond the Bezout bound" % fiber["mode"])
    return problems


def _check_degrees(task: Task, stdout: str) -> List[str]:
    payload = json.loads(stdout)
    got = [d for _, d, _ in payload["d1_sequence"]]
    want = task.expected.get("degrees") or oracle_degrees(
        task.map_terms, task.n_max, task.name)
    if got != list(want):
        return ["degree sequence %s, want %s" % (got, list(want))]
    if payload["truncated"] or payload["flags"]:
        return ["unexpected truncation or flags %s" % payload["flags"]]
    if "mode" in task.expected and payload["dN_counts"]["mode"] != task.expected["mode"]:
        return ["fiber mode %s, want %s" % (payload["dN_counts"]["mode"],
                                            task.expected["mode"])]
    want_d1 = got[-1] ** (1.0 / len(got))
    if not close(payload["d1_estimate"], want_d1):
        return ["d1 estimate %r, want %r" % (payload["d1_estimate"], want_d1)]
    return []


def _check_matrix(task: Task, stdout: str) -> List[str]:
    payload = json.loads(stdout)
    moduli = sorted(task.expected["diagonal"], reverse=True)
    want = [1.0]
    for m in moduli:
        want.append(want[-1] * m)
    got = payload["monomial_degrees"]
    if len(got) != len(want) or not all(close(g, w) for g, w in zip(got, want)):
        return ["monomial degrees %s, want %s" % (got, want)]
    if got[-1] != float(want[-1]):
        return ["top degree %r is not |det| exactly" % got[-1]]
    return []


def check_task(task: Task, exit_code: int, stdout: str,
               captured: Optional[List[tuple]] = None) -> List[str]:
    """Problems with one task's result; captured holds the (coords,
    HeightValue) pairs of heights.subscheme_height when they were
    recorded."""
    if exit_code not in (0, 2):
        return ["exit code %d" % exit_code]
    want_exit = task.expected.get("exit")
    if want_exit is not None and exit_code != want_exit:
        return ["exit code %d, want %d" % (exit_code, want_exit)]
    try:
        if task.kind == "run":
            return _check_run(task, stdout, captured)
        if task.kind == "degrees":
            return _check_degrees(task, stdout)
        return _check_matrix(task, stdout)
    except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]

