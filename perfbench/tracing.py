"""Spans at the boundaries of orbitgcd's modules, installed from outside.

Each traced function is replaced, on the module that defines it, by a
wrapper that records a span (name, start, end, parent span).  Calls made
inside the package look the function up on its defining module, so they
pass through the wrapper; the names re-exported by orbitgcd/__init__ are
bound to the originals and are left alone.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# module -> traced functions; the span name is "module.function", except
# that the three renderers share the span name "experiments.render".
LAYERS: Dict[str, Tuple[str, ...]] = {
    "projgeom": ("make_point", "make_map", "orbit"),
    "poly": ("eval_int", "mul", "compose", "div_exact", "gcd_multivar"),
    "heights": ("subscheme_height",),
    "degrees": ("degree_sequence", "topological_degree_ff",
                "geometric_fiber_count", "orbit_genericity_heuristic",
                "monomial_dyn_degrees"),
    "ffield": ("uni_mul", "uni_gcd", "uni_resultant", "uni_interpolate",
               "distinct_root_count"),
    "experiments": ("build_scenario", "run_scenario", "render_csv",
                    "render_json", "render_summary"),
    "polyparse": ("parse",),
    "cli": ("main",),
}


def span_name(module: str, function: str) -> str:
    if module == "experiments" and function.startswith("render_"):
        return "experiments.render"
    return "%s.%s" % (module, function)


class Tracer:
    """Span store plus the counters observed at span boundaries.

    Span i has name names[span_name[i]], times start[i]..end[i] and
    parent span parent[i] (-1 at top level); outer[i] is 1 unless an
    enclosing span has the same name, so inclusive time of a recursive
    function is counted once.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.outer = array("b")
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable[[object], None]] = None) -> Callable:
        idx = self._name_id(name)
        names, starts, ends = self.span_name, self.start, self.end
        parents, outer, stack = self.parent, self.outer, self.stack
        active = [0]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            outer.append(active[0] == 0)
            ends.append(0.0)
            stack.append(sid)
            active[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                active[0] -= 1
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_point(self, point) -> None:
        bits = max(c.bit_length() for c in point.coords)
        if bits > self.counters["projgeom.max_bits"]:
            self.counters["projgeom.max_bits"] = bits

    def _observe_fiber(self, count) -> None:
        if count is None:
            self.counters["degrees.geometric_fiber_count.none"] += 1

    def reset_counters(self) -> None:
        self.counters = {"projgeom.max_bits": 0,
                         "degrees.geometric_fiber_count.none": 0}

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Replace every traced function by its wrapper; restore on exit."""
        originals = []
        observers = {"projgeom.make_point": self._observe_point,
                     "degrees.geometric_fiber_count": self._observe_fiber}
        self.reset_counters()
        try:
            for module_name, functions in LAYERS.items():
                module = importlib.import_module("orbitgcd." + module_name)
                for fn_name in functions:
                    fn = getattr(module, fn_name)
                    originals.append((module, fn_name, fn))
                    name = span_name(module_name, fn_name)
                    setattr(module, fn_name,
                            self.wrap(name, fn, observers.get(name)))
            yield
        finally:
            for module, fn_name, fn in reversed(originals):
                setattr(module, fn_name, fn)

    def summarize(self, lo: int, hi: int) -> Dict[str, float]:
        """Per-name calls, inclusive and self seconds over spans lo..hi-1,
        plus per-module self seconds and the boundary counters."""
        child = [0.0] * (hi - lo)
        for sid in range(hi - 1, lo - 1, -1):
            p = self.parent[sid]
            if p >= lo:
                child[p - lo] += self.end[sid] - self.start[sid]
        out: Dict[str, float] = {}
        for name in self.names:
            out[name + ".calls"] = 0
            out[name + ".s"] = 0.0
            out[name + ".self_s"] = 0.0
        for module in LAYERS:
            out["layer.%s.self_s" % module] = 0.0
        for sid in range(lo, hi):
            name = self.names[self.span_name[sid]]
            dur = self.end[sid] - self.start[sid]
            self_s = dur - child[sid - lo]
            out[name + ".calls"] += 1
            if self.outer[sid]:
                out[name + ".s"] += dur
            out[name + ".self_s"] += self_s
            out["layer.%s.self_s" % name.split(".")[0]] += self_s
        out.update(self.counters)
        return out

    def write(self, path: str) -> None:
        """All spans: a JSON list of span names on the first line, then one
        line per span: name index, start, end, parent span (-1 if none)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.names) + "\n")
            for i in range(len(self.span_name)):
                fh.write("%d %.9f %.9f %d\n" % (self.span_name[i], self.start[i],
                                                 self.end[i], self.parent[i]))


def median_summary(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median over passes; counts take the lower median, so they
    stay whole numbers."""
    return {key: (statistics.median_low if isinstance(value, int)
                  else statistics.median)(p[key] for p in passes)
            for key, value in passes[0].items()}
