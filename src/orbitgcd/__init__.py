"""Exact gcd-type heights along orbits of rational self-maps of
projective space, with dynamical-degree estimators.

The interesting quantity is the height of an orbit point relative to a
subscheme, h_Y(f^n x), computed exactly from integer coordinates, next
to the ambient height h(f^n x).  The package tracks their ratio,
estimates first dynamical and arithmetic degrees, counts fiber sizes
over finite fields to approximate the topological degree, and packages
ready-made scenarios behind a command-line tool.
"""

from .degrees import (arithmetic_degree_estimate, degree_sequence,
                      monomial_dyn_degrees, topological_degree_ff)
from .experiments import (ScenarioConfig, builtin_scenario, render_csv,
                          render_json, render_summary, run_scenario)
from .heights import (HeightValue, bcz_closed_form, height_ratio_series,
                      subscheme_height, weil_height)
from .poly import BigPoly, gcd_multivar
from .polyparse import parse
from .projgeom import (ProjPoint, RationalMap, SubschemeIdeal, make_ideal,
                       make_map, make_point, orbit)

__version__ = "0.1.0"

__all__ = [
    "BigPoly", "gcd_multivar", "parse",
    "ProjPoint", "RationalMap", "SubschemeIdeal",
    "make_point", "make_map", "make_ideal", "orbit",
    "HeightValue", "weil_height", "subscheme_height",
    "height_ratio_series", "bcz_closed_form",
    "degree_sequence", "topological_degree_ff",
    "monomial_dyn_degrees", "arithmetic_degree_estimate",
    "ScenarioConfig", "builtin_scenario", "run_scenario",
    "render_csv", "render_json", "render_summary",
    "__version__",
]
