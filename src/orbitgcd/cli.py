"""Command-line front end.

Two subcommands: `run` executes a scenario (built-in or from a JSON
config) and emits the per-iterate table as CSV or JSON; `degrees`
estimates dynamical degrees for a map given directly on the command
line, or exactly for a monomial map given by its exponent matrix.  The
random seed comes from --seed alone (default 0), so the same arguments
always print the same bytes.

Exit codes: 0 success, 1 bad input or configuration, 2 the computation
finished but raised at least one flag (truncated orbit, ambiguous mode,
failed cross-check, ...), 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from typing import List, Optional, Sequence

from . import __version__, degrees, experiments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitgcd",
        description="gcd-type heights along orbits of self-maps of "
                    "projective space, with degree estimators")
    parser.add_argument("--version", action="version",
                        version="orbitgcd %s" % __version__)
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run a scenario and emit its report")
    src = run.add_mutually_exclusive_group()
    src.add_argument("--scenario", choices=experiments.BUILTIN_NAMES,
                     help="one of the built-in scenarios")
    src.add_argument("--config", metavar="FILE",
                     help="JSON scenario configuration")
    run.add_argument("--n-max", type=int, default=None,
                     help="override the number of iterates")
    run.add_argument("--a", type=int, default=None,
                     help="first multiplier for the diag scenario (default 2)")
    run.add_argument("--b", type=int, default=None,
                     help="second multiplier for the diag scenario (default 3)")
    run.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="report format (default csv)")
    run.add_argument("--out", metavar="FILE", default=None,
                     help="write the report here instead of stdout")
    run.add_argument("--seed", type=int, default=0,
                     help="random seed (default 0)")

    deg = sub.add_parser("degrees", help="degree estimates for a map")
    deg.add_argument("--map", metavar="COMPS",
                     help="';'-separated homogeneous components in x0,x1,...")
    deg.add_argument("--matrix", metavar="ROWS",
                     help="monomial exponent matrix, rows ';'-separated, "
                          "entries ','-separated, e.g. '2,1;0,3'")
    deg.add_argument("--n-max", type=int, default=6,
                     help="iterates for the degree sequence (default 6)")
    deg.add_argument("--budget", type=int,
                     default=degrees.DEFAULT_DEGREE_BUDGET,
                     help="composition degree budget")
    deg.add_argument("--primes", metavar="P1,P2,...", default=None,
                     help="primes for fiber counting")
    deg.add_argument("--targets", type=int, default=10,
                     help="fiber-count targets per prime (default 10)")
    deg.add_argument("--seed", type=int, default=0,
                     help="random seed (default 0)")
    return parser


def _flags_sidecar_path(out_path: str) -> str:
    stem, _ = os.path.splitext(out_path)
    return stem + ".flags.json"


def cmd_run(args: argparse.Namespace, seed: int) -> int:
    for flag, value in (("--a", args.a), ("--b", args.b)):
        if value is not None and args.scenario != "diag":
            raise experiments.ConfigError(
                "%s: only the diag scenario takes a multiplier" % flag)
    if args.config:
        config = experiments.load_config_file(args.config)
        name = os.path.splitext(os.path.basename(args.config))[0]
    elif args.scenario:
        multipliers = {k: v for k, v in (("a", args.a), ("b", args.b))
                       if v is not None}
        config = experiments.builtin_scenario(args.scenario, **multipliers)
        name = args.scenario
    else:
        raise experiments.ConfigError("run: need --scenario or --config")
    if args.n_max is not None:
        config = dataclasses.replace(config, n_max=args.n_max)

    report = experiments.run_scenario(config, name=name, seed=seed)
    if args.format == "json":
        payload = experiments.render_json(report)
    else:
        payload = experiments.render_csv(report)
    summary = experiments.render_summary(report)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        if args.format == "csv" and report.flags:
            with open(_flags_sidecar_path(args.out), "w", encoding="utf-8") as fh:
                json.dump({"scenario": report.name, "seed": report.seed,
                           "flags": list(report.flags)}, fh, indent=2,
                          sort_keys=True)
                fh.write("\n")
        sys.stdout.write(summary)
    else:
        sys.stdout.write(payload)
        sys.stderr.write(summary)
    return 2 if report.flags else 0


def _parse_matrix(text: str) -> List[List[int]]:
    rows = []
    for chunk in text.split(";"):
        try:
            rows.append([int(v) for v in chunk.split(",")])
        except ValueError:
            raise experiments.ConfigError(
                "matrix: bad row %r (want comma-separated integers)"
                % chunk) from None
    return rows


def cmd_degrees(args: argparse.Namespace, seed: int) -> int:
    for name, value in (("targets", args.targets), ("budget", args.budget)):
        if value < 1:
            raise experiments.ConfigError("%s: need an integer >= 1" % name)
    if args.matrix:
        matrix = _parse_matrix(args.matrix)
        try:
            degs = degrees.monomial_dyn_degrees(matrix)
        except ValueError as exc:
            raise experiments.ConfigError("matrix: %s" % exc) from None
        payload = {"kind": "monomial", "matrix": matrix,
                   "monomial_degrees": degs}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return 0
    if not args.map:
        raise experiments.ConfigError("degrees: need --map or --matrix")

    f = experiments.parse_map(args.map, args.map.count(";") + 1)
    seq = degrees.degree_sequence(f, args.n_max, budget=args.budget)
    flags = seq.flags()
    payload = {"kind": "map", "map": args.map,
               "d1_sequence": seq.with_roots(),
               "d1_estimate": degrees.d1_estimate(seq),
               "truncated": seq.truncated}
    if args.primes:
        try:
            primes = [int(p) for p in args.primes.split(",")]
        except ValueError:
            raise experiments.ConfigError(
                "primes: want comma-separated integers") from None
        fiber = degrees.topological_degree_ff(f, primes, args.targets,
                                              random.Random(seed), flags)
        if fiber is not None:
            payload["dN_counts"] = fiber.as_dict()
    payload["flags"] = flags
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 2 if flags else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 is reserved here for
        # flagged-but-successful runs, so remap
        return 0 if exc.code == 0 else 1

    try:
        seed = getattr(args, "seed", 0)
        sys.stderr.write("orbitgcd %s seed=%d\n" % (__version__, seed))
        if args.command == "run":
            return cmd_run(args, seed)
        if args.command == "degrees":
            return cmd_degrees(args, seed)
        parser.print_help(sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - last-resort internal guard
        sys.stderr.write("internal error: %s: %s\n"
                         % (type(exc).__name__, exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
