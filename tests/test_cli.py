"""Command-line behavior: subcommands, streams, exit codes, artifacts."""

import contextlib
import io
import json
import os
import shutil
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orbitgcd
from orbitgcd import __version__
from orbitgcd.cli import main
from orbitgcd.experiments import CSV_HEADER

BANNER = "orbitgcd %s seed=%d"

PERIODIC_CONFIG = {
    "arity": 3,
    "map": "x1; x0; x2",
    "ideal": ["x0 - x1"],
    "start": [2, 5, 1],
    "n_max": 9,
}


def write_config(tmp_path, name="swapmap.json", data=None):
    path = tmp_path / name
    path.write_text(json.dumps(data or PERIODIC_CONFIG), encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def within(seconds):
    """Raise TimeoutError in the block once it has run for `seconds`, so
    that a stall fails one test fast (SIGALRM: POSIX, main thread only)."""
    def expire(signum, frame):
        raise TimeoutError("still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# global behavior


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "orbitgcd %s" % __version__


def test_no_command_prints_help_and_fails(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == BANNER % (__version__, 0)
    assert "usage:" in err


def test_argparse_usage_error_is_exit_code_one(capsys):
    assert main(["run", "--scenario", "nope"]) == 1
    assert main(["run", "--scenario", "bcz", "--config", "x.json"]) == 1


def test_banner_precedes_errors(capsys):
    assert main(["run", "--config", "/nonexistent/path.json"]) == 1
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[0] == BANNER % (__version__, 0)
    assert any(line.startswith("error:") for line in lines[1:])


# ---------------------------------------------------------------------------
# run subcommand


def test_run_csv_to_stdout_summary_to_stderr(capsys):
    assert main(["run", "--scenario", "bcz", "--n-max", "8"]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10
    for line in lines[1:]:
        assert len(line.split(",")) == 7
    err_lines = out.err.splitlines()
    assert err_lines[0] == BANNER % (__version__, 0)
    assert err_lines[1].startswith("scenario bcz")


def test_run_json_payload(capsys):
    assert main(["run", "--scenario", "bcz", "--n-max", "8",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"] == "bcz"
    assert payload["summary"]["fiber"]["mode"] == 1
    assert len(payload["rows"]) == 9


def test_run_requires_a_source(capsys):
    assert main(["run"]) == 1
    assert "need --scenario or --config" in capsys.readouterr().err


def test_run_out_file_and_no_sidecar_without_flags(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    assert main(["run", "--scenario", "bcz", "--n-max", "8",
                 "--out", str(out_file)]) == 0
    text = out_file.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    assert not (tmp_path / "report.flags.json").exists()
    # summary moves to stdout when the table goes to a file
    assert capsys.readouterr().out.startswith("scenario bcz")


def test_flagged_run_exits_two_and_writes_sidecar(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_file = tmp_path / "table.csv"
    assert main(["run", "--config", cfg, "--out", str(out_file)]) == 2
    sidecar = tmp_path / "table.flags.json"
    assert sidecar.exists()
    blob = json.loads(sidecar.read_text(encoding="utf-8"))
    assert blob["scenario"] == "swapmap"  # named after the config file
    assert blob["seed"] == 0
    assert any("periodic" in f for f in blob["flags"])


def test_flagged_json_embeds_flags_without_sidecar(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out_file = tmp_path / "table.json"
    assert main(["run", "--config", cfg, "--format", "json",
                 "--out", str(out_file)]) == 2
    assert not (tmp_path / "table.flags.json").exists()
    blob = json.loads(out_file.read_text(encoding="utf-8"))
    assert any("periodic" in f for f in blob["flags"])


def test_flagged_run_without_out_still_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().out.splitlines()[0] == CSV_HEADER


def test_prime_too_small_for_the_map_is_skipped_with_a_flag(tmp_path, capsys):
    # the eliminants of a degree-8 map need p > 8^2 + 1; composition_cap 8
    # stops the degree sequence at n = 1, which keeps the run fast
    data = {"arity": 3,
            "map": "x0^8 + x1*x2^7; x1^8 - x0*x2^7; x2^8 + x0*x1^7",
            "ideal": ["x0", "x1"], "start": [3, 2, 1], "n_max": 4,
            "primes": [53], "targets_per_prime": 2, "composition_cap": 8}
    cfg = write_config(tmp_path, "deg8.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [
        "fiber counting skipped prime 53: too small for the degree-8 map"]
    assert payload["summary"]["fiber"] is None


def test_prime_dividing_a_map_component_is_skipped_with_a_flag(tmp_path, capsys):
    # 1009 divides every coefficient of component 0, which vanishes mod 1009
    data = {"arity": 3, "map": "1009*x0^2; x1^2; x2^2",
            "ideal": ["x0", "x1"], "start": [3, 2, 1], "n_max": 4,
            "primes": [1009], "targets_per_prime": 2, "composition_cap": 8}
    cfg = write_config(tmp_path, "wipe.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [
        "fiber counting skipped prime 1009: it divides every coefficient "
        "of map component 0"]
    assert payload["summary"]["fiber"] is None


def test_degrees_skips_the_fiber_primes_that_run_skips(capsys):
    argv = ["degrees", "--map", "1009*x0^2; x1^2; x2^2", "--n-max", "2",
            "--targets", "2"]
    flag = ("fiber counting skipped prime 1009: it divides every coefficient "
            "of map component 0")
    assert main(argv + ["--primes", "1009"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [flag]
    assert payload["d1_sequence"] == [[1, 2, 2.0], [2, 4, 2.0]]
    assert "dN_counts" not in payload
    assert main(argv + ["--primes", "1009,2003"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [flag]
    assert list(payload["dN_counts"]["by_prime"]) == ["2003"]
    assert payload["dN_counts"]["mode"] == 4


NOT_DOMINANT = ("degree sequence stopped at n=%d: f^n is constant "
                "(the map is not dominant)")


@pytest.mark.parametrize("map_text, n", [("x2; x0; 3*x2", 2),
                                         ("x0; 2*x0; 3*x0", 1)])
def test_non_dominant_map_exits_two_with_a_flag(tmp_path, capsys, map_text, n):
    data = {"arity": 3, "map": map_text, "ideal": ["x0", "x1"],
            "start": [1, 2, 3], "n_max": 3}
    cfg = write_config(tmp_path, "flat.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert NOT_DOMINANT % n in payload["flags"]
    assert payload["summary"]["degree_sequence"][-1] == [n, 0]
    assert main(["degrees", "--map", map_text]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [NOT_DOMINANT % n]
    assert payload["d1_sequence"][-1] == [n, 0, 0.0]


def test_zero_component_is_flagged_as_not_dominant(tmp_path, capsys):
    # the image of (0 : x1^2 : x2^2) lies in the hyperplane x0 = 0, though
    # every iterate keeps degree 2^n; fiber counting is skipped once, for
    # the map, before any prime is tried
    flag = "map component 0 is identically zero (the map is not dominant)"
    skip = "fiber counting skipped: map component 0 is identically zero"
    data = {"arity": 3, "map": "0; x1^2; x2^2", "ideal": ["x0", "x1"],
            "start": [1, 2, 3], "n_max": 4}
    cfg = write_config(tmp_path, "zero.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["flags"] == [flag]
    cfg = write_config(tmp_path, "fibers.json", dict(
        data, primes=[1009, 2003], targets_per_prime=4))
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["flags"] == [flag, skip]
    assert main(["degrees", "--map", "0; x1^2; x2^2", "--n-max", "3"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [flag]
    assert payload["d1_sequence"] == [[1, 2, 2.0], [2, 4, 2.0], [3, 8, 2.0]]
    assert main(["degrees", "--map", "0; x1^2; x2^2", "--n-max", "2",
                 "--primes", "1009,2003"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [flag, skip] and "dN_counts" not in payload


def test_zero_height_after_a_positive_one_does_not_crash(tmp_path, capsys):
    # h(f^3 x) = 0 < h(f^2 x), a quotient with no logarithm
    data = {"arity": 3, "map": "x2 - 2*x0; 53*x0; x2",
            "ideal": ["x0*x1", "x2^2"], "start": [1, 2, 4], "n_max": 3}
    cfg = write_config(tmp_path, "drop.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["h"] for row in payload["rows"]][-1] == 0.0
    assert payload["summary"]["alpha"]["degenerate"] is False


def test_closed_form_bases_below_two_are_flagged(tmp_path, capsys):
    # the diagonal closed form needs a, b >= 2; a = 1 used to raise
    data = {"arity": 3, "map": "2*x0; 3*x1; x2",
            "ideal": ["x0 - x2", "x1 - x2"], "start": [1, 1, 1], "n_max": 5,
            "metadata": {"closed_form": "diagonal", "a": "1", "b": "3"}}
    cfg = write_config(tmp_path, "base1.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == ["closed-form check requested but parameters "
                                "a, b must be >= 2"]
    assert payload["summary"]["closed_form_check"] is None


DIAGONAL_CONFIG = {
    "arity": 3, "map": "2*x0; 3*x1; x2", "ideal": ["x0 - x2", "x1 - x2"],
    "start": [1, 1, 1], "n_max": 5,
    "metadata": {"closed_form": "diagonal", "a": "2", "b": "3"},
}


@pytest.mark.parametrize("change", [
    {"map": "2*x0; 5*x1; x2"},
    # sup_norm and arch_value agree at n = 1; gcd_value is 2, not 1
    {"ideal": ["2*x0 - 2*x2", "x1 - x2"]},
], ids=["map", "gcd-only"])
def test_closed_form_mismatch_is_flagged(tmp_path, capsys, change):
    cfg = write_config(tmp_path, "mismatch.json", {**DIAGONAL_CONFIG, **change})
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == ["closed-form cross-check failed at n=1"]
    assert payload["summary"]["closed_form_check"] == "failed at n=1"


def test_closed_form_check_is_skipped_off_the_start_1_1_1(tmp_path, capsys):
    cfg = write_config(tmp_path, "start.json",
                       {**DIAGONAL_CONFIG, "start": [2, 1, 1]})
    assert main(["run", "--config", cfg, "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["closed_form_check"] is None
    assert "closed-form cross-check skipped: start is not (1:1:1)" \
        in summary["advisories"]


@pytest.mark.parametrize("start", [[2, 2, 2], [-1, -1, -1]])
def test_closed_form_check_runs_on_every_multiple_of_1_1_1(tmp_path, capsys,
                                                           start):
    # each start is the point (1:1:1); the raw config start is not
    cfg = write_config(tmp_path, "multiple.json",
                       {**DIAGONAL_CONFIG, "start": start, "n_max": 6})
    assert main(["run", "--config", cfg, "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["closed_form_check"] == \
        "verified 6 rows against the diagonal-map closed form"


@pytest.mark.parametrize("params", [{"b": "3"}, {"a": "2.5", "b": "3"}],
                         ids=["missing", "not-an-integer"])
def test_closed_form_parameters_must_be_integers(tmp_path, capsys, params):
    data = {**DIAGONAL_CONFIG,
            "metadata": {"closed_form": "diagonal", **params}}
    cfg = write_config(tmp_path, "params.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == ["closed-form check requested but parameters "
                                "a, b missing or not integers"]
    assert payload["summary"]["closed_form_check"] is None


def test_degrees_and_run_share_the_fiber_flags(tmp_path, capsys):
    # the image of (x0^2 : x0*x1 : x1^2) is a conic, so every fiber over a
    # random target is empty
    flag = "fiber counting degenerate (map may fail to be dominant)"
    assert main(["degrees", "--map", "x0^2; x0*x1; x1^2", "--n-max", "2",
                 "--primes", "1009", "--targets", "4"]) == 2
    assert json.loads(capsys.readouterr().out)["flags"] == [flag]
    data = {"arity": 3, "map": "x0^2; x0*x1; x1^2", "ideal": ["x0", "x1"],
            "start": [1, 2, 3], "n_max": 3, "primes": [1009],
            "targets_per_prime": 4}
    cfg = write_config(tmp_path, "conic.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    assert flag in json.loads(capsys.readouterr().out)["flags"]


def test_degrees_and_run_give_the_same_fiber_counts(tmp_path, capsys):
    a2 = "x0^2*x1; x1^3 + x0^2*x1 + x0*x2^2; x2^3"
    assert main(["degrees", "--map", a2, "--n-max", "2", "--primes", "53,59",
                 "--targets", "20", "--seed", "1"]) == 0
    counts = json.loads(capsys.readouterr().out)["dN_counts"]
    data = {"arity": 3, "map": a2, "ideal": ["x0", "x1"], "start": [2, 3, 1],
            "n_max": 4, "primes": [53, 59], "targets_per_prime": 20,
            "composition_cap": 9}
    cfg = write_config(tmp_path, "a2.json", data)
    assert main(["run", "--config", cfg, "--format", "json",
                 "--seed", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fiber"] == counts
    assert counts["by_prime"]["53"] == [[4, 1], [7, 19]]


def test_fiber_counting_outside_p2_is_a_flag_in_both_front_ends(
        tmp_path, capsys):
    flag = "fiber counting skipped: implemented for maps of P^2 only"
    assert main(["degrees", "--map", "x0^2; x1^2", "--primes", "1009"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [flag] and "dN_counts" not in payload
    data = {"arity": 2, "map": "x0^2; x1^2", "ideal": ["x0"],
            "start": [1, 2], "n_max": 4, "primes": [1009],
            "targets_per_prime": 4}
    cfg = write_config(tmp_path, "line.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert flag in payload["flags"]
    assert payload["summary"]["fiber"] is None


def test_repeated_fiber_prime_is_skipped_in_both_front_ends(tmp_path, capsys):
    # a repeated prime used to replace its first histogram in by_prime, so
    # by_prime disagreed with the overall histogram
    flag = "fiber counting skipped prime 1009: repeated"
    assert main(["degrees", "--map", "x0^2*x1; x1^3; x2^3", "--n-max", "2",
                 "--primes", "1009,1009", "--targets", "3"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [flag]
    counts = payload["dN_counts"]
    assert counts["by_prime"] == {"1009": counts["histogram"]}
    assert counts["samples"] == 3
    data = {"arity": 3, "map": "x0^2*x1; x1^3; x2^3", "ideal": ["x0", "x1"],
            "start": [3, 2, 1], "n_max": 4, "primes": [1009, 2003, 1009],
            "targets_per_prime": 3}
    cfg = write_config(tmp_path, "twice.json", data)
    assert main(["run", "--config", cfg, "--format", "json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["flags"] == [flag]
    fiber = payload["summary"]["fiber"]
    assert list(fiber["by_prime"]) == ["1009", "2003"]
    assert fiber["samples"] == 6


@pytest.mark.parametrize("component", ["(" * 200 + "x2" + ")" * 200,
                                       "-" * 990 + "x2"])
def test_deeply_nested_map_is_a_user_error_in_both_front_ends(
        tmp_path, capsys, component):
    # the recursive-descent parser used to end in RecursionError (exit 3)
    map_text = "x0; x1; " + component
    assert main(["degrees", "--map", map_text, "--n-max", "1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: map[2]: nesting deeper than 64 (at position ")
    data = {"arity": 3, "map": map_text, "ideal": ["x0"],
            "start": [1, 2, 3], "n_max": 2}
    cfg = write_config(tmp_path, "deep.json", data)
    assert main(["run", "--config", cfg]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: map[2]: nesting deeper than 64 (at position ")


def _monomial(exps):
    return "*".join("x%d^%d" % (v, e) for v, e in enumerate(exps) if e)


@st.composite
def p2_configs(draw):
    """Valid P^2 scenario configs: each component has 1-4 distinct
    monomials of one degree d in 1..3 with coefficients +-1..3, 53 or 106
    (which 53 divides), and the primes include ones that wipe a component.

    composition_cap is 1, d or d^2, so no iterate past degree 9 is
    composed."""
    d = draw(st.integers(1, 3))
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3, 53, 106])
    comps = []
    for _ in range(3):
        support = draw(st.lists(st.sampled_from(monos), min_size=1,
                                max_size=4, unique=True))
        comps.append(" + ".join("%d*%s" % (draw(coeffs), _monomial(e))
                                for e in support))
    return {"arity": 3, "map": "; ".join(comps),
            "ideal": draw(st.sampled_from([["x0", "x1"],
                                           ["x0 - x2", "x1 - x2"],
                                           ["x0*x1", "x2^2"]])),
            "start": draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3)
                          .filter(any)),
            "n_max": draw(st.integers(0, 6)),
            "primes": draw(st.lists(st.sampled_from(
                [53, 59, 61, 67, 101, 1009, 2003, 4001]), max_size=3,
                unique=True)),
            "targets_per_prime": draw(st.integers(0, 3)),
            "composition_cap": draw(st.sampled_from([1, d, d * d]))}


@settings(max_examples=600, deadline=None)
@given(data=p2_configs())
def test_valid_configs_end_with_exit_zero_or_two(tmp_path_factory, data):
    # exit 1 or 3 would mean that run_scenario raised on a valid config
    cfg = write_config(tmp_path_factory.mktemp("fuzz"), data=data)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["run", "--config", cfg, "--format", "json"])
    assert code in (0, 2), err.getvalue()


def test_config_validation_failure_exits_one(tmp_path, capsys):
    bad = dict(PERIODIC_CONFIG, map="x1; x0")  # wrong component count
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["run", "--config", cfg]) == 1
    assert "error:" in capsys.readouterr().err


def test_diag_parameters_flow_through(capsys):
    assert main(["run", "--scenario", "diag", "--a", "3", "--b", "5",
                 "--n-max", "8", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["map"] == "3*x0; 5*x1; x2"
    assert main(["run", "--scenario", "diag", "--a", "1"]) == 1


def test_multipliers_are_rejected_outside_diag(tmp_path, capsys):
    cfg = write_config(tmp_path, "periodic.json", PERIODIC_CONFIG)
    for argv in (["--scenario", "bcz", "--a", "5"],
                 ["--scenario", "backnonfin", "--b", "5"],
                 ["--config", cfg, "--a", "3"]):
        assert main(["run"] + argv) == 1
        assert "error: %s: " % argv[-2] in capsys.readouterr().err


# ---------------------------------------------------------------------------
# seed


def test_same_seed_same_bytes(capsys):
    argv = ["run", "--scenario", "backnonfin", "--n-max", "8",
            "--format", "json", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert first.err.splitlines()[0] == BANNER % (__version__, 11)
    assert main(argv) == 0
    assert capsys.readouterr() == first


# ---------------------------------------------------------------------------
# degrees subcommand


def test_degrees_matrix_payload(capsys):
    assert main(["degrees", "--matrix", "2,1;0,3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "monomial"
    assert payload["matrix"] == [[2, 1], [0, 3]]
    degs = payload["monomial_degrees"]
    assert degs[0] == 1.0
    assert abs(degs[1] - 3.0) < 1e-9 and abs(degs[2] - 6.0) < 1e-9


def test_degrees_matrix_errors(capsys):
    assert main(["degrees", "--matrix", "1,2;2,4"]) == 1  # singular
    assert main(["degrees", "--matrix", "1,x;2,3"]) == 1
    assert main(["degrees"]) == 1
    capsys.readouterr()
    huge = str(10 ** 200)
    for text in (str(10 ** 400) + ",0;0,1", "%s,0;0,%s" % (huge, huge)):
        assert main(["degrees", "--matrix", text]) == 1
        assert "error: matrix: " in capsys.readouterr().err


def test_degrees_map_payload(capsys):
    assert main(["degrees", "--map", "x0^2*x1; x1^3; x2^3",
                 "--n-max", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "map"
    assert [e[:2] for e in payload["d1_sequence"]] \
        == [[1, 3], [2, 9], [3, 27], [4, 81]]
    assert abs(payload["d1_estimate"] - 3.0) < 1e-9
    assert not payload["truncated"]
    assert "dN_counts" not in payload
    assert payload["flags"] == []


def test_degrees_map_a2_to_degree_243(capsys):
    # the only degree-243 products in the suite
    assert main(["degrees", "--map", "x0^2*x1; x1^3 + x0^2*x1 + x0*x2^2; x2^3",
                 "--n-max", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e[:2] for e in payload["d1_sequence"]] \
        == [[1, 3], [2, 9], [3, 27], [4, 81], [5, 243]]
    assert not payload["truncated"] and payload["flags"] == []


# maps whose degree sequences stalled in gcd_multivar's exact path, on
# pairs of forms that are coprime, for 18 s to more than 890 s
FORMER_GCD_STALLS = {
    "degree-8": ("x0^8 + x1*x2^7; x1^8 - x0*x2^7; x2^8 + x0*x1^7", 2,
                 [8, 64]),
    "cubic-53": ("106*x0^2*x2 - x0*x2^2 - x1^2*x2; "
                 "3*x2^3 + 53*x0*x1^2 + 53*x0^3; "
                 "-3*x2^3 + 53*x1*x2^2 + 2*x0^2*x1", 2, [3, 9]),
    "dense-quadratic": ("-x1^2 + x1*x2 + 2*x0^2 - 2*x0*x1 + x2^2 + x0*x2; "
                        "-2*x1*x2 - 3*x0*x2 + 3*x0*x1 - x1^2 - 3*x2^2 - x0^2; "
                        "x2^2 - 3*x1^2 - x1*x2 + x0*x2 + 2*x0^2 - 2*x0*x1",
                        4, [2, 4, 8, 16]),
    "three-base-point-support": (
        "2*x0^2 + 2*x1*x2; -5*x1^2 - x0*x2; 4*x2^2 + 3*x0*x1", 4,
        [2, 4, 8, 16]),
}


@pytest.mark.parametrize("map_text, n_max, degrees",
                         FORMER_GCD_STALLS.values(),
                         ids=FORMER_GCD_STALLS.keys())
def test_former_gcd_stalls_finish(capsys, map_text, n_max, degrees):
    with within(10):
        assert main(["degrees", "--map", map_text,
                     "--n-max", str(n_max)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [d for _, d, _ in payload["d1_sequence"]] == degrees


def test_degrees_map_with_fiber_counts(capsys):
    assert main(["degrees", "--map", "x0^2*x1; x1^3; x2^3",
                 "--n-max", "3", "--primes", "1009", "--targets", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dN_counts"]["mode"] == 6
    assert payload["dN_counts"]["samples"] == 5


def test_degrees_truncation_flags_exit_two(capsys):
    assert main(["degrees", "--map", "x0^2*x1; x1^3; x2^3",
                 "--n-max", "9", "--budget", "100"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["truncated"]
    assert payload["flags"]


def test_degrees_bad_inputs(capsys):
    assert main(["degrees", "--map", "x0^2; x1"]) == 1  # inhomogeneous
    assert "error: map: " in capsys.readouterr().err
    assert main(["degrees", "--map", "x2; x0 +; x1"]) == 1
    assert "error: map[1]: " in capsys.readouterr().err
    assert main(["degrees", "--map", "x0^2*x1; x1^3; x2^3",
                 "--primes", "10a09"]) == 1
    assert main(["degrees", "--map", "x0^2*x1; x1^3; x2^3",
                 "--primes", "47"]) == 1


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("option", ["--targets", "--budget"])
def test_degrees_rejects_targets_and_budget_below_one(option, value, capsys):
    assert main(["degrees", "--map", "x0^2; x1^2; x2^2", "--primes", "1009",
                 option, value]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: %s: need an integer >= 1" % option[2:])


# ---------------------------------------------------------------------------
# installed entry points


def test_console_script_smoke():
    exe = shutil.which("orbitgcd")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "run", "--scenario", "bcz", "--n-max", "6"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER
    assert proc.stderr.splitlines()[0] == BANNER % (__version__, 0)


def test_cli_import_leaves_numpy_unloaded():
    # numpy is most of the import time, and only --matrix needs it; only
    # orbits with large values need the elimination module
    src = os.path.dirname(os.path.dirname(orbitgcd.__file__))
    code = ("import sys, orbitgcd.cli; sys.exit('numpy' in sys.modules "
            "or 'orbitgcd.elimination' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def test_small_runs_leave_elimination_unloaded(tmp_path):
    # the certificates pay for themselves only from CERTIFICATE_MIN_BITS
    # on; bcz, diag and a small random config stay far below it
    config = write_config(tmp_path, data={
        "arity": 3, "map": "x0^2 - 2*x1*x2; 3*x0*x1 + x2^2; x1^2 - x0*x2",
        "ideal": ["x0 - x2", "x1 - x2"], "start": [2, 5, 7], "n_max": 6,
        "primes": [1009], "targets_per_prime": 6, "composition_cap": 4})
    src = os.path.dirname(os.path.dirname(orbitgcd.__file__))
    code = ("import contextlib, io, sys\n"
            "from orbitgcd.cli import main\n"
            "runs = [['--scenario', 'bcz'],\n"
            "        ['--scenario', 'diag', '--a', '5', '--b', '7'],\n"
            "        ['--config', sys.argv[1]]]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(['run'] + argv) for argv in runs]\n"
            "sys.exit(codes != [0, 0, 0]\n"
            "         or 'orbitgcd.elimination' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, config], timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0


def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "orbitgcd", "--version"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "orbitgcd %s" % __version__
