"""Scenario configs, the experiment driver, trend analysis and rendering."""

import json
import math

import pytest

from orbitgcd import experiments
from orbitgcd.experiments import (CSV_HEADER, ConfigError, ScenarioConfig,
                                  build_scenario, builtin_scenario,
                                  classify_trend, config_from_dict,
                                  hypothesis_verdict, load_config_file,
                                  render_csv, render_json, render_summary,
                                  run_scenario)
from orbitgcd.heights import HeightRow


def small_config(**overrides):
    base = dict(arity=3, map="x0^2*x1; x1^3; x2^3", ideal=("x0", "x1"),
                start=(3, 2, 1), n_max=6)
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# config validation


def test_config_field_validation():
    cases = [
        (dict(arity=1), "arity"),
        (dict(map="x0^2; x1^2"), "map"),
        (dict(map="x0^2; ; x2^2"), "map"),
        (dict(ideal=()), "ideal"),
        (dict(ideal=("x0", "")), "ideal"),
        (dict(start=(1, 2)), "start"),
        (dict(start=(0, 0, 0)), "start"),
        (dict(n_max=-1), "n_max"),
        (dict(targets_per_prime=-2), "targets"),
        (dict(composition_cap=0), "composition_cap"),
        (dict(metadata={"k": 7}), "metadata"),
    ]
    for overrides, needle in cases:
        with pytest.raises(ConfigError) as err:
            small_config(**overrides)
        assert needle in str(err.value)


def test_config_from_dict_rejects_unknown_and_missing_keys():
    good = small_config().to_dict()
    assert config_from_dict(good) == small_config()
    bad = dict(good)
    bad["surprise"] = 1
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict(bad)
    missing = dict(good)
    del missing["start"]
    with pytest.raises(ConfigError, match="missing config key"):
        config_from_dict(missing)
    wrong = dict(good)
    wrong["n_max"] = True  # bool is not an acceptable integer
    with pytest.raises(ConfigError, match="n_max"):
        config_from_dict(wrong)


def test_load_config_file_roundtrip(tmp_path):
    cfg = small_config()
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert load_config_file(str(path)) == cfg
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config_file(str(path))
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="top level"):
        load_config_file(str(path))


def test_builtin_scenarios():
    for name in experiments.BUILTIN_NAMES:
        cfg = builtin_scenario(name)
        build_scenario(cfg)  # parses and validates cleanly
    with pytest.raises(ConfigError, match="unknown builtin"):
        builtin_scenario("mystery")
    with pytest.raises(ConfigError, match=">= 2"):
        builtin_scenario("diag", a=1, b=3)


def test_build_scenario_error_labels():
    with pytest.raises(ConfigError, match=r"map\[1\]"):
        build_scenario(small_config(map="x0^2*x1; x1^3 +; x2^3"))
    with pytest.raises(ConfigError, match="map:"):
        build_scenario(small_config(map="x0^2*x1; x1^3; x2^2"))  # inhomogeneous
    with pytest.raises(ConfigError, match=r"ideal\[0\]"):
        build_scenario(small_config(ideal=("x0 + )", "x1")))
    with pytest.raises(ConfigError, match="ideal:"):
        build_scenario(small_config(ideal=("x0 + x1^2",)))
    with pytest.raises(ConfigError, match=r"primes\[0\]"):
        build_scenario(small_config(primes=(47,)))


# ---------------------------------------------------------------------------
# trend classification (synthetic rows; only n, h and ratio are read)


def synth_rows(ratios, h_base=math.e):
    rows = []
    for n, r in enumerate(ratios):
        rows.append(HeightRow(n=n, bits=1, h=h_base ** (n + 1), height=None,
                              ratio=r))
    return rows


def test_trend_too_few_usable():
    t = classify_trend(synth_rows([0.5, 0.5, None, 0.5]))
    assert t.verdict == "inconclusive"
    assert t.usable == 3 and t.median_tail is None and t.window is None


def test_trend_low_median_goes_to_zero():
    t = classify_trend(synth_rows([0.9, 0.5, 0.3, 0.2, 0.1, 0.05]))
    assert t.verdict == "ratio -> 0"
    assert t.tail_count == 2  # ceil(6/3)
    assert t.median_tail == pytest.approx(0.075)
    assert t.window == (4, 5)


def test_trend_high_median_goes_to_one():
    t = classify_trend(synth_rows([0.2, 0.5, 0.8, 0.9, 0.95, 0.97]))
    assert t.verdict == "ratio -> 1"
    assert t.median_tail == pytest.approx(0.96)


def test_trend_middle_median_inconclusive():
    t = classify_trend(synth_rows([0.5] * 8))
    assert t.verdict == "inconclusive"
    assert t.median_tail == pytest.approx(0.5)


def test_trend_skips_unusable_rows_and_fits_diagnostic_line():
    ratios = [None, 0.8, 0.7, 0.6, 0.5, 0.4, None, 0.3]
    t = classify_trend(synth_rows(ratios))
    assert t.usable == 6
    assert t.tail_count == 2
    assert t.window == (5, 7)  # n of the tail rows, not positions
    assert t.ols_points == 2
    assert t.ols_slope is not None and t.ols_intercept is not None


# ---------------------------------------------------------------------------
# hypothesis decision rule


def test_hypothesis_verdict_branches():
    assert hypothesis_verdict(None, 6.0, True, False, True).startswith(
        "insufficient data")
    assert hypothesis_verdict(2.0, 6.0, True, False, True) \
        == "hypothesis fails: alpha <= sqrt(d_top)"
    assert hypothesis_verdict(3.0, 6.0, True, False, True) \
        == "predicts ratio -> 0"
    assert hypothesis_verdict(3.0, 6.0, None, True, True) \
        == "predicts ratio -> 0"  # morphisms qualify without containment info
    assert hypothesis_verdict(3.0, 6.0, True, False, False) \
        == "hypotheses not fully met: orbit genericity unknown"
    assert hypothesis_verdict(3.0, 6.0, False, False, True) \
        == "not applicable: subscheme outside the admissible locus"
    assert hypothesis_verdict(3.0, 6.0, None, False, True) \
        == "insufficient data: containment unknown"


def test_hypothesis_verdict_monotone_in_alpha():
    rank = {"hypothesis fails: alpha <= sqrt(d_top)": 0,
            "predicts ratio -> 0": 1}
    last = 0
    for alpha in (0.5, 1.0, 2.44, 2.45, 2.5, 3.0, 10.0):
        v = hypothesis_verdict(alpha, 6.0, True, False, True)
        assert rank[v] >= last
        last = rank[v]


# ---------------------------------------------------------------------------
# full scenario runs against independently derived values


def test_backnonfin_scenario_report():
    report = run_scenario(builtin_scenario("backnonfin"), name="backnonfin",
                          seed=0)
    assert [r.n for r in report.rows] == list(range(13))
    assert report.flags == []
    # exact coordinates force the closed-form ratio at n = 12
    num = (3 ** 12 - 2 ** 12) * math.log(2)
    den = 2 ** 12 * math.log(3) + (3 ** 12 - 2 ** 12) * math.log(2)
    assert report.rows[12].ratio == pytest.approx(num / den, abs=1e-9)
    assert report.rows[12].ratio > 0.98
    # ratios increase from n = 3 on
    ratios = [r.ratio for r in report.rows]
    for a, b in zip(ratios[3:], ratios[4:]):
        assert b > a
    assert report.trend.verdict == "ratio -> 1"
    assert report.trend.median_tail == pytest.approx(0.972790, abs=5e-7)
    assert report.trend.window == (8, 12)
    # the diagnostic line extrapolates well past 1; it must not decide
    assert report.trend.ols_intercept == pytest.approx(1.083670, abs=5e-7)
    assert report.fiber.mode == 6
    assert report.alpha.ratio_tail == pytest.approx(2.982552, abs=5e-7)
    assert report.alpha.root_tail == pytest.approx(2.910848, abs=5e-7)
    assert report.hypotheses.verdict \
        == "not applicable: subscheme outside the admissible locus"
    assert report.genericity.verdict == "generic-consistent"
    assert report.closed_form_check is None


def test_coupled_cubic_scenario_report():
    report = run_scenario(builtin_scenario("a2"), name="a2", seed=0)
    assert [r.n for r in report.rows] == list(range(11))
    assert report.flags == []
    for row in report.rows:
        assert row.height.gcd_value == 1
        assert row.height.gcd_part == 0.0
    assert report.rows[10].bits == 106252
    assert report.fiber.mode == 7
    assert report.alpha.ratio_tail == pytest.approx(3.0, abs=1e-5)
    assert report.alpha.ratio_tail > math.sqrt(7)
    assert report.trend.verdict == "ratio -> 0"
    assert report.hypotheses.verdict == "predicts ratio -> 0"


def test_diagonal_scenario_report():
    report = run_scenario(builtin_scenario("bcz"), name="bcz", seed=0)
    assert [r.n for r in report.rows] == list(range(41))
    assert report.flags == []
    assert report.rows[0].height.infinite and report.rows[0].ratio is None
    assert report.trend.verdict == "ratio -> 0"
    assert report.trend.median_tail == pytest.approx(0.043243, abs=5e-7)
    assert report.trend.window == (27, 40)
    assert report.trend.ols_intercept == pytest.approx(0.474344, abs=5e-7)
    assert report.fiber.mode == 1
    assert report.alpha.ratio_tail == pytest.approx(1.031249, abs=5e-7)
    assert report.hypotheses.verdict == "predicts ratio -> 0"
    assert report.closed_form_check \
        == "verified 40 rows against the diagonal-map closed form"


def test_dependent_diagonal_parameters_draw_advisories():
    report = run_scenario(builtin_scenario("diag", a=2, b=4), name="diag",
                          seed=0)
    assert any("multiplicatively dependent" in a for a in report.advisories)
    assert any("may lie on a low-degree hypersurface" in a
               for a in report.advisories)
    assert report.genericity.verdict == "possibly-contained"
    assert report.flags == []  # advisories are not flags


def test_orbit_into_indeterminacy_sets_flag():
    # (1:0:1) -> (0:0:1), where all three components vanish
    cfg = small_config(map="x0*x1; x1^2; x0*x2", start=(1, 0, 1), n_max=5)
    report = run_scenario(cfg)
    assert report.orbit.indeterminate_at == 1
    assert len(report.rows) == 1
    assert any("indeterminacy" in f for f in report.flags)


@pytest.mark.parametrize("map_text, caps", [
    ("x0^2*x1; x1^3; x2^3", (1, 2, 3, 8, 9, 26, 27, 80, 81)),  # 3^n
    ("x1*x2; x0*x2; x0*x1", (1, 2, 3, 4, 7, 8, 15, 16)),  # 2, 1, 2, 1, ...
    ("x0^2 + x1*x2; x1^2 - x0*x2; x2^2 + x0*x1",
     (1, 2, 3, 4, 7, 8, 15, 16)),  # 2, 4, 8, 13
    ("2*x0; 3*x1; x2", (1, 2, 81))])
def test_composition_cap_never_truncates_the_run_degree_sequence(map_text, caps):
    # run_scenario asks for n_seq iterates with deg^n_seq <= composition_cap,
    # and deg f^n <= deg^n, so the budget cannot stop the sequence
    for cap in caps:
        report = run_scenario(small_config(map=map_text, n_max=1,
                                           composition_cap=cap))
        assert not report.degree_seq.truncated
        assert report.flags == []


def test_periodic_orbit_sets_flag():
    cfg = ScenarioConfig(arity=3, map="x1; x0; x2", ideal=("x0 - x1",),
                         start=(2, 5, 1), n_max=9)
    report = run_scenario(cfg)
    assert report.orbit.periodic and report.orbit.period_start == 0
    assert len(report.rows) == 2
    assert any("periodic" in f for f in report.flags)


# ---------------------------------------------------------------------------
# rendering


def test_csv_shape_and_empty_cells():
    report = run_scenario(builtin_scenario("bcz"), name="bcz", seed=0)
    text = render_csv(report)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 42
    assert lines[1] == "0,1,0,,,,"  # start lies on the subscheme
    assert lines[2].startswith("1,2,")
    for line in lines[2:]:
        assert len(line.split(",")) == 7
        assert "" not in line.split(",")
    assert text.endswith("\n")


def test_csv_float_format():
    report = run_scenario(small_config(n_max=2))
    line = render_csv(report).splitlines()[2]
    cells = line.split(",")
    assert cells[2] == "%.12g" % math.log(18)


def test_report_rendering_deterministic():
    a = run_scenario(builtin_scenario("backnonfin"), name="x", seed=3)
    b = run_scenario(builtin_scenario("backnonfin"), name="x", seed=3)
    assert render_csv(a) == render_csv(b)
    assert render_json(a) == render_json(b)
    assert render_summary(a) == render_summary(b)


def test_json_payload_contents():
    report = run_scenario(builtin_scenario("bcz"), name="bcz", seed=1)
    payload = json.loads(render_json(report))
    assert payload["scenario"] == "bcz" and payload["seed"] == 1
    assert payload["config"] == builtin_scenario("bcz").to_dict()
    assert len(payload["rows"]) == 41
    assert payload["rows"][0]["ratio"] is None
    summary = payload["summary"]
    assert summary["trend"]["verdict"] == "ratio -> 0"
    assert summary["fiber"]["mode"] == 1
    assert summary["closed_form_check"].startswith("verified 40 rows")
    assert payload["flags"] == []


def test_summary_mentions_key_findings():
    report = run_scenario(builtin_scenario("backnonfin"), name="backnonfin",
                          seed=0)
    text = render_summary(report)
    assert text.startswith("scenario backnonfin (seed=0)\n")
    assert "topological degree mode 6" in text
    assert "ratio -> 1" in text
    assert "hypothesis check: not applicable" in text


def test_empty_orbit_renders_header_only():
    cfg = small_config(start=(1, 0, 0), n_max=4)  # start is a base point
    report = run_scenario(cfg)
    assert report.rows == []
    assert render_csv(report) == CSV_HEADER + "\n"
    assert "no points computed" in render_summary(report)
