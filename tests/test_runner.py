import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ltlab
from ltlab import cli, potentials, runner, scattering


def write_config(tmp_path, scenarios, name="config.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps({"schema_version": 1, "suite": "unit", "scenarios": scenarios})
    )
    return path


CLOSED_FORMS = {
    "name": "closed-forms",
    "audits": ["classical-constants", "product-identity", "lifting-identity"],
}
POSCHL_TELLER_1 = {"family": "poschl-teller", "parameters": {"nu": 1.0}}


def test_validate_config_field_messages():
    with pytest.raises(runner.ConfigError, match="config: expected"):
        runner.validate_config([])
    with pytest.raises(runner.ConfigError, match="schema_version"):
        runner.validate_config({"schema_version": 99, "scenarios": []})
    with pytest.raises(runner.ConfigError, match="scenarios: expected a nonempty list"):
        runner.validate_config({"schema_version": 1, "scenarios": "x"})

    def check(scenarios, message):
        with pytest.raises(runner.ConfigError, match=message):
            runner.validate_config({"schema_version": 1, "scenarios": scenarios})

    check([{"audits": ["cauchy-kernel"]}], r"scenarios\[0\].name")
    check(
        [
            {"name": "a", "audits": ["cauchy-kernel"]},
            {"name": "a", "audits": ["cauchy-kernel"]},
        ],
        r"scenarios\[1\].name: duplicate",
    )
    check([], r"scenarios: expected a nonempty list, found \[\]")
    check([{"name": "a", "audits": []}], "nonempty list")
    check([{"name": "a", "audits": ["cauchy-kernel", "lifting-identity", "cauchy-kernel"]}],
          r"scenarios\[0\].audits: duplicate audit tag 'cauchy-kernel'")
    check([{"name": "a", "audits": ["bogus-tag"]}], "unknown audit tag 'bogus-tag'")
    check(
        [{"name": "a", "audits": ["sharp-half"]}],
        "'sharp-half' needs a potential",
    )
    check(
        [
            {
                "name": "a",
                "audits": ["sharp-half"],
                "potential": {"family": "random-smooth", "parameters": {"matrix_dim": 2}},
            }
        ],
        "needs an explicit seed",
    )

    def check_potential(potential, message):
        check([{"name": "a", "audits": ["sharp-half"], "potential": potential}], message)

    gaussian = {"family": "gaussian", "parameters": {"depth": 1.0, "width": 1.0}}
    check_potential({"family": "gausian"}, r"scenarios\[0\].potential: expected an object with a family")
    check_potential(["gaussian"], "expected an object with a family")
    check_potential(
        {"family": "gaussian", "parameters": {"depth": 1.0, "width": 1.0, "widht": 1.0}},
        r"potential.parameters: gaussian: .*'widht'",
    )
    check_potential({"family": "gaussian", "parameters": {"depth": 1.0}}, "missing")
    check_potential(
        {"family": "direct-sum", "parameters": {"blocks": [gaussian]}},
        "direct-sum needs exactly two blocks",
    )
    check_potential(
        {"family": "direct-sum", "parameters": {"blocks": [gaussian, {"family": "gausian"}]}},
        r"potential.parameters.blocks\[1\]: expected an object with a family",
    )
    check_potential(
        {"family": "scaled", "parameters": {"base": gaussian}},
        "scaled needs exactly 'base' and 'coupling'",
    )
    check_potential(
        {"family": "scaled", "parameters": {"coupling": 2.0, "base": {
            "family": "random-smooth", "parameters": {"matrix_dim": 2}}}},
        r"potential.parameters.base: family 'random-smooth' needs an explicit seed",
    )
    check(
        [
            {
                "name": "a",
                "audits": ["cauchy-kernel"],
                "grid": {"step": 0.1},
            }
        ],
        "grid: unknown key 'step'",
    )
    check(
        [
            {
                "name": "a",
                "audits": ["cauchy-kernel"],
                "tolerances": {"cauchy-kernel": 0.0},
            }
        ],
        "positive number",
    )


def test_run_config_writes_outputs(tmp_path):
    cfg = write_config(tmp_path, [CLOSED_FORMS])
    out = tmp_path / "out"
    manifest = runner.run_config(cfg, out_dir=out)
    assert manifest["global_pass"] is True
    assert manifest["suite"] == "unit"
    assert len(manifest["scenarios"]) == 1
    assert manifest["scenarios"][0]["error"] is None
    assert len(manifest["scenarios"][0]["reports"]) > 0

    stored = json.loads((out / "manifest.json").read_text())
    assert stored == manifest
    csv_text = (out / "summary.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == "scenario,audit_tag,paper_ref,gamma,d,lhs,rhs,ratio,tolerance,pass"


# 2 / 0.5 = 4 deep over half a unit: log|det A| has not decayed by the k cap,
# so the scattering stage raises "insufficient decay" at run time, a failure
# that no validation can see
UNDECAYED = {
    "name": "undecayed",
    "potential": {"family": "rank-one-narrow",
                  "parameters": {"integral": 2.0, "width": 0.5, "matrix_dim": 1}},
}


def test_failing_scenario_is_isolated(tmp_path):
    # the audits after a failing one in the scenario still run
    bad = {**UNDECAYED, "audits": ["unitarity", "cauchy-kernel", "spectral-positivity"]}
    cfg = write_config(tmp_path, [bad, CLOSED_FORMS])
    manifest = runner.run_config(cfg)
    assert manifest["global_pass"] is False
    first, second = manifest["scenarios"]
    assert first["name"] == "undecayed"
    # one line per failing audit; the stage's message holds a "; " of its own
    failure = "ValueError: insufficient decay"
    assert first["error"].startswith(f"unitarity: {failure}")
    assert f"; spectral-positivity: {failure}" in first["error"]
    assert first["error"].count(failure) == 2
    assert [r["audit_tag"] for r in first["reports"]] == ["cauchy-kernel"]
    assert first["reports"][0]["passed"] is True
    assert second["error"] is None
    assert len(second["reports"]) > 0


def test_manifest_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, [CLOSED_FORMS])
    one = runner.run_config(cfg)
    two = runner.run_config(cfg)
    parallel = runner.run_config(cfg, jobs=2)
    frozen = runner.render_manifest(runner.strip_timing(one))
    assert runner.render_manifest(runner.strip_timing(two)) == frozen
    assert runner.render_manifest(runner.strip_timing(parallel)) == frozen


def test_strip_timing_is_recursive():
    nested = {"a": [{"wall_time_s": 1.0, "timings": {"x": 1.0}, "x": 2}], "wall_time_s": 3.0}
    assert runner.strip_timing(nested) == {"a": [{"x": 2}]}


def test_scenario_timings_cover_audits_and_stages(tmp_path):
    cfg = write_config(tmp_path, [{
        "name": "pt", "potential": POSCHL_TELLER_1, "audits": ["sharp-half", "cauchy-kernel"],
    }])
    manifest = runner.run_config(cfg)
    timings = manifest["scenarios"][0]["timings"]
    assert set(timings) == {"sharp-half", "cauchy-kernel", "potential", "box_radius", "spectrum"}
    assert all(seconds >= 0.0 for seconds in timings.values())
    # an audit's seconds include the stages it built
    assert timings["sharp-half"] >= timings["spectrum"]
    assert "timings" not in runner.strip_timing(manifest)["scenarios"][0]


def test_scattering_scenarios_record_their_jost_work(tmp_path):
    cfg = write_config(tmp_path, [
        {"name": "pt", "potential": POSCHL_TELLER_1, "audits": ["unitarity", "spectral-positivity"]},
        {"name": "pt-spectrum", "potential": POSCHL_TELLER_1, "audits": ["sharp-half"]},
    ])
    manifest = runner.run_config(cfg)
    jost, spectral = manifest["scenarios"]
    data = scattering.compute_scattering(potentials.build(POSCHL_TELLER_1))
    assert jost["provenance"] == {"scattering": data.work}
    assert data.work["passes"] >= 1 and data.work["steps"] >= 1
    assert data.work["wavenumbers"] >= data.k_grid.size
    assert spectral["provenance"] == {}
    # the counts are deterministic, so strip_timing keeps them
    assert runner.strip_timing(manifest)["scenarios"][0]["provenance"] == jost["provenance"]


def test_report_formats(tmp_path):
    cfg = write_config(tmp_path, [CLOSED_FORMS])
    manifest = runner.run_config(cfg)
    md = runner.render_report(manifest, "md")
    assert "# Audit summary: unit" in md
    assert "## Semiclassical constants" in md
    assert "| closed-forms |" in md
    back = json.loads(runner.render_report(manifest, "json"))
    assert back == manifest
    csv_text = runner.render_report(manifest, "csv")
    assert csv_text.splitlines()[0].split(",") == runner.CSV_COLUMNS
    with pytest.raises(ValueError, match="format"):
        runner.render_report(manifest, "xml")


def test_markdown_marks_inconclusive_rows():
    manifest = {
        "suite": "unit",
        "tool_version": "0",
        "config_digest": "d",
        "global_pass": True,
        "scenarios": [
            {
                "name": "s",
                "error": None,
                "reports": [
                    {
                        "audit_tag": "diamagnetic-trend",
                        "citation": "trend:diamagnetic",
                        "gamma": 1.5,
                        "d": 2,
                        "lhs": 2.0,
                        "rhs": 1.0,
                        "ratio": 2.0,
                        "tolerance": 1e-9,
                        "passed": False,
                        "inconclusive": True,
                    }
                ],
            }
        ],
    }
    md = runner.manifest_to_markdown(manifest)
    assert "inconclusive" in md
    csv_text = runner.manifest_to_csv(manifest)
    assert csv_text.strip().splitlines()[1].endswith("inconclusive")


def test_cli_run_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, [CLOSED_FORMS])
    out = tmp_path / "cli-out"
    code = cli.main(["run", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "global pass = True" in captured.out

    code = cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("scenario,audit_tag")

    code = cli.main(["report", "--manifest", str(out / "manifest.json"), "--format", "xml"])
    assert code == 2
    assert "unknown report format 'xml'" in capsys.readouterr().err

    code = cli.main(["report", "--manifest", str(tmp_path / "missing.json"), "--format", "md"])
    assert code == 2

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["report", "--manifest", str(broken), "--format", "md"]) == 2

    payload = tmp_path / "noscenarios.json"
    payload.write_text("{}")
    assert cli.main(["report", "--manifest", str(payload), "--format", "md"]) == 2


def test_cli_failing_suite_returns_one(tmp_path, capsys):
    cfg = write_config(tmp_path, [{**UNDECAYED, "audits": ["unitarity"]}])
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 1
    assert "scenario error: undecayed" in captured.err


def test_cli_config_error_returns_two(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"schema_version": 99, "scenarios": []}))
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err

@pytest.mark.parametrize("content, message", [
    (None, "cannot read"),
    ('{"schema_version": 1,', "not valid JSON"),
], ids=["missing", "truncated"])
def test_cli_unreadable_config_returns_two(tmp_path, capsys, content, message):
    cfg = tmp_path / "config.json"
    if content is not None:
        cfg.write_text(content)
    with pytest.raises(runner.ConfigError, match=message):
        runner.run_config(cfg)
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err and message in captured.err
    assert not (tmp_path / "o").exists()


def test_cli_misspelled_separable_well_returns_two(tmp_path, capsys):
    well = {"kind": "separable", "family": "gausian",
            "parameters": {"depth": 6.0, "width": 1.0}}
    cfg = write_config(tmp_path, [{
        "name": "plane", "audits": ["lt-2d"], "options": {"well": well},
    }])
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert r"scenarios[0].options.well: expected an object with a family" in captured.err


def test_planar_well_validation():
    def check(well, message):
        with pytest.raises(runner.ConfigError, match=message):
            runner.validate_config({"schema_version": 1, "scenarios": [
                {"name": "a", "audits": ["lt-2d"], "options": {"well": well}}]})

    check({"kind": "gaussian", "depth": 8.0}, "gaussian well needs 'width'")
    check({"kind": "round", "depth": 8.0, "width": 1.0}, "kind 'gaussian' or 'separable'")
    check([8.0, 1.2], "kind 'gaussian' or 'separable'")
    check({"kind": "separable", "family": "gaussian", "parameters": {"depth": 6.0}},
          r"options.well.parameters: gaussian: .*missing")
    check({"kind": "separable", "family": "gaussian",
           "parameters": {"depth": 6.0, "width": 1.0}, "depth": 6.0},
          r"options.well: unknown key 'depth'")


@pytest.mark.parametrize("scenario, message", [
    # each of these ran until the bad value was read, and dropped the audit after it
    ({"audits": ["stable-c0", "characteristic-roundtrip"],
      "options": {"density": {"stability_index": 1.0}, "operator_exponent": 2.0,
                  "reference": "tau"}},
     "options.reference: expected numeric or 'pi' value, found 'tau'"),
    ({"audits": ["lifted-moment", "sharp-half"], "potential": POSCHL_TELLER_1,
      "options": {"gammas": 1.5}},
     "options.gammas: expected numeric-list value, found 1.5"),
    ({"audits": ["lifting-identity", "cauchy-kernel"], "options": {"count": "twenty"}},
     "options.count: expected integer value, found 'twenty'"),
    # a count of 0 wrote no record and passed
    ({"audits": ["lifting-identity"], "options": {"count": 0}},
     "options.count: need a count of at least 1"),
    # an option is typed whether or not an audit of the scenario reads it
    ({"audits": ["cauchy-kernel"], "options": {"gammas": [1.0, "1.5"]}},
     "options.gammas: expected numeric-list value"),
    ({"audits": ["lt-2d"], "options": {
        "well": {"kind": "gaussian", "depth": 8.0, "width": 1.2}, "num_interior": 20.5}},
     "options.num_interior: expected integer value, found 20.5"),
    ({"audits": ["cauchy-kernel"], "options": {"refine_grid": 1}},
     "options.refine_grid: expected boolean value, found 1"),
    ({"audits": ["cauchy-kernel"], "options": {"couplings": {"start": 1.0, "stop": 9.0}}},
     "options.couplings: expected numeric-list or {start, stop, count} value"),
    ({"audits": ["cauchy-kernel"], "options": {"field_strength": True}},
     "options.field_strength: expected numeric value, found True"),
    # and converted once, whether or not an audit reads it: a value its Kind cannot convert
    ({"audits": ["cauchy-kernel"], "options": {"couplings": {"start": 0.0, "stop": 9.0, "count": 8}}},
     "options.couplings: Geometric sequence cannot include zero"),
    ({"audits": ["lifted-moment"], "potential": POSCHL_TELLER_1, "options": {"gammas": [10**400]}},
     "options.gammas: int too large to convert to float"),
    # the fields of a density and of a Gaussian well are typed like options
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {"stability_index": 1.0, "scale": "one"}}},
     "options.density.scale: expected numeric value, found 'one'"),
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {"stability_index": 1.0, "grid_cutoff": [40.0]}}},
     "options.density.grid_cutoff: expected numeric value, found [40.0]"),
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {"stability_index": 1.0, "grid_points": 801.0}}},
     "options.density.grid_points: expected integer value, found 801.0"),
    ({"audits": ["lt-2d"], "options": {"well": {"kind": "gaussian", "depth": "8", "width": 1.2}}},
     "options.well.depth: expected numeric value, found '8'"),
    ({"audits": ["lt-2d"], "options": {"well": {"kind": "gaussian", "depth": 8.0, "width": None}}},
     "options.well.width: expected numeric value, found None"),
    # and a misspelt field is refused by name, not run with its default
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {"stability_index": 1.0, "grid_point": 100}}},
     "options.density: unknown key 'grid_point'"),
    ({"audits": ["lt-2d"],
      "options": {"well": {"kind": "gaussian", "depth": 8.0, "width": 1.2, "dpeth": 3}}},
     "options.well: unknown key 'dpeth'"),
], ids=["reference", "gammas", "count", "count-zero", "unread", "planar-grid", "flag", "couplings", "bool",
        "couplings-zero", "gammas-overflow", "density-scale", "density-cutoff", "density-points", "well-depth", "well-width",
        "density-key", "well-key"])
def test_ill_typed_options_exit_two(tmp_path, capsys, scenario, message):
    cfg = write_config(tmp_path, [{"name": "a", **scenario}])
    with pytest.raises(runner.ConfigError, match=re.escape(f"scenarios[0].{message}")):
        runner.validate_config(json.loads(cfg.read_text()))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


GAUSSIAN_1 = {"family": "gaussian", "parameters": {"depth": 1.0, "width": 1.0}}
MISPLACED_STEP = {**GAUSSIAN_1, "grid_step": 0.05}


@pytest.mark.parametrize("config, message", [
    ({"suit": "unit"}, "config: unknown key 'suit'"),
    ({"scenarios": [{**CLOSED_FORMS, "tolerance": {"lifting-identity": 0.1}}]},
     "scenarios[0]: unknown key 'tolerance'"),
    ({"scenarios": [{**CLOSED_FORMS, "gird": {"num_interior": 800}}]},
     "scenarios[0]: unknown key 'gird'"),
    # a grid_step beside parameters, not inside them
    ({"scenarios": [{"name": "a", "audits": ["sharp-half"], "potential": MISPLACED_STEP}]},
     "scenarios[0].potential: unknown key 'grid_step'"),
    ({"scenarios": [{"name": "a", "audits": ["sharp-half"], "potential": {
        "family": "direct-sum", "parameters": {"blocks": [GAUSSIAN_1, MISPLACED_STEP]}}}]},
     "scenarios[0].potential.parameters.blocks[1]: unknown key 'grid_step'"),
    ({"scenarios": [{"name": "a", "audits": ["sharp-half"], "potential": {
        "family": "scaled", "parameters": {"base": MISPLACED_STEP, "coupling": 2.0}}}]},
     "scenarios[0].potential.parameters.base: unknown key 'grid_step'"),
], ids=["top-level", "scenario-tolerance", "scenario-grid", "potential", "direct-sum-block",
        "scaled-base"])
def test_unknown_config_keys_exit_two(tmp_path, capsys, config, message):
    config = {"schema_version": 1, "suite": "unit", "scenarios": [CLOSED_FORMS], **config}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(runner.ConfigError, match=re.escape(message)):
        runner.validate_config(config)
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_unknown_option_names_are_ignored():
    runner.validate_config({"schema_version": 1, "scenarios": [{
        "name": "a", "audits": ["cauchy-kernel"], "options": {"rank": 6, "gamma": "x"},
    }]})


@pytest.mark.parametrize("tag", ["cauchy-kernal", "unitarity", "classical-constants"],
                         ids=["misspelt", "not-run", "no-tolerance"])
def test_tolerance_keys_are_validated(tmp_path, capsys, tag):
    cfg = write_config(tmp_path, [{**CLOSED_FORMS, "audits": CLOSED_FORMS["audits"] + [
        "cauchy-kernel"], "tolerances": {tag: 1e-3}}])
    with pytest.raises(runner.ConfigError, match=rf"scenarios\[0\].tolerances.{tag}: expected "
                       "one of the scenario's audits that takes a tolerance"):
        runner.validate_config(json.loads(cfg.read_text()))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


def test_sharp_half_sweep_reads_its_own_tolerance():
    def tolerances(given):
        result = runner.run_scenario(runner.validate_config({"schema_version": 1, "scenarios": [{
            "name": "sweep", "audits": ["sharp-half-sweep"],
            "options": {"widths": [0.05, 0.025]}, "tolerances": given,
        }]})[0])
        assert result["error"] is None
        return [r["tolerance"] for r in result["reports"]
                if r["citation"] == "bound:half-moment-sharp"]

    default = tolerances({})
    assert len(default) == 2 and all(1e-3 <= t < 0.01 for t in default)
    assert [t - 0.25 for t in tolerances({"sharp-half-sweep": 0.25})] == pytest.approx(
        [t - 1e-3 for t in default], abs=1e-12)


def test_readme_option_table_matches_audits():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| option | type | used by | meaning |")[1].split("\n\n")[0]
    documented = {
        name for row in table.splitlines()[2:]
        for name in re.findall(r"`(\w+)`", row.split("|")[1])
    }
    declared = {name for audit in runner.AUDITS.values() for name in audit.options}
    stage_options = {"well", "density", "box_radius", "num_interior", "field_strength"}
    assert documented == declared | stage_options
    assert set(runner.OPTION_KINDS) == declared | stage_options - {"well", "density"}
    tags = readme.split("Registered audit tags:")[1].split("\n\n")[0]
    assert re.findall(r"`([\w-]+)`", tags) == list(runner.AUDITS)
    reading = readme.split("among their inputs (")[1].split(")")[0]
    assert re.findall(r"`([\w-]+)`", reading) == [
        tag for tag, audit in runner.AUDITS.items() if "potential" in audit.inputs]


def test_required_stage_inputs_are_validated():
    def check(audits, options, message):
        with pytest.raises(runner.ConfigError, match=message):
            runner.validate_config({"schema_version": 1, "scenarios": [
                {"name": "a", "audits": audits, "options": options}]})

    check(["lt-2d"], {}, r"scenarios\[0\].options.well: audit 'lt-2d' needs a well")
    check(["gauge-invariance"], {"box_radius": 8.0}, "'gauge-invariance' needs a well")
    check(["stable-c0"], {"operator_exponent": 1.0, "reference": "pi"},
          r"options.density: audit 'stable-c0' needs a density")
    check(["characteristic-roundtrip"], {}, "needs a density")
    check(["stable-c0"], {"density": {"scale": 1.0}}, "numeric stability_index")
    # fractional-moment reads the density only to search for its constant
    potential = {"family": "poschl-teller", "parameters": {"nu": 1.0}}
    with pytest.raises(runner.ConfigError, match="'fractional-moment' needs a density"):
        runner.validate_config({"schema_version": 1, "scenarios": [
            {"name": "a", "audits": ["fractional-moment"], "potential": potential,
             "options": {"operator_exponent": 1.0}}]})
    runner.validate_config({"schema_version": 1, "scenarios": [
        {"name": "a", "audits": ["fractional-moment"], "potential": potential,
         "options": {"operator_exponent": 1.0, "comparison_constant": "pi"}}]})
    # both audits read options.operator_exponent as a number
    density = {"stability_index": 1.0, "scale": 1.0}
    check(["stable-c0"], {"density": density, "reference": "pi"},
          r"options.operator_exponent: audit 'stable-c0' needs a numeric operator_exponent")
    check(["stable-c0"], {"density": density, "operator_exponent": "1"},
          "needs a numeric operator_exponent")
    for exponent in (None, True):
        with pytest.raises(runner.ConfigError,
                           match="'fractional-moment' needs a numeric operator_exponent"):
            runner.validate_config({"schema_version": 1, "scenarios": [
                {"name": "a", "audits": ["fractional-moment"], "potential": potential,
                 "options": {"operator_exponent": exponent, "comparison_constant": "pi"}}]})


@pytest.mark.parametrize("grid, message", [
    ({"refine": 0}, "refine: expected a positive integer, found 0"),
    ({"refine": 1.5}, "refine: expected a positive integer"),
    ({"refine": True}, "refine: expected a positive integer"),
    ({"k_max": -3}, "k_max: expected a number above K_MIN"),
    ({"k_max": 1e-3}, "k_max: expected a number above K_MIN"),
    ({"k_max": "40"}, "k_max: expected a number above K_MIN"),
    ({"num_interior": 15}, "num_interior: expected an integer of at least 16"),
    ({"num_interior": 800.0}, "num_interior: expected an integer"),
    ({"box_radius": 0.0}, "box_radius: expected a positive number"),
    ({"box_radius": None}, "box_radius: expected a positive number"),
])
def test_grid_values_are_validated(tmp_path, capsys, grid, message):
    cfg = write_config(tmp_path, [{
        "name": "pt", "audits": ["unitarity"], "grid": grid,
        "potential": {"family": "poschl-teller", "parameters": {"nu": 1.0}},
    }])
    with pytest.raises(runner.ConfigError, match=rf"scenarios\[0\].grid.{message}"):
        runner.validate_config(json.loads(cfg.read_text()))
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


GAUSSIAN_PLANE = {"kind": "gaussian", "depth": 8.0, "width": 1.0}
CAUCHY = {"stability_index": 1.0}


@pytest.mark.parametrize("scenario, message", [
    # the Richardson fine grid of 2M + 1 = 201 points per side
    ({"audits": ["lt-2d"], "options": {"well": GAUSSIAN_PLANE, "num_interior": 100}},
     r"options.num_interior: grid cap 160 per side exceeded"),
    ({"audits": ["gauge-invariance"], "options": {"well": GAUSSIAN_PLANE, "gauge_points": 4}},
     r"options.gauge_points: need at least 8 interior points per side"),
    ({"audits": ["remainder-sweep"], "potential": POSCHL_TELLER_1,
      "options": {"couplings": [1, 2, 3, 4, 5, -6]}},
     r"options.couplings: couplings must be positive"),
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {**CAUCHY, "grid_points": 8}}},
     r"options.density \(grid_points, grid_cutoff\): momentum grid must be 1d with at least 16"),
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {**CAUCHY, "grid_cutoff": 0.0}}},
     r"options.density \(grid_points, grid_cutoff\): momentum grid must be increasing"),
    ({"audits": ["stable-c0"], "options": {"density": CAUCHY, "operator_exponent": 2.0}},
     r"options.reference: audit 'stable-c0' needs a reference or refine_grid: true"),
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {"stability_index": 2.5}}},
     r"options.density \(stability_index, scale\): stability index must lie in \(0, 2\)"),
    ({"audits": ["characteristic-roundtrip"],
      "options": {"density": {**CAUCHY, "scale": -1.0}}},
     r"options.density \(stability_index, scale\): scale must be positive"),
    ({"audits": ["weyl-ratios"], "potential": POSCHL_TELLER_1, "options": {"couplings": [1, 2, 3]}},
     r"options.couplings: need at least 6 couplings for the sweep"),
    # the audits' own rules on their moment indices and widths
    ({"audits": ["lifted-moment"], "potential": POSCHL_TELLER_1, "options": {"gammas": [0.25, 1.5]}},
     r"options.gammas: need gamma >= 1/2"),
    ({"audits": ["weyl-ratios"], "potential": POSCHL_TELLER_1, "options": {"gammas": [0.25]}},
     r"options.gammas: need gamma >= 1/2"),
    ({"audits": ["lt-2d"], "options": {"well": GAUSSIAN_PLANE, "num_interior": 16, "gammas": [3.0]}},
     r"options.gammas: gamma must lie in \[1/2, 5/2\]"),
    ({"audits": ["lt-2d-magnetic"], "options": {"well": GAUSSIAN_PLANE, "magnetic_gamma": 1.0}},
     r"options.magnetic_gamma: the magnetic factor-1 bound needs gamma >= 3/2"),
    ({"audits": ["lifting-2d"], "options": {"well": GAUSSIAN_PLANE, "lifting_gamma": 0.25}},
     r"options.lifting_gamma: need gamma >= 1/2"),
    ({"audits": ["sharp-half-sweep"], "options": {"widths": [0.03]}},
     r"options.widths: box radius must be an integer multiple of the step"),
    ({"audits": ["sharp-half-sweep"], "options": {"widths": []}},
     r"options.widths: need one or more positive widths"),
    ({"audits": ["sharp-half-sweep"], "options": {"widths": [1e-6]}},
     r"options.widths: grid cap 128000 points exceeded at width 1e-06"),
])
def test_grids_the_solvers_refuse_exit_two(tmp_path, capsys, scenario, message):
    cfg = write_config(tmp_path, [{"name": "s", **scenario}])
    with pytest.raises(runner.ConfigError, match=rf"scenarios\[0\].{message}"):
        runner.validate_config(json.loads(cfg.read_text()))
    code = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_stage_that_raises_is_built_once(monkeypatch):
    # 2 / 0.5 = 4 deep over half a unit: log|det A| has not decayed by the
    # k cap, so the scattering stage raises "insufficient decay"
    builds = []
    compute = scattering.compute_scattering

    def counted(*args, **kwargs):
        builds.append("called")
        try:
            return compute(*args, **kwargs)
        except ValueError as exc:
            builds[-1] = f"{type(exc).__name__}: {exc}"
            raise

    monkeypatch.setattr(scattering, "compute_scattering", counted)
    audits = ["unitarity", "spectral-positivity", "conjugation-symmetry", "holder-chain"]
    [scenario] = runner.validate_config({"schema_version": 1, "scenarios": [{
        "name": "narrow", "audits": audits,
        "potential": {"family": "rank-one-narrow",
                      "parameters": {"integral": 2.0, "width": 0.5, "matrix_dim": 1}},
    }]})
    result = runner.run_scenario(scenario)
    assert len(builds) == 1
    assert builds[0].startswith("ValueError: insufficient decay")
    # each audit that reads the stage records the same error line
    assert result["error"] == "; ".join(f"{tag}: {builds[0]}" for tag in audits)
    assert result["reports"] == []
    assert "scattering" in result["timings"]


def test_a_well_with_jumps_records_an_error_not_a_verdict():
    # the audits that integrate tr(V')^2 once read V' = 0 on a square well:
    # holder-chain-fourth failed against rhs 0, and so did trace-identity-3
    # and remainder-cap
    audits = ["holder-chain", "trace-identities", "remainder-sweep"]
    [scenario] = runner.validate_config({"schema_version": 1, "scenarios": [{
        "name": "square", "audits": audits, "grid": {"k_max": 40.0, "refine": 2},
        "potential": {"family": "square-well", "parameters": {"depth": 2.0, "half_width": 1.0}},
    }]})
    result = runner.run_scenario(scenario)
    assert result["error"] == "; ".join(
        f"{tag}: ValueError: V has jumps, so it has no derivative dV/dx" for tag in audits)
    assert result["reports"] == []  # no holder-chain-fourth against rhs 0, nor any other verdict


def test_bundled_suite_and_benchmark_workloads_validate():
    sys.path.insert(0, str(Path(__file__).parents[1] / "ltbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    configs = [json.loads((Path(ltlab.__file__).parent / "configs" / "full_suite.json").read_text())]
    configs += [workloads.generate(name, seed)[0]
                for name in workloads.WORKLOADS for seed in (*range(20), 55)]
    for config in configs:
        assert runner.validate_config(config)
    # a separable well's kind key is a well key, not a potential key
    assert any(scenario.get("options", {}).get("well", {}).get("kind") == "separable"
               for config in configs for scenario in config["scenarios"])


def test_cli_diff_exit_codes(tmp_path, capsys):
    cfg = write_config(tmp_path, [CLOSED_FORMS])
    out = tmp_path / "base"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    base = json.loads((out / "manifest.json").read_text())

    def write(name, manifest):
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        return str(path)

    def diff(old, new, rtol="1e-10"):
        code = cli.main(["diff", old, new, "--rtol", rtol])
        return code, capsys.readouterr()

    capsys.readouterr()
    same = json.loads(json.dumps(base))
    same["scenarios"][0]["wall_time_s"] += 5.0
    code, captured = diff(str(out / "manifest.json"), write("same.json", same))
    assert code == 0
    assert "0 changes" in captured.out

    # a move inside rtol passes, one beyond it and a verdict flip are listed
    moved = json.loads(json.dumps(base))
    records = moved["scenarios"][0]["reports"]
    records[0]["lhs"] *= 1.0 + 1e-13
    records[1]["rhs"] = records[1]["rhs"] * 1.001 + 1e-3
    records[2]["passed"] = not records[2]["passed"]
    code, captured = diff(str(out / "manifest.json"), write("moved.json", moved))
    assert code == 1
    lines = captured.out.strip().splitlines()
    assert len(lines) == 3
    assert f"closed-forms[1] {records[1]['audit_tag']}: rhs" in lines[0]
    assert lines[0].endswith(f", tolerance {records[1]['tolerance']!r})")
    assert f"closed-forms[2] {records[2]['audit_tag']}: passed" in lines[1]
    assert lines[2].endswith("2 changes beyond rtol 1e-10")
    code, _ = diff(str(out / "manifest.json"), write("moved.json", moved), rtol="1e-2")
    assert code == 1  # the verdict change stays listed whatever rtol

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, captured = diff(str(out / "manifest.json"), str(broken))
    assert code == 2 and "manifest error" in captured.err
    renamed = json.loads(json.dumps(base))
    renamed["scenarios"][0]["name"] = "other"
    code, captured = diff(str(out / "manifest.json"), write("renamed.json", renamed))
    assert code == 2 and "same scenarios" in captured.err
    shorter = json.loads(json.dumps(base))
    shorter["scenarios"][0]["reports"].pop()
    code, captured = diff(str(out / "manifest.json"), write("shorter.json", shorter))
    assert code == 2 and "different records" in captured.err


def test_cli_diff_lists_tolerance_and_budget_moves(tmp_path, capsys):
    cfg = write_config(tmp_path, [CLOSED_FORMS])
    base = runner.run_config(cfg)
    base["scenarios"][0]["reports"][2]["provenance"]["budget"] = 1e-6
    moved = json.loads(json.dumps(base))
    records = moved["scenarios"][0]["reports"]
    records[0]["tolerance"] *= 1.5
    records[1]["tolerance"] *= 1.0 + 1e-13
    records[2]["provenance"]["budget"] = 5e-7

    def diff(new):
        paths = [tmp_path / "base.json", tmp_path / "new.json"]
        for path, manifest in zip(paths, (base, new)):
            path.write_text(json.dumps(manifest))
        code = cli.main(["diff", *map(str, paths), "--rtol", "1e-10"])
        return code, capsys.readouterr().out.strip().splitlines()

    capsys.readouterr()
    code, lines = diff(moved)
    assert code == 0  # bound moves are listed but are no change of behaviour
    tag = lambda i: f"closed-forms[{i}] {records[i]['audit_tag']}"
    assert lines[0].startswith(f"{tag(0)}: tolerance") and lines[0].endswith(" grew")
    assert lines[1] == f"{tag(2)}: budget 1e-06 -> 5e-07 fell"
    assert lines[2] == "2 tolerance or budget moves beyond rtol 1e-10, 1 grew"
    assert lines[3].endswith("0 changes beyond rtol 1e-10")
    records[3]["lhs"] = records[3]["lhs"] * 1.001 + 1e-3
    code, lines = diff(moved)
    assert code == 1
    assert lines[0].startswith(f"{tag(3)}: lhs") and lines[1].startswith(f"{tag(0)}: tolerance")
    assert lines[-1].endswith("1 changes beyond rtol 1e-10")


def test_density_is_cached_by_point_count():
    ctx = runner.ScenarioContext(runner.Scenario(
        name="d", audits=("stable-c0",),
        options={"density": {"stability_index": 1.0, "grid_points": 101}},
    ))
    coarse = ctx.density()
    assert coarse.momentum_grid.size == 101
    assert ctx.density(101) is coarse
    fine = ctx.density(201)
    assert fine.momentum_grid.size == 201
    assert ctx.density(201) is fine
    assert fine.momentum_grid[2] == coarse.momentum_grid[1]


def test_audits_load_no_quadrature_library(tmp_path):
    # every integral in ltlab runs through the double-exponential rules of
    # potentials.fourier_integral and finite_integral, and the Gamma functions
    # come from math, so a process that runs the kernel, Jost, closed-form and
    # fractional audits loads none of scipy.integrate, scipy.optimize and
    # scipy.special
    cfg = write_config(tmp_path, [{
        "name": "poschl-teller-1",
        "potential": {"family": "poschl-teller", "parameters": {"nu": 1.0}},
        "audits": ["birman-schwinger", "lifted-moment", "trace-identities",
                   "unitarity", "spectral-positivity", "conjugation-symmetry"],
    }, {
        "name": "closed-forms",
        "audits": ["lifting-identity", "cauchy-kernel"],
    }, {
        "name": "fractional-cauchy",
        "potential": {"family": "poschl-teller", "parameters": {"nu": 1.0}},
        "audits": ["stable-c0", "characteristic-roundtrip", "fractional-moment"],
        "options": {
            "density": {"stability_index": 1.0, "scale": 1.0},
            "operator_exponent": 2.0, "reference": "pi", "refine_grid": True,
        },
    }])
    script = (
        "import sys\n"
        "import ltlab.cli\n"
        "code = ltlab.cli.main(sys.argv[1:])\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] in (['scipy', 'integrate'], ['scipy', 'optimize'],\n"
        "                                     ['scipy', 'special'])))\n"
        "sys.exit(code)\n"
    )
    source = str(Path(ltlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", str(cfg), "--jobs", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    tags = {rec["audit_tag"] for scenario in manifest["scenarios"] for rec in scenario["reports"]}
    assert {"birman-schwinger", "unitarity", "conjugation-symmetry", "lifting-identity",
            "cauchy-kernel", "stable-c0", "stable-c0-refined", "characteristic-roundtrip",
            "fractional-moment"} <= tags
