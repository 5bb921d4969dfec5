"""Fast tests of the benchmark's own parts: python3 -m pytest ltbench/tests -q"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import references
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("nu", [1, 2, 3])
def test_sinc_dvr_reproduces_poschl_teller_levels(nu):
    levels, accuracy = references.dvr_levels([{"family": "poschl-teller", "nu": nu}])
    exact = references.poschl_teller_levels(nu)
    assert levels.shape == exact.shape
    assert np.abs(levels - exact).max() <= 1e-9
    assert accuracy <= 1e-9


def test_kronecker_sums_match_dense_planar_solve():
    from ltlab import multidim, potentials

    well = {"family": "gaussian", "depth": 3.0, "width": 1.0}
    base = potentials.build_family("gaussian", depth=3.0, width=1.0)
    op = multidim.build_operator_2d(multidim.separable_well_2d(base), 5.0, 14)
    dense = np.linalg.eigvalsh(op.to_dense())
    dense = np.sort(-dense[dense <= -references.ENERGY_EDGE])[::-1]
    levels, accuracy = references.kronecker_levels(well, 5.0, 14)
    assert levels.shape == dense.shape
    assert np.abs(levels - dense).max() <= accuracy


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", ["spectra", "kernels"])
def test_seed_changes_the_wells_but_not_the_shape(workload):
    first, first_checks = workloads.generate(workload, 1)
    second, second_checks = workloads.generate(workload, 2)
    assert first != second
    assert [s["name"] for s in first["scenarios"]] == [s["name"] for s in second["scenarios"]]
    assert [s["audits"] for s in first["scenarios"]] == [s["audits"] for s in second["scenarios"]]
    assert [c["kind"] for c in first_checks] == [c["kind"] for c in second_checks]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_validate(workload):
    from ltlab import runner

    config, check_list = workloads.generate(workload, 0)
    names = {s.name for s in runner.validate_config(config)}
    assert {c["scenario"] for c in check_list} <= names


def test_printed_metric_names_are_declared():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}

    manifest = {"scenarios": [{"name": "a", "wall_time_s": 0.5, "error": None, "reports": []}]}
    rnd = run.Round(1.0, 1.5, 100.0, 0, ROOT / "does-not-exist")
    rnd.manifest = manifest
    printed = run.end_to_end_metrics([rnd], 0.9)
    assert {k: v["unit"] for k, v in printed.items()} == end_to_end

    trace = {"spans": [["runner", "cli.main", -1, 0.0, 2.0],
                       ["spectral1d", "spectral1d.negative_spectrum", 0, 0.5, 1.5]],
             "counters": {"spectral1d.solves": 1}}
    printed = run.layer_metrics(trace, rnd)
    assert {k: v["unit"] for k, v in printed.items()} == per_layer
    assert printed["spectral1d.busy_s"]["value"] == 1.0
    assert printed["runner.busy_s"]["value"] == 1.0
    assert set(run.LAYER_COUNTERS) == set(tracer.LAYERS)


def test_checks_fail_when_nothing_matches():
    manifest = {"scenarios": [{"name": "a", "error": None, "reports": []}]}
    results = checks.evaluate(manifest, [{"kind": "c0-pi", "scenario": "a"},
                                         {"kind": "c0-pi", "scenario": "b"}],
                              checks.ReferenceCache())
    assert [ok for _, ok, _ in results] == [False, False]


def test_tracer_records_nested_spans_and_counters(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "scenarios": [{
        "name": "pt", "potential": {"family": "poschl-teller", "parameters": {"nu": 1.0}},
        "grid": {"num_interior": 200}, "audits": ["sharp-half"]}]}))
    trace_path = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "ltbench" / "tracer.py"), "--trace-out", str(trace_path),
         "--", "run", "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    trace = json.loads(trace_path.read_text())
    spans = trace["spans"]
    assert all(-1 <= parent < index for index, (_, _, parent, _, _) in enumerate(spans))
    assert all(spans[p][3] <= start and end <= spans[p][4]
               for _, _, p, start, end in spans if p >= 0)
    # default_box probes once, then the coarse and fine grids: three scalar solves
    assert trace["counters"]["spectral1d.box_probes"] == 1
    assert trace["counters"]["spectral1d.solves"] == 3
    assert trace["counters"]["spectral1d.tridiagonal_solves"] == 3
    assert all(own >= -1e-9 for own in run.self_times(spans))
