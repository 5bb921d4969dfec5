"""Validation, `ltlab report` and `ltlab diff` load no scipy; a run loads it before it pins.

scipy's import is most of a cold start, and only the solvers call it: each
solver module imports it inside the functions that do, and
`runner.run_config` loads it once, after validation, when it pins the
OpenBLAS pools (README, "BLAS threads").  A serial run loads no process
pool either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltlab
from ltlab import runner

# Validates the bundled suite and both benchmark workloads at seed 0, runs
# the command line on the arguments that follow, and prints which of the
# heavy modules were loaded after each step; then, with the environment's
# OpenBLAS thread count back, prints what `one_blas_thread` yields and
# whether scipy's solvers were loaded when it did.
SCRIPT = """
import contextlib, json, os, sys
from pathlib import Path
from ltlab import cli, runner
import workloads

loaded = lambda: sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")
threads = os.environ["OPENBLAS_NUM_THREADS"]
seen = {}
configs = [json.loads((Path(runner.__file__).parent / "configs" / "full_suite.json").read_text())]
configs += [workloads.generate(name, 0)[0] for name in workloads.WORKLOADS]
for config in configs:
    runner.validate_config(config)
seen["validate"] = loaded()
for i, args in enumerate(json.loads(sys.argv[1])):
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(args)
    seen[f"{args[0]} {i}"] = [code, loaded()]
os.environ["OPENBLAS_NUM_THREADS"] = threads  # cli.main set it to 1
with runner.one_blas_thread() as pins:
    seen["pins"] = pins
    seen["solvers loaded"] = "scipy.sparse.linalg" in sys.modules
print(json.dumps(seen))
"""


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("startup")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema_version": 1, "suite": "startup", "scenarios": [
        {"name": "closed-forms", "audits": ["classical-constants"]}]}))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(runner.render_manifest(runner.run_config(cfg)))
    refused = tmp_path / "refused.json"
    refused.write_text(json.dumps({"schema_version": 1, "suite": "startup", "scenarios": [
        {"name": "s", "audits": ["classical-constants"], "optoins": {}}]}))
    commands = [["report", "--manifest", str(manifest), "--format", fmt] for fmt in runner.RENDERERS]
    commands += [["diff", str(manifest), str(manifest)],
                 ["run", "--config", str(refused), "--out", str(tmp_path / "out")]]
    root = Path(__file__).resolve().parents[1]
    source = [str(Path(ltlab.__file__).resolve().parents[1]), str(root / "ltbench")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(source + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                            capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_validation_loads_no_solver_library(seen):
    assert seen["validate"] == []


def test_report_diff_and_a_refused_config_load_no_solver_library(seen):
    steps = {step: value for step, value in seen.items() if step.split()[0] in ("report", "diff", "run")}
    assert [code for code, _ in steps.values()] == [0] * len(runner.RENDERERS) + [0, 2]
    assert {step: modules for step, (_, modules) in steps.items() if modules} == {}


def test_the_pin_loads_the_solvers_before_it_pins(seen):
    assert seen["solvers loaded"] is True
    if "unpinned" in seen["pins"].values():
        pytest.skip(f"an OpenBLAS pool without the wheel's thread setter: {seen['pins']}")
    assert seen["pins"] == {"numpy": 1, "scipy": 1}
