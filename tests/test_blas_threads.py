"""`ltlab run` pins both OpenBLAS pools, so its records do not follow the thread count.

The numpy and scipy wheels each bundle an OpenBLAS with its own thread
count.  The command line loads both at one thread, and `runner.run_config`
sets both to one thread for the run and in each `--jobs` worker, which pins
the pools of a library caller too; the manifest header records the pinned
counts.
"""

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

from ltlab import runner

# the fields that followed the thread count before the pin: a coupled dense
# and a coupled sparse random-smooth well (half-moment lhs and residual),
# the magnetic plane (lt-2d-magnetic) and the suite's random-2x2 trace
# identities
CONFIG = {
    "schema_version": 1,
    "suite": "blas-threads",
    "scenarios": [
        {
            "name": "random-2x2-dense",
            "potential": {"family": "random-smooth",
                          "parameters": {"matrix_dim": 2, "seed": 1858836761}},
            "grid": {"box_radius": 25.0, "num_interior": 200},
            "audits": ["half-moment-sandwich"],
        },
        {
            "name": "random-2x2-sparse",
            "potential": {"family": "random-smooth",
                          "parameters": {"matrix_dim": 2, "seed": 1799343697}},
            "grid": {"box_radius": 25.0, "num_interior": 2100},
            "audits": ["half-moment-sandwich"],
        },
        {
            "name": "plane-magnetic",
            "audits": ["lt-2d-magnetic"],
            "options": {"well": {"kind": "gaussian", "depth": 8.4831, "width": 1.0658},
                        "box_radius": 8.0, "num_interior": 16, "field_strength": 0.9814,
                        "magnetic_gamma": 1.5},
        },
        {
            "name": "random-2x2",
            "potential": {"family": "random-smooth",
                          "parameters": {"matrix_dim": 2, "seed": 0}},
            "audits": ["trace-identities"],
        },
    ],
}


def _run(tmp_path, threads: int, jobs: int, child_env) -> dict:
    """The manifest of `ltlab run` in a fresh process under `threads` OpenBLAS threads."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    out = tmp_path / f"out-{threads}-{jobs}"
    result = subprocess.run(
        [sys.executable, "-m", "ltlab", "run", "--config", str(cfg), "--jobs", str(jobs),
         "--out", str(out)],
        capture_output=True, text=True, env=child_env(threads), timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads((out / "manifest.json").read_text())


@pytest.fixture(scope="module")
def manifests(tmp_path_factory, child_env):
    tmp_path = tmp_path_factory.mktemp("blas-threads")
    return {key: _run(tmp_path, *key, child_env) for key in ((1, 1), (2, 1), (2, 2))}


def _same(old: dict, new: dict):
    compared, lines, bounds = runner.diff_manifests(old, new, rtol=0.0)
    assert compared == 8
    assert lines + bounds == []
    assert runner.strip_timing(old) == runner.strip_timing(new)


def test_records_do_not_follow_the_thread_count(manifests):
    pins = manifests[2, 1]["blas_threads"]
    if "unpinned" in pins.values():
        pytest.skip(f"an OpenBLAS pool without the wheel's thread setter: {pins}")
    assert pins == {"numpy": 1, "scipy": 1}
    _same(manifests[1, 1], manifests[2, 1])


def test_jobs_do_not_move_records(manifests):
    _same(manifests[2, 1], manifests[2, 2])


def test_a_library_caller_gets_the_records_of_the_command_line(manifests, tmp_path):
    # the command line's pools load at one thread; this process loaded its
    # own at the environment's count, and run_config pins them for the run
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    manifest = runner.run_config(cfg)
    assert manifest["blas_threads"] == manifests[2, 1]["blas_threads"]
    _same(manifests[2, 1], manifest)


def _closed_forms(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema_version": 1, "suite": "unit", "scenarios": [
        {"name": "closed-forms", "audits": ["classical-constants"]}]}))
    return cfg


def test_a_missing_library_or_setter_is_recorded_unpinned(tmp_path, monkeypatch):
    # numpy's library is not found; scipy's lacks the thread-count symbols
    found = {"numpy": None, "scipy": SimpleNamespace()}
    monkeypatch.setattr(runner, "_blas_library", lambda package, pattern: found[package])
    manifest = runner.run_config(_closed_forms(tmp_path))
    assert manifest["blas_threads"] == {"numpy": "unpinned", "scipy": "unpinned"}
    assert manifest["global_pass"] is True


def test_the_pin_holds_for_the_run_only(tmp_path, monkeypatch):
    counts = {"numpy": 3, "scipy": 2}
    seen = []
    run_scenario = runner.run_scenario

    def library(package, pattern):
        def get():
            return counts[package]

        def set_(count):
            counts[package] = count

        suffix = "64_" if package == "numpy" else ""
        return SimpleNamespace(**{f"scipy_openblas_get_num_threads{suffix}": get,
                                  f"scipy_openblas_set_num_threads{suffix}": set_})

    def scenario(s):
        seen.append(dict(counts))
        return run_scenario(s)

    monkeypatch.setattr(runner, "_blas_library", library)
    monkeypatch.setattr(runner, "run_scenario", scenario)
    manifest = runner.run_config(_closed_forms(tmp_path))
    assert manifest["blas_threads"] == {"numpy": 1, "scipy": 1}
    assert seen == [{"numpy": 1, "scipy": 1}]
    assert counts == {"numpy": 3, "scipy": 2}
