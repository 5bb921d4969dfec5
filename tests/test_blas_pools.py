"""The OpenBLAS worker threads of numpy and scipy stay idle over an `ltlab run`.

The numpy and scipy wheels each bundle their own OpenBLAS, and each keeps
its own worker pool.  After a threaded call a pool's workers spin for about
a tenth of a second, on a core the run's own thread could use.  `ltlab run`
pins both pools to one thread (README, "BLAS threads"), so no call wakes a
worker; these tests read the CPU time of each pool's workers to hold it so.
Started plainly, the command line loads both libraries at one thread, so
neither pool starts a worker at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltlab

# numpy's workers are the threads that `import numpy` starts, scipy's those
# that `import scipy.linalg` adds.  The script prints each worker's CPU
# nanoseconds over the run (/proc/self/task/<tid>/schedstat, first field),
# read half a second after it, so a spin the run's last call started is
# counted in full rather than cut short by the exit.
SCRIPT = """
import contextlib, json, os, sys, time
tasks = lambda: set(os.listdir("/proc/self/task"))
before = tasks()
import numpy
pools = {"numpy": sorted(tasks() - before)}
import scipy.linalg
pools["scipy"] = sorted(tasks() - before - set(pools["numpy"]))
import ltlab.cli
cpu = lambda tid: int(open(f"/proc/self/task/{tid}/schedstat").read().split()[0])
start = {tid: cpu(tid) for workers in pools.values() for tid in workers}
with contextlib.redirect_stdout(sys.stderr):
    code = ltlab.cli.main(sys.argv[1:])
time.sleep(0.5)
print(json.dumps({pool: [cpu(tid) - start[tid] for tid in workers]
                  for pool, workers in pools.items()}))
sys.exit(code)
"""

# a plain planar Gaussian and the spectra workload's coupled sparse well:
# the two places where the run path once made a threaded numpy call, and
# sparse LDL^T and ARPACK solves that call scipy's OpenBLAS
CONFIG = {
    "schema_version": 1,
    "suite": "blas-pools",
    "scenarios": [
        {
            "name": "plane-plain",
            "audits": ["lt-2d"],
            "options": {"well": {"kind": "gaussian", "depth": 6.9355, "width": 1.1822},
                        "box_radius": 8.0, "num_interior": 20, "gammas": [1.0, 1.5]},
        },
        {
            "name": "random-2x2-sparse",
            "potential": {"family": "random-smooth",
                          "parameters": {"matrix_dim": 2, "seed": 1799343697}},
            "grid": {"box_radius": 25.0, "num_interior": 2100},
            "audits": ["half-moment-sandwich"],
        },
    ],
}


def _run_script(script: str, config: dict, tmp_path: Path) -> str:
    """The last line a fresh interpreter prints running script on `ltlab run`
    arguments for config, under two OpenBLAS threads; the run writes to
    tmp_path/out."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to read threads from")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    source = str(Path(ltlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", script, "run", "--config", str(cfg), "--jobs", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout.strip().splitlines()[-1]


@pytest.fixture(scope="module")
def worker_ns(tmp_path_factory):
    """{pool: CPU nanoseconds of each of its workers} over one run."""
    return json.loads(_run_script(SCRIPT, CONFIG, tmp_path_factory.mktemp("blas-pools")))


def test_numpy_blas_workers_stay_idle(worker_ns):
    if not worker_ns["numpy"]:
        pytest.skip("numpy started no BLAS worker thread (one CPU, or no OpenBLAS)")
    assert max(worker_ns["numpy"]) < 20_000_000, worker_ns


def test_scipy_blas_workers_stay_idle(worker_ns):
    if not worker_ns["scipy"]:
        pytest.skip("scipy started no BLAS worker thread (one CPU, or no OpenBLAS)")
    assert max(worker_ns["scipy"]) < 20_000_000, worker_ns


# A plain start: nothing loads numpy or scipy ahead of `ltlab.cli.main`, as
# in `python -m ltlab` and the `ltlab` script.  The script prints which of
# the two `import ltlab` and `import ltlab.cli` loaded, and the process's
# thread count after the run.
PLAIN_START = """
import contextlib, json, os, sys
import ltlab, ltlab.cli
loaded = sorted({"numpy", "scipy"} & set(sys.modules))
with contextlib.redirect_stdout(sys.stderr):
    code = ltlab.cli.main(sys.argv[1:])
print(json.dumps({"loaded": loaded, "threads": len(os.listdir("/proc/self/task"))}))
sys.exit(code)
"""

# a small coupled well, solved densely through scipy's LAPACK
COUPLED_WELL = {
    "schema_version": 1,
    "suite": "plain-start",
    "scenarios": [{
        "name": "random-2x2-dense",
        "potential": {"family": "random-smooth",
                      "parameters": {"matrix_dim": 2, "seed": 1858836761}},
        "grid": {"box_radius": 25.0, "num_interior": 200},
        "audits": ["half-moment-sandwich"],
    }],
}


def test_the_command_line_starts_no_blas_worker(tmp_path):
    # under two OpenBLAS threads a library loaded at the environment's count
    # starts one worker per pool: three threads in all
    seen = json.loads(_run_script(PLAIN_START, COUPLED_WELL, tmp_path))
    assert seen["loaded"] == []
    pins = json.loads((tmp_path / "out" / "manifest.json").read_text())["blas_threads"]
    if "unpinned" in pins.values():
        pytest.skip(f"an OpenBLAS pool without the wheel's thread setter: {pins}")
    assert pins == {"numpy": 1, "scipy": 1}
    assert seen["threads"] == 1


def test_the_lazy_package_keeps_its_api():
    namespace = {}
    exec("from ltlab import *", namespace)
    for name in ltlab.__all__:
        assert getattr(ltlab, name) is namespace[name]
    assert ltlab.build_family is ltlab.potentials.build_family
    assert set(ltlab.__all__) <= set(dir(ltlab))
    with pytest.raises(AttributeError, match="no attribute 'runner_'"):
        ltlab.runner_
