"""numpy's OpenBLAS worker threads stay idle over an `ltlab run`.

The numpy and scipy wheels each bundle their own OpenBLAS, and each keeps
its own worker pool.  After a threaded call a pool's workers spin for about
a tenth of a second, so one numpy BLAS call beyond OpenBLAS's threading size
puts a spinning numpy worker next to scipy's two ARPACK/SuperLU threads.
The run path keeps numpy's BLAS calls below that size (README, "BLAS
threads"); this test reads the CPU time of numpy's workers to hold it there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltlab

# numpy's workers are the threads that `import numpy` starts; scipy's
# OpenBLAS starts its own later.  The script prints each numpy worker's CPU
# nanoseconds over the run (/proc/self/task/<tid>/schedstat, first field),
# read half a second after it, so a spin the run's last call started is
# counted in full rather than cut short by the exit.
SCRIPT = """
import contextlib, json, os, sys, time
tasks = lambda: set(os.listdir("/proc/self/task"))
before = tasks()
import numpy
workers = sorted(tasks() - before)
import scipy
import ltlab.cli
cpu = lambda tid: int(open(f"/proc/self/task/{tid}/schedstat").read().split()[0])
start = [cpu(tid) for tid in workers]
with contextlib.redirect_stdout(sys.stderr):
    code = ltlab.cli.main(sys.argv[1:])
time.sleep(0.5)
print(json.dumps([cpu(tid) - ns for tid, ns in zip(workers, start)]))
sys.exit(code)
"""

# a plain planar Gaussian and the spectra workload's coupled sparse well,
# the two places where the run path once made a threaded numpy call
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


def test_numpy_blas_workers_stay_idle(tmp_path):
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to read thread CPU times from")
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    source = str(Path(ltlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, "run", "--config", str(cfg), "--jobs", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    worker_ns = json.loads(result.stdout.strip().splitlines()[-1])
    if not worker_ns:
        pytest.skip("numpy started no BLAS worker thread (one CPU, or no OpenBLAS)")
    assert max(worker_ns) < 20_000_000, worker_ns
