"""Benchmark for ltlab: end-to-end cost of `ltlab run`, per-layer work, checked outputs.

Usage, from the root of the repository:

    python3 ltbench/run.py --workload {spectra,kernels} \
        --seed N --seconds S --trace {0,1}

Untraced (--trace 0), the benchmark times set-up, then runs the workload's
config as fresh `ltlab run --jobs 1` processes back to back until S seconds
have passed (at least one), and reports medians over those processes.
Traced (--trace 1), it runs one process under tracer.py and reports the
per-layer metrics.  Either way every manifest is checked against the
independent references in checks.py, and the last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Outputs go to .ltbench-out/<workload>/ under the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
# OpenBLAS/OpenMP threads are pinned so runs compare like with like.  Two
# threads bring a round of the bundled suite from about 100 s to about 70 s
# on two cores; the count never exceeds nproc.
BLAS_THREADS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
SETUP_SNIPPET = (
    "import json, sys\n"
    "from ltlab import runner\n"
    "runner.validate_config(json.loads(open(sys.argv[1]).read()))\n"
)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "slowest_scenario_s": "s",
}
LAYER_COUNTERS = {
    "spectral1d": ("solves", "rows", "repeat_solves", "tridiagonal_solves",
                   "dense_solves", "sparse_solves", "eigsh_calls", "box_probes"),
    "multidim": ("solves", "rows", "repeat_solves", "dense_solves",
                 "sparse_solves", "eigsh_calls"),
    "birman_schwinger": ("kernel_builds", "kernel_rows", "kernel_bytes"),
    "scattering": ("solves", "k_points"),
    "bounds": ("sweep_spectra",),
    "fractional": ("density_builds", "repeat_density_builds"),
    "potentials": ("builds",),
    "runner": ("manifest_bytes",),
}
COUNTER_UNITS = {"rows": "rows", "kernel_rows": "rows", "kernel_bytes": "B",
                 "manifest_bytes": "B"}
LAYER_METRICS = {
    **{f"{layer}.{name}": "s" if name == "busy_s" else COUNTER_UNITS.get(name, "count")
       for layer, names in LAYER_COUNTERS.items() for name in ("busy_s",) + names},
    "trace.wall_s": "s",
    "trace.covered_s": "s",
    "trace.spans": "count",
}


class Round:
    """One `ltlab run` process: its cost and the manifest it wrote."""

    def __init__(self, wall_s, cpu_s, peak_rss_mb, exit_code, out_dir: Path):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.peak_rss_mb = peak_rss_mb
        self.exit_code = exit_code
        self.out_dir = out_dir
        path = out_dir / "manifest.json"
        self.manifest = json.loads(path.read_text()) if path.exists() else None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    source = str(root / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def timed_process(cmd: list[str], env: dict, log: Path, cwd: Path):
    """Run cmd to its end; return (wall seconds, exit code, rusage)."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=sink, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def run_round(prefix: list[str], config: Path, out_dir: Path, env: dict, root: Path) -> Round:
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cmd = prefix + ["run", "--config", str(config), "--jobs", "1", "--out", str(out_dir)]
    wall, code, usage = timed_process(cmd, env, out_dir / "ltlab.log", root)
    return Round(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code, out_dir)


def measure_setup(config: Path, env: dict, work: Path, root: Path) -> float:
    """Median wall time of a fresh interpreter importing ltlab and validating."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, "-c", SETUP_SNIPPET, str(config)]
        wall, code, _ = timed_process(cmd, env, work / f"setup-{i}.log", root)
        if code != 0:
            raise RuntimeError(f"set-up failed with exit code {code}; see {work}/setup-{i}.log")
        times.append(wall)
    return statistics.median(times)


def score(rounds: list[Round], check_list: list[dict]):
    """Count operations and failures over whole rounds; log each failure."""
    from ltlab.runner import render_manifest, strip_timing

    cache = checks.ReferenceCache()
    attempted = failed = 0
    first = None
    for i, rnd in enumerate(rounds):
        results = []
        if rnd.manifest is None:
            results.append(("manifest written", False, f"exit code {rnd.exit_code}"))
        else:
            records_ok = True
            for scenario in rnd.manifest["scenarios"]:
                results.append((f"{scenario['name']}:scenario", scenario["error"] is None,
                                scenario["error"]))
                for rec in scenario["reports"]:
                    ok = rec["passed"] or rec["inconclusive"]
                    records_ok &= ok
                    results.append((f"{scenario['name']}:{rec['audit_tag']}", ok,
                                    f"lhs {rec['lhs']} rhs {rec['rhs']}"))
            expected = 0 if records_ok and all(s["error"] is None
                                               for s in rnd.manifest["scenarios"]) else 1
            results.append(("exit code", rnd.exit_code == expected, f"exit {rnd.exit_code}"))
            results += checks.evaluate(rnd.manifest, check_list, cache)
            stripped = render_manifest(strip_timing(rnd.manifest))
            if first is None:
                first = stripped
            else:
                results.append(("manifest reproduces", stripped == first, "differs from round 0"))
        attempted += len(results)
        for label, ok, detail in results:
            if not ok:
                failed += 1
                print(f"round {i}: FAILED {label}: {detail}", file=sys.stderr)
    return attempted, failed


def slowest_scenario(rounds: list[Round]) -> float:
    """Largest per-scenario median wall time over the rounds.

    Taking each scenario's median before the maximum keeps one slow round of
    a runner-up scenario from standing in for the slowest one.
    """
    times: dict[str, list[float]] = {}
    for r in rounds:
        if r.manifest is not None:
            for s in r.manifest["scenarios"]:
                times.setdefault(s["name"], []).append(s["wall_time_s"])
    return max((statistics.median(t) for t in times.values()), default=0.0)


def end_to_end_metrics(rounds: list[Round], setup_s: float) -> dict:
    values = {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "setup_s": setup_s,
        "cpu_s": statistics.median(r.cpu_s for r in rounds),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in rounds),
        # 0 only when no round wrote a manifest, which also fails `correct`
        "slowest_scenario_s": slowest_scenario(rounds),
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the time its child spans cover (children are
    nested and sequential: the traced run is single-threaded)."""
    own = [end - start for _, _, _, start, end in spans]
    for _, _, parent, start, end in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(trace: dict, traced: Round) -> dict:
    spans = trace["spans"]
    busy = {layer: 0.0 for layer in LAYER_COUNTERS}
    for span, own in zip(spans, self_times(spans)):
        busy[span[0]] += own
    counters = dict(trace["counters"])
    manifest = traced.out_dir / "manifest.json"
    counters["runner.manifest_bytes"] = manifest.stat().st_size if manifest.exists() else 0
    values = {}
    for layer, names in LAYER_COUNTERS.items():
        values[f"{layer}.busy_s"] = busy[layer]
        for name in names:
            values[f"{layer}.{name}"] = counters.get(f"{layer}.{name}", 0)
    values["trace.wall_s"] = traced.wall_s
    values["trace.covered_s"] = sum(busy.values())
    values["trace.spans"] = len(spans)
    return {name: {"value": values[name], "unit": LAYER_METRICS[name]} for name in LAYER_METRICS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ltlab" / "__init__.py").is_file():
        print("ltbench: run from the repository root (src/ltlab not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".ltbench-out" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config, check_list = workloads.generate(args.workload, args.seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n")
    env = child_env(root)
    ltlab_cmd = [sys.executable, "-m", "ltlab"]

    if args.trace:
        trace_path = work / "trace.json"
        prefix = [sys.executable, str(HERE / "tracer.py"), "--trace-out", str(trace_path), "--"]
        rounds = [run_round(prefix, config_path, work / "round-0", env, root)]
        trace = json.loads(trace_path.read_text())
        metrics = layer_metrics(trace, rounds[0])
    else:
        setup_s = measure_setup(config_path, env, work, root)
        rounds = []
        started = time.perf_counter()
        while not rounds or time.perf_counter() - started < args.seconds:
            rounds.append(run_round(ltlab_cmd, config_path, work / f"round-{len(rounds)}",
                                    env, root))
        metrics = end_to_end_metrics(rounds, setup_s)

    attempted, failed = score(rounds, check_list)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
