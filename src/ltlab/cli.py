"""Command-line entry points for running suites and rendering reports.

`main` starts OpenBLAS at one thread: it sets OPENBLAS_NUM_THREADS=1 in the
process environment before it imports `runner`, and with it numpy, and
before `runner.run_config` loads scipy; each library's bundled OpenBLAS
reads that count when it loads.  `report`, `diff` and a refused config
load numpy only.  A pool that starts at more than one thread starts a
worker that spins beside the run (README, "BLAS threads").  A library some
caller loaded before keeps its pool, which `runner.run_config` still pins
for the run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltlab",
        description="Audit bench for spectral moment bounds of Schrodinger operators.",
    )
    parser.add_argument("--version", action="version", version=f"ltlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="execute a scenario suite")
    run_cmd.add_argument("--config", required=True, help="path to a suite config JSON")
    run_cmd.add_argument("--jobs", type=int, default=1, help="scenario-level parallelism")
    run_cmd.add_argument("--out", default="ltlab-out", help="output directory")

    report_cmd = sub.add_parser("report", help="render a manifest")
    report_cmd.add_argument("--manifest", required=True, help="path to manifest.json")
    # a format not in runner.RENDERERS exits 2 in main: this module imports
    # runner only after it has set OPENBLAS_NUM_THREADS
    report_cmd.add_argument("--format", required=True, dest="fmt", help="report format")

    diff_cmd = sub.add_parser("diff", help="compare two manifests record by record")
    diff_cmd.add_argument("old", help="path to the reference manifest.json")
    diff_cmd.add_argument("new", help="path to the manifest.json to compare")
    diff_cmd.add_argument(
        "--rtol", type=float, default=0.0,
        help="relative move of lhs/rhs/residual, tolerance and budget to tolerate "
        "(default: none)",
    )
    return parser


def _load_manifest(path) -> dict | None:
    """The manifest at path, or None after printing why it cannot be read."""
    try:
        manifest = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return None
    if not isinstance(manifest, dict) or "scenarios" not in manifest:
        print(f"manifest error: {path}: missing scenarios", file=sys.stderr)
        return None
    return manifest


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read as numpy, and later scipy, load
    from . import runner

    if args.command == "run":
        try:
            manifest = runner.run_config(args.config, jobs=args.jobs, out_dir=args.out)
        except runner.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        failing = [s["name"] for s in manifest["scenarios"] if s["error"]]
        for name in failing:
            print(f"scenario error: {name}", file=sys.stderr)
        total = sum(len(s["reports"]) for s in manifest["scenarios"])
        print(
            f"{manifest['suite']}: {total} reports, "
            f"global pass = {manifest['global_pass']} -> {args.out}"
        )
        return 0 if manifest["global_pass"] else 1
    if args.command == "report":
        manifest = _load_manifest(args.manifest)
        if manifest is None:
            return 2
        try:
            sys.stdout.write(runner.render_report(manifest, args.fmt))
        except ValueError as exc:
            print(f"report error: {exc}", file=sys.stderr)
            return 2
        except (KeyError, TypeError) as exc:  # a record or field the manifest lacks
            print(f"manifest error: {exc}", file=sys.stderr)
            return 2
        return 0
    manifests = [_load_manifest(args.old), _load_manifest(args.new)]  # the diff command
    if None in manifests:
        return 2
    try:
        compared, lines, bounds = runner.diff_manifests(*manifests, rtol=args.rtol)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return 2
    for line in lines + bounds:
        print(line)
    if bounds:  # listed, but not counted as changes of behaviour
        grew = sum(line.endswith(" grew") for line in bounds)
        print(f"{len(bounds)} tolerance or budget moves beyond rtol {args.rtol:g}, {grew} grew")
    print(f"{compared} records compared, {len(lines)} changes beyond rtol {args.rtol:g}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
