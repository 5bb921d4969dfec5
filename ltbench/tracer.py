"""Run `ltlab` with spans and counters recorded at every module boundary.

Usage (PYTHONPATH must reach the ltlab sources):
    python3 ltbench/tracer.py --trace-out trace.json -- run --config C --jobs 1 --out D

Every public function and every public method of a public class defined in
a layer module is wrapped, and every ltlab module's reference to it is
re-pointed at the wrapper, so calls made through `from .x import f` names
are seen too.  A span records its layer, name, parent span, start and end;
spans stay in memory and are written as one JSON file when the run ends.
Counters are taken where the work happens: in the wrapper of the call that
does it, and in wrappers around the two eigensolver primitives whose use
tells the solver paths apart.  This module imports nothing heavy itself, so
the span around `import ltlab.cli` measures the program's own import.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "potentials", "spectral1d", "multidim", "birman_schwinger",
    "scattering", "bounds", "fractional", "runner",
)
# The command-line entry point is charged to the runner layer it drives.
LAYER_OF_MODULE = {f"ltlab.{name}": name for name in LAYERS}
LAYER_OF_MODULE["ltlab.cli"] = "runner"


def _digest(*parts) -> str:
    """Content key of an operator: array bytes, or the repr of a scalar."""
    h = hashlib.sha1()
    for part in parts:
        h.update(b"|")
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


class Tracer:
    """Spans as [layer, name, parent, start, end] plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._primitives: list[dict] = []  # per open span: solver primitive calls
        self._seen: dict[str, set] = {}  # repeat detection, reset per scenario
        self._hooks = {
            "spectral1d.negative_spectrum": self._on_solve_1d,
            "spectral1d.default_box": self._count("spectral1d.box_probes"),
            "multidim.negative_spectrum_2d": self._on_solve_2d,
            "birman_schwinger.build_L": self._on_kernel,
            "scattering.compute_scattering": self._on_scattering,
            "scattering.jost_solve": self._on_jost,
            "bounds.coupling_sweep": self._on_sweep,
            "fractional.stable_density": self._on_density,
            "potentials.build_family": self._count("potentials.builds"),
        }

    # --- spans

    def record(self, layer: str, name: str, start: float, end: float):
        parent = self._open[-1] if self._open else -1
        self.spans.append([layer, name, parent, start, end])

    def _enter(self, layer: str, name: str) -> int:
        index = len(self.spans)
        self.spans.append([layer, name, self._open[-1] if self._open else -1,
                           time.perf_counter(), None])
        self._open.append(index)
        self._primitives.append({"eigsh": 0, "tridiagonal": 0})
        return index

    def _exit(self, index: int) -> dict:
        self.spans[index][4] = time.perf_counter()
        self._open.pop()
        return self._primitives.pop()

    def add(self, name: str, amount: float = 1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _repeat(self, kind: str, key: str) -> bool:
        seen = self._seen.setdefault(kind, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    # --- wrapping

    def wrap(self, layer: str, qualname: str, fn):
        hook = self._hooks.get(qualname)
        signature = inspect.signature(fn) if hook else None
        starts_scenario = qualname == "runner.run_scenario"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if starts_scenario:
                self._seen.clear()
            index = self._enter(layer, qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                primitives = self._exit(index)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, primitives)
            return result

        return traced

    def primitive(self, kind: str, counter_suffix: str | None, fn):
        """Wrap a solver primitive: mark every open span, count by layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for calls in self._primitives:
                calls[kind] += 1
            if counter_suffix and self._open:
                self.add(f"{self.spans[self._open[-1]][0]}.{counter_suffix}")
            return fn(*args, **kwargs)

        return traced

    def install(self):
        """Wrap the layer modules' public API and the eigensolver primitives."""
        import scipy.sparse.linalg

        from ltlab import spectral1d

        scipy.sparse.linalg.eigsh = self.primitive(
            "eigsh", "eigsh_calls", scipy.sparse.linalg.eigsh)
        spectral1d.eigh_tridiagonal = self.primitive(
            "tridiagonal", None, spectral1d.eigh_tridiagonal)

        replaced = {}
        for module_name, layer in LAYER_OF_MODULE.items():
            module = importlib.import_module(module_name)
            short = module_name.split(".")[-1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(layer, f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            setattr(obj, attr, self.wrap(
                                layer, f"{short}.{name}.{attr}", member))
        for module in [m for n, m in sys.modules.items() if n.startswith("ltlab")]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])

    # --- counter hooks

    def _count(self, name: str):
        return lambda arguments, result, primitives: self.add(name)

    def _on_solve_1d(self, arguments, result, primitives):
        op = arguments["op"]
        self.add("spectral1d.solves")
        self.add("spectral1d.rows", op.size)
        key = _digest(op.potential_blocks, op.box_radius, op.num_interior,
                      arguments.get("threshold"))
        self.add("spectral1d.repeat_solves", int(self._repeat("1d", key)))
        if primitives["eigsh"]:
            self.add("spectral1d.sparse_solves")
        elif primitives["tridiagonal"]:
            self.add("spectral1d.tridiagonal_solves")
        else:
            self.add("spectral1d.dense_solves")

    def _on_solve_2d(self, arguments, result, primitives):
        op = arguments["op"]
        self.add("multidim.solves")
        self.add("multidim.rows", op.size)
        key = _digest(op.potential_values, op.theta_x, op.theta_y,
                      op.box_radius, op.num_interior, arguments.get("threshold"))
        self.add("multidim.repeat_solves", int(self._repeat("2d", key)))
        self.add("multidim.sparse_solves" if primitives["eigsh"] else "multidim.dense_solves")

    def _on_kernel(self, arguments, result, primitives):
        self.add("birman_schwinger.kernel_builds")
        self.add("birman_schwinger.kernel_rows", result.size)
        # computed from the matrix size, not measured traffic
        self.add("birman_schwinger.kernel_bytes", result.matrix.nbytes)

    def _on_scattering(self, arguments, result, primitives):
        self.add("scattering.solves")
        self.add("scattering.k_points", result.k_grid.size)

    def _on_jost(self, arguments, result, primitives):
        self.add("scattering.solves")
        self.add("scattering.k_points", 1)

    def _on_sweep(self, arguments, result, primitives):
        self.add("bounds.sweep_spectra", len(result.spectra))

    def _on_density(self, arguments, result, primitives):
        self.add("fractional.density_builds")
        key = repr((arguments["stability_index"], arguments["scale"]))
        self.add("fractional.repeat_density_builds", int(self._repeat("density", key)))

    def dump(self, path: str, exit_code: int):
        with open(path, "w") as handle:
            json.dump({"layers": list(LAYERS), "exit_code": exit_code,
                       "counters": self.counters, "spans": self.spans}, handle)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, ltlab_args = argv[1], argv[3:]
    tracer = Tracer()
    start = time.perf_counter()
    import ltlab.cli

    tracer.record("runner", "runner.import", start, time.perf_counter())
    tracer.install()
    code = 1
    try:
        code = ltlab.cli.main(ltlab_args)
    finally:
        tracer.dump(out, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
