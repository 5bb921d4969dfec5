"""Config-driven scenario runner: validation, dispatch, manifests, reports.

A config is a JSON document with a schema version and a list of scenarios;
each scenario names a potential (or a planar well, or a density), the grids
to use, and the audits to run.  Results land in a manifest that is
deterministic apart from wall-time fields, plus a flat CSV summary and
plot-data files for the sweep-type audits.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import (
    __version__,
    birman_schwinger,
    bounds,
    fractional,
    multidim,
    potentials,
    scattering,
    spectral1d,
)
from .reports import CSV_COLUMNS, sanitize_json

SCHEMA_VERSION = 1
GRID_KEYS = {"box_radius", "num_interior", "k_max", "refine"}
DEFAULT_INTERIOR = 1200


class ConfigError(ValueError):
    """Raised for schema violations; the message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    name: str
    audits: tuple
    potential_spec: dict | None = None
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)


def _check_potential(spec, where: str):
    """Family, nesting and parameters of a potential spec, nested specs too."""
    if not isinstance(spec, dict) or spec.get("family") not in potentials.FAMILIES:
        raise ConfigError(
            f"{where}: expected an object with a family in {list(potentials.FAMILIES)}"
        )
    family = spec["family"]
    parameters = spec.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ConfigError(f"{where}.parameters: expected an object")
    if family == "direct-sum":
        blocks = parameters.get("blocks")
        if set(parameters) != {"blocks"} or not isinstance(blocks, list) or len(blocks) != 2:
            raise ConfigError(f"{where}.parameters: direct-sum needs exactly two blocks")
        for j, block in enumerate(blocks):
            _check_potential(block, f"{where}.parameters.blocks[{j}]")
    elif family == "scaled":
        if set(parameters) != {"base", "coupling"}:
            raise ConfigError(
                f"{where}.parameters: scaled needs exactly 'base' and 'coupling'"
            )
        _check_potential(parameters["base"], f"{where}.parameters.base")
    else:
        if family == "random-smooth" and "seed" not in parameters:
            raise ConfigError(f"{where}: family {family!r} needs an explicit seed")
        try:
            inspect.signature(potentials.FAMILY_BUILDERS[family]).bind(**parameters)
        except TypeError as exc:
            raise ConfigError(f"{where}.parameters: {family}: {exc}") from None


def _check_well(spec, where: str):
    """A planar well: a Gaussian with depth and width, or a separable potential spec."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind == "gaussian":
        missing = sorted({"depth", "width"} - set(spec))
        if missing:
            raise ConfigError(f"{where}: a gaussian well needs {missing[0]!r}")
    elif kind == "separable":
        _check_potential(spec, where)
    else:
        raise ConfigError(f"{where}: expected an object with kind 'gaussian' or 'separable'")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_grid(grid: dict, where: str):
    """Each grid value lies where the solvers accept it."""
    checks = {
        "refine": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
        "k_max": (
            lambda v: _is_number(v) and v > scattering.K_MIN,
            f"a number above K_MIN = {scattering.K_MIN}",
        ),
        "num_interior": (
            lambda v: _is_int(v) and v >= spectral1d.MIN_INTERIOR_POINTS,
            f"an integer of at least {spectral1d.MIN_INTERIOR_POINTS}",
        ),
        "box_radius": (lambda v: _is_number(v) and v > 0, "a positive number"),
    }
    for key, value in grid.items():
        accept, expected = checks[key]
        if not accept(value):
            raise ConfigError(f"{where}.{key}: expected {expected}, found {value!r}")


def validate_config(config) -> list[Scenario]:
    if not isinstance(config, dict):
        raise ConfigError("config: expected a JSON object")
    version = config.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, found {version!r}"
        )
    raw = config.get("scenarios")
    if not isinstance(raw, list):
        raise ConfigError("scenarios: expected a list")
    scenarios = []
    seen = set()
    for i, item in enumerate(raw):
        where = f"scenarios[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where}: expected an object")
        name = item.get("name")
        if not isinstance(name, str) or not name:
            raise ConfigError(f"{where}.name: expected a nonempty string")
        if name in seen:
            raise ConfigError(f"{where}.name: duplicate scenario name {name!r}")
        seen.add(name)
        audits = item.get("audits")
        if not isinstance(audits, list) or not audits:
            raise ConfigError(f"{where}.audits: expected a nonempty list")
        for tag in audits:
            if tag not in AUDIT_REGISTRY:
                raise ConfigError(f"{where}.audits: unknown audit tag {tag!r}")
        potential_spec = item.get("potential")
        if potential_spec is not None:
            _check_potential(potential_spec, f"{where}.potential")
        needs_potential = [t for t in audits if t in POTENTIAL_AUDITS]
        if needs_potential and potential_spec is None:
            raise ConfigError(
                f"{where}.potential: audit {needs_potential[0]!r} needs a potential"
            )
        grid = item.get("grid", {})
        if not isinstance(grid, dict):
            raise ConfigError(f"{where}.grid: expected an object")
        unknown = set(grid) - GRID_KEYS
        if unknown:
            raise ConfigError(f"{where}.grid: unknown key {sorted(unknown)[0]!r}")
        _check_grid(grid, f"{where}.grid")
        tolerances = item.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError(f"{where}.tolerances: expected an object")
        for tag, value in tolerances.items():
            if not isinstance(value, (int, float)) or value <= 0:
                raise ConfigError(f"{where}.tolerances.{tag}: expected a positive number")
        options = item.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError(f"{where}.options: expected an object")
        needs_well = [t for t in audits if t in PLANAR_AUDITS]
        if needs_well and "well" not in options:
            raise ConfigError(f"{where}.options.well: audit {needs_well[0]!r} needs a well")
        if "well" in options:
            _check_well(options["well"], f"{where}.options.well")
        needs_density = [
            t for t in audits
            if t in DENSITY_AUDITS
            or (t == "fractional-moment" and "comparison_constant" not in options)
        ]
        if needs_density and "density" not in options:
            raise ConfigError(
                f"{where}.options.density: audit {needs_density[0]!r} needs a density"
            )
        if "density" in options:
            density = options["density"]
            if not isinstance(density, dict) or not _is_number(density.get("stability_index")):
                raise ConfigError(
                    f"{where}.options.density: expected an object with a numeric stability_index"
                )
        needs_exponent = [t for t in audits if t in EXPONENT_AUDITS]
        if needs_exponent and not _is_number(options.get("operator_exponent")):
            raise ConfigError(
                f"{where}.options.operator_exponent: audit {needs_exponent[0]!r} "
                "needs a numeric operator_exponent"
            )
        scenarios.append(
            Scenario(
                name=name,
                audits=tuple(audits),
                potential_spec=potential_spec,
                grid=dict(grid),
                tolerances=dict(tolerances),
                options=dict(options),
            )
        )
    return scenarios


class ScenarioContext:
    """Lazy, cached access to the expensive per-scenario objects."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.plots: dict[str, str] = {}
        self._cache: dict = {}

    def option(self, key, default=None):
        return self.scenario.options.get(key, default)

    def tolerance(self, tag: str, default: float) -> float:
        return float(self.scenario.tolerances.get(tag, default))

    def potential(self):
        if "potential" not in self._cache:
            spec = self.scenario.potential_spec
            if spec is None:
                raise ValueError("scenario declares no potential")
            self._cache["potential"] = potentials.build(spec)
        return self._cache["potential"]

    def box_radius(self) -> float:
        if "box_radius" not in self._cache:
            given = self.scenario.grid.get("box_radius")
            self._cache["box_radius"] = (
                float(given) if given is not None else spectral1d.default_box(self.potential())
            )
        return self._cache["box_radius"]

    def spectrum(self):
        if "spectrum" not in self._cache:
            num_interior = int(self.scenario.grid.get("num_interior", DEFAULT_INTERIOR))
            self._cache["spectrum"] = spectral1d.refined_negative_spectrum(
                self.potential(), self.box_radius(), num_interior
            )
        return self._cache["spectrum"]

    def scattering_data(self):
        if "scattering" not in self._cache:
            self._cache["scattering"] = scattering.compute_scattering(
                self.potential(),
                k_max=self.scenario.grid.get("k_max"),
                refine=int(self.scenario.grid.get("refine", 1)),
            )
        return self._cache["scattering"]

    def coupling_sweep(self, couplings):
        key = ("sweep", tuple(float(a) for a in couplings))
        if key not in self._cache:
            self._cache[key] = bounds.coupling_sweep(self.potential(), couplings)
        return self._cache[key]

    def couplings(self):
        spec = self.option("couplings")
        if spec is None:
            return bounds.ALPHA_DEFAULTS
        if isinstance(spec, dict):
            return tuple(
                np.geomspace(spec["start"], spec["stop"], int(spec["count"]))
            )
        return tuple(float(a) for a in spec)

    def well_2d(self):
        if "well_2d" not in self._cache:
            spec = self.option("well")
            if spec is None:
                raise ValueError("planar audits need a 'well' entry in options")
            kind = spec.get("kind")
            if kind == "gaussian":
                well = multidim.gaussian_well_2d(spec["depth"], spec["width"])
            elif kind == "separable":
                well = multidim.separable_well_2d(potentials.build(spec))
            else:
                raise ValueError(f"unknown planar well kind {kind!r}")
            self._cache["well_2d"] = well
        return self._cache["well_2d"]

    def plane_box(self) -> float:
        return float(self.option("box_radius", 8.0))

    def plane_points(self) -> int:
        return int(self.option("num_interior", 64))

    def vector_potential(self, magnetic: bool):
        if not magnetic:
            return None
        return multidim.constant_field(float(self.option("field_strength", 1.0)))

    def planar_spectrum(self, num_interior: int, magnetic: bool):
        """Unrefined planar spectrum, solved once per (grid, field)."""
        key = ("planar_spectrum", num_interior, magnetic)
        if key not in self._cache:
            self._cache[key] = multidim.negative_spectrum_2d(
                multidim.build_operator_2d(
                    self.well_2d(), self.plane_box(), num_interior,
                    self.vector_potential(magnetic),
                )
            )
        return self._cache[key]

    def spectrum_2d(self, magnetic: bool):
        """Richardson pairing of the planar M and 2M+1 grids, as in one dimension."""
        points = self.plane_points()
        return spectral1d.richardson_pair(
            self.planar_spectrum(points, magnetic),
            self.planar_spectrum(2 * points + 1, magnetic),
        )

    def density(self, points: int | None = None):
        """The options' density tabulated on `points` momenta (default: its grid_points)."""
        spec = self.option("density")
        if spec is None:
            raise ValueError("fractional audits need a 'density' entry in options")
        if points is None:
            points = int(spec.get("grid_points", 801))
        key = ("density", points)
        if key not in self._cache:
            self._cache[key] = fractional.stable_density(
                float(spec["stability_index"]),
                float(spec.get("scale", 1.0)),
                fractional.default_momentum_grid(
                    float(spec.get("grid_cutoff", 40.0)), points
                ),
            )
        return self._cache[key]

    def add_plot(self, name: str, content: str):
        self.plots[name] = content


def _columns_csv(columns: dict) -> str:
    header = ",".join(columns)
    length = len(next(iter(columns.values())))
    lines = [header]
    for i in range(length):
        lines.append(
            ",".join(
                repr(float(columns[key][i]))
                if isinstance(columns[key][i], (int, float, np.floating))
                else str(columns[key][i])
                for key in columns
            )
        )
    return "\n".join(lines) + "\n"


# --- audit handlers: each takes the context, returns a list of reports


def _run_classical_constants(ctx):
    return bounds.classical_constant_audit()


def _run_product_identity(ctx):
    return [bounds.product_identity_audit()]


def _run_constant_ordering(ctx):
    return bounds.constant_ordering_audit()


def _run_sharp_half(ctx):
    return [
        bounds.sharp_half_audit(
            ctx.potential(), ctx.spectrum(), ctx.tolerance("sharp-half", 1e-6)
        )
    ]


def _run_sharp_half_sweep(ctx):
    reports, rows = bounds.sharpness_sweep(
        integral=float(ctx.option("integral", 2.0)),
        widths=tuple(ctx.option("widths", (1e-1, 1e-2, 1e-3))),
        base_tolerance=ctx.tolerance("sharp-half", 1e-3),
        saturation_floor=float(ctx.option("saturation_floor", 0.499)),
    )
    ctx.add_plot("sharpness", _columns_csv(rows))
    return reports


def _run_lifted_moment(ctx):
    return [
        bounds.lifted_moment_audit(
            ctx.potential(), ctx.spectrum(), float(g),
            ctx.tolerance("lifted-moment", 1e-6),
        )
        for g in ctx.option("gammas", (0.5, 1.5))
    ]


def _run_half_moment_sandwich(ctx):
    return bounds.half_moment_sandwich(
        ctx.potential(), ctx.spectrum(), ctx.tolerance("half-moment-sandwich", 1e-6)
    )


def _run_holder_chain(ctx):
    return bounds.holder_chain_audit(
        ctx.potential(), ctx.scattering_data(), ctx.tolerance("holder-chain", 1e-9)
    )


def _run_lifting_identity(ctx):
    return bounds.lifting_identity_sweep(
        count=int(ctx.option("count", 20)),
        seed=int(ctx.option("seed", 7)),
        tolerance=ctx.tolerance("lifting-identity", 1e-8),
    )


def _run_birman_schwinger(ctx):
    return [
        birman_schwinger.birman_schwinger_audit(
            ctx.potential(), ctx.spectrum(), ctx.tolerance("birman-schwinger", 1e-3)
        )
    ]


def _run_kyfan(ctx):
    epsilons = ctx.option("epsilons")
    reports, profile = birman_schwinger.monotonicity_audit(
        ctx.potential(),
        None if epsilons is None else np.asarray(epsilons, dtype=float),
        n_max=int(ctx.option("n_max", 10)),
    )
    ctx.add_plot("kyfan", profile.to_csv())
    return reports


def _run_cauchy_kernel(ctx):
    return [
        birman_schwinger.cauchy_kernel_identity_check(
            tolerance=ctx.tolerance("cauchy-kernel", 1e-6)
        )
    ]


def _run_unitarity(ctx):
    return [
        scattering.unitarity_audit(
            ctx.scattering_data(), ctx.tolerance("unitarity", 1e-7)
        )
    ]


def _run_spectral_positivity(ctx):
    return scattering.positivity_audit(ctx.scattering_data())


def _run_conjugation_symmetry(ctx):
    report = scattering.conjugation_symmetry_check(
        ctx.potential(), ctx.scattering_data(),
        ctx.tolerance("conjugation-symmetry", 1e-7),
    )
    return [] if report is None else [report]


def _run_trace_identities(ctx):
    return scattering.trace_identity_audit(
        ctx.potential(), ctx.spectrum(), ctx.scattering_data(),
        ctx.tolerance("trace-identities", 1e-3),
    )


def _run_remainder_sweep(ctx):
    reports, rows = bounds.remainder_sweep(
        ctx.potential(),
        ctx.coupling_sweep(ctx.couplings()),
        base_tolerance=ctx.tolerance("remainder-sweep", 1e-6),
        slope_cap=float(ctx.option("slope_cap", 1.6)),
    )
    ctx.add_plot("remainder", _columns_csv(rows))
    return reports


def _run_weyl_ratios(ctx):
    sweep = ctx.coupling_sweep(ctx.couplings())
    reports = []
    for gamma in ctx.option("gammas", (1.0, 1.5)):
        sub, rows = bounds.weyl_ratio_sweep(
            ctx.potential(), float(gamma), sweep,
            base_tolerance=ctx.tolerance("weyl-ratios", 1e-6),
        )
        ctx.add_plot(f"weyl-{gamma}", _columns_csv(rows))
        reports.extend(sub)
    return reports


def _run_lt_2d(ctx):
    spectrum = ctx.spectrum_2d(False)
    return [
        multidim.lt_audit_2d(
            ctx.well_2d(), spectrum, float(gamma), ctx.plane_box(),
            base_tolerance=ctx.tolerance("lt-2d", 1e-3),
        )
        for gamma in ctx.option("gammas", (0.75, 1.0, 1.5))
    ]


def _run_lt_2d_magnetic(ctx):
    spectrum = ctx.spectrum_2d(True)
    return [
        multidim.lt_audit_2d(
            ctx.well_2d(), spectrum, float(ctx.option("magnetic_gamma", 1.5)),
            ctx.plane_box(), magnetic=True,
            base_tolerance=ctx.tolerance("lt-2d-magnetic", 1e-3),
        )
    ]


def _run_gauge_invariance(ctx):
    return multidim.gauge_invariance_check(
        ctx.well_2d(), ctx.plane_box(),
        int(ctx.option("gauge_points", min(ctx.plane_points(), 32))),
        field_strength=float(ctx.option("field_strength", 1.0)),
        seed=int(ctx.option("gauge_seed", 5)),
        tolerance=ctx.tolerance("gauge-invariance", 1e-8),
    )


def _run_lifting_2d(ctx):
    return [
        multidim.lifting_inequality_audit(
            ctx.well_2d(), ctx.plane_box(), ctx.plane_points(),
            gamma=float(ctx.option("lifting_gamma", 1.0)),
            base_tolerance=ctx.tolerance("lifting-2d", 1e-9),
            spectrum_2d=ctx.planar_spectrum(ctx.plane_points(), False),
        )
    ]


def _run_diamagnetic_trend(ctx):
    return [
        multidim.diamagnetic_trend_check(
            ctx.planar_spectrum(ctx.plane_points(), False),
            ctx.planar_spectrum(ctx.plane_points(), True),
            gamma=float(ctx.option("magnetic_gamma", 1.5)),
            field_strength=float(ctx.option("field_strength", 1.0)),
        )
    ]


def _run_stable_c0(ctx):
    reference = ctx.option("reference")
    if reference == "pi":
        reference = math.pi
    density = ctx.density()
    refined = None
    if ctx.option("refine_grid", False):
        refined = ctx.density(2 * density.momentum_grid.size - 1)
    return fractional.c0_reference_audit(
        float(ctx.option("operator_exponent")),
        density,
        reference=None if reference is None else float(reference),
        refined=refined,
        base_tolerance=ctx.tolerance("stable-c0", 1e-6),
    )


def _run_characteristic_roundtrip(ctx):
    return [
        fractional.characteristic_function_check(
            ctx.density(),
            tolerance=ctx.tolerance("characteristic-roundtrip", 1e-8),
        )
    ]


def _run_fractional_moment(ctx):
    exponent = float(ctx.option("operator_exponent"))
    constant = ctx.option("comparison_constant")
    if constant == "pi":
        constant = math.pi
    if constant is None:
        constant = fractional.c0_search(exponent, ctx.density())
    return [
        fractional.fractional_moment_audit(
            ctx.potential(), exponent, float(constant),
            box_margin=float(ctx.option("box_margin", 10.0)),
            num_points=int(ctx.option("num_points", 1024)),
            base_tolerance=ctx.tolerance("fractional-moment", 1e-6),
        )
    ]


AUDIT_REGISTRY = {
    "classical-constants": _run_classical_constants,
    "product-identity": _run_product_identity,
    "constant-ordering": _run_constant_ordering,
    "sharp-half": _run_sharp_half,
    "sharp-half-sweep": _run_sharp_half_sweep,
    "lifted-moment": _run_lifted_moment,
    "half-moment-sandwich": _run_half_moment_sandwich,
    "holder-chain": _run_holder_chain,
    "lifting-identity": _run_lifting_identity,
    "birman-schwinger": _run_birman_schwinger,
    "kyfan-monotonicity": _run_kyfan,
    "cauchy-kernel": _run_cauchy_kernel,
    "unitarity": _run_unitarity,
    "spectral-positivity": _run_spectral_positivity,
    "conjugation-symmetry": _run_conjugation_symmetry,
    "trace-identities": _run_trace_identities,
    "remainder-sweep": _run_remainder_sweep,
    "weyl-ratios": _run_weyl_ratios,
    "lt-2d": _run_lt_2d,
    "lt-2d-magnetic": _run_lt_2d_magnetic,
    "gauge-invariance": _run_gauge_invariance,
    "lifting-2d": _run_lifting_2d,
    "diamagnetic-trend": _run_diamagnetic_trend,
    "stable-c0": _run_stable_c0,
    "characteristic-roundtrip": _run_characteristic_roundtrip,
    "fractional-moment": _run_fractional_moment,
}

POTENTIAL_AUDITS = {
    "sharp-half",
    "lifted-moment",
    "half-moment-sandwich",
    "holder-chain",
    "birman-schwinger",
    "kyfan-monotonicity",
    "unitarity",
    "spectral-positivity",
    "conjugation-symmetry",
    "trace-identities",
    "remainder-sweep",
    "weyl-ratios",
    "fractional-moment",
}


PLANAR_AUDITS = {
    "lt-2d",
    "lt-2d-magnetic",
    "gauge-invariance",
    "lifting-2d",
    "diamagnetic-trend",
}

# fractional-moment reads the density only to search for its comparison
# constant, so it needs one when no comparison_constant is given
DENSITY_AUDITS = {"stable-c0", "characteristic-roundtrip"}
EXPONENT_AUDITS = {"stable-c0", "fractional-moment"}


def run_scenario(scenario: Scenario) -> dict:
    """Execute one scenario; failures are captured, never propagated."""
    ctx = ScenarioContext(scenario)
    records = []
    error = None
    started = time.perf_counter()
    try:
        for tag in scenario.audits:
            for report in AUDIT_REGISTRY[tag](ctx):
                records.append(report.to_record())
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {
        "name": scenario.name,
        "wall_time_s": time.perf_counter() - started,
        "error": error,
        "reports": records,
        "plots": ctx.plots,
    }


def run_config(config_path, jobs: int = 1, out_dir=None) -> dict:
    """Validate, execute, and (optionally) persist a full suite."""
    path = Path(config_path)
    try:
        raw = path.read_bytes()
        config = json.loads(raw)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    scenarios = validate_config(config)
    if jobs > 1 and len(scenarios) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_scenario, scenarios))
    else:
        results = [run_scenario(s) for s in scenarios]
    global_pass = all(r["error"] is None for r in results) and all(
        rec["passed"] or rec["inconclusive"]
        for r in results
        for rec in r["reports"]
    )
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "suite": config.get("suite", path.stem),
        "config_digest": hashlib.sha256(raw).hexdigest(),
        "global_pass": global_pass,
        "scenarios": [
            {k: v for k, v in r.items() if k != "plots"} for r in results
        ],
    }
    manifest = sanitize_json(manifest)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").write_text(render_manifest(manifest))
        (out / "summary.csv").write_text(manifest_to_csv(manifest))
        plot_dir = out / "plots"
        for r in results:
            for plot_name, content in r["plots"].items():
                plot_dir.mkdir(parents=True, exist_ok=True)
                (plot_dir / f"{r['name']}-{plot_name}.csv").write_text(content)
    return manifest


def render_manifest(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"


def strip_timing(manifest: dict) -> dict:
    """Copy with every wall_time_s removed, for bit-for-bit comparisons."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items() if k != "wall_time_s"}
        if isinstance(obj, list):
            return [scrub(v) for v in obj]
        return obj

    return scrub(manifest)


def _scaled_move(a, b, scale: float) -> float | None:
    """|a - b| / max(|a|, |b|, scale); None when exactly one side is missing."""
    if a is None or b is None:
        return None if (a is None) != (b is None) else 0.0
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), scale)


def diff_manifests(old: dict, new: dict, rtol: float) -> tuple[int, list[str]]:
    """Records count and one line per verdict change or move beyond rtol.

    Both manifests are compared after strip_timing.  Records pair up by
    position within each scenario.  A verdict (passed, inconclusive) or a
    scenario error that changes is listed; so is an lhs, rhs or residual
    that moves by more than rtol * max(|a|, |b|, |rhs|), with |rhs| the
    larger of the two records' right-hand sides, and such a line ends with
    the new record's tolerance.  Raises ValueError when the scenario names or
    their audit tags do not line up.
    """
    old, new = strip_timing(old), strip_timing(new)
    names = [s["name"] for s in old["scenarios"]]
    if names != [s["name"] for s in new["scenarios"]]:
        raise ValueError("the manifests do not hold the same scenarios")
    lines = []
    compared = 0
    for before, after in zip(old["scenarios"], new["scenarios"]):
        name = before["name"]
        tags = [r["audit_tag"] for r in before["reports"]]
        if tags != [r["audit_tag"] for r in after["reports"]]:
            raise ValueError(f"{name}: the scenarios hold different records")
        if before["error"] != after["error"]:
            lines.append(f"{name}: error {before['error']!r} -> {after['error']!r}")
        for index, (a, b) in enumerate(zip(before["reports"], after["reports"])):
            compared += 1
            where = f"{name}[{index}] {a['audit_tag']}"
            for key in ("passed", "inconclusive"):
                if a[key] != b[key]:
                    lines.append(f"{where}: {key} {a[key]} -> {b[key]}")
            scale = max(abs(a["rhs"] or 0.0), abs(b["rhs"] or 0.0))
            for key in ("lhs", "rhs", "residual"):
                move = _scaled_move(a[key], b[key], scale)
                if move is None or move > rtol:
                    shown = "n/a" if move is None else f"{move:.2e}"
                    lines.append(
                        f"{where}: {key} {a[key]!r} -> {b[key]!r} "
                        f"(scaled move {shown}, tolerance {b['tolerance']!r})"
                    )
    return compared, lines


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return str(value)


def manifest_to_csv(manifest: dict) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for scenario in manifest["scenarios"]:
        for rec in scenario["reports"]:
            status = "inconclusive" if rec["inconclusive"] else str(rec["passed"])
            row = [
                scenario["name"],
                rec["audit_tag"],
                rec["citation"],
                _csv_value(rec["gamma"]),
                _csv_value(rec["d"]),
                _csv_value(rec["lhs"]),
                _csv_value(rec["rhs"]),
                _csv_value(rec["ratio"]),
                _csv_value(rec["tolerance"]),
                status,
            ]
            lines.append(",".join(row))
    return "\n".join(lines) + "\n"


TOPIC_GROUPS = (
    ("Semiclassical constants", (
        "classical-constant", "product-identity", "constant-ordering",
        "constant-log-convexity",
    )),
    ("Half-moment bound and sharpness", (
        "sharp-half", "half-moment", "lifted-moment", "weyl-ratio",
    )),
    ("Kernel monotonicity", (
        "birman-schwinger", "kyfan", "cauchy-kernel",
    )),
    ("Scattering identities", (
        "unitarity", "logdet-floor", "spectral-positivity",
        "conjugation-symmetry", "trace-identity", "holder-chain",
        "lifting-identity", "remainder",
    )),
    ("Planar and magnetic", (
        "lt-2d", "gauge", "lifting-2d", "diamagnetic",
    )),
    ("Fractional dispersion", (
        "stable-c0", "characteristic-roundtrip", "fractional-moment",
    )),
)


def _topic_for(tag: str) -> str:
    for title, prefixes in TOPIC_GROUPS:
        if any(tag.startswith(p) for p in prefixes):
            return title
    return "Other"


def manifest_to_markdown(manifest: dict) -> str:
    lines = [
        f"# Audit summary: {manifest['suite']}",
        "",
        f"- tool version: {manifest['tool_version']}",
        f"- config digest: `{manifest['config_digest']}`",
        f"- global pass: **{manifest['global_pass']}**",
        "",
    ]
    failed = [
        (s["name"], s["error"]) for s in manifest["scenarios"] if s["error"]
    ]
    if failed:
        lines.append("## Scenario errors")
        lines.append("")
        for name, err in failed:
            lines.append(f"- `{name}`: {err}")
        lines.append("")
    grouped: dict[str, list] = {}
    for scenario in manifest["scenarios"]:
        for rec in scenario["reports"]:
            grouped.setdefault(_topic_for(rec["audit_tag"]), []).append(
                (scenario["name"], rec)
            )
    for title, _ in TOPIC_GROUPS + (("Other", ()),):
        if title not in grouped:
            continue
        lines.append(f"## {title}")
        lines.append("")
        lines.append("| scenario | audit | reference | lhs | rhs | ratio | tolerance | status |")
        lines.append("| --- | --- | --- | --- | --- | --- | --- | --- |")
        for name, rec in grouped[title]:
            status = "inconclusive" if rec["inconclusive"] else (
                "pass" if rec["passed"] else "FAIL"
            )
            def cell(v):
                return "" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)
            lines.append(
                "| {} | {} | {} | {} | {} | {} | {} | {} |".format(
                    name, rec["audit_tag"], rec["citation"],
                    cell(rec["lhs"]), cell(rec["rhs"]), cell(rec["ratio"]),
                    cell(rec["tolerance"]), status,
                )
            )
        lines.append("")
    return "\n".join(lines)


def render_report(manifest: dict, fmt: str) -> str:
    if fmt == "csv":
        return manifest_to_csv(manifest)
    if fmt == "json":
        return render_manifest(manifest)
    if fmt == "md":
        return manifest_to_markdown(manifest)
    raise ValueError(f"unknown report format {fmt!r}")
