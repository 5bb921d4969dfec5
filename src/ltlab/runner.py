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
from typing import Callable, NamedTuple

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
        _check_fields(spec, {"kind": None, "depth": NUMBER, "width": NUMBER}, where)
    elif kind == "separable":
        _check_fields(spec, dict.fromkeys(("kind", "family", "parameters")), where)
        _check_potential(spec, where)
    else:
        raise ConfigError(f"{where}: expected an object with kind 'gaussian' or 'separable'")


def _check_fields(spec: dict, fields: dict, where: str):
    """Refuse a key not in fields, then a value not of its field's Kind (None takes any)."""
    unknown = set(spec) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    for key, kind in fields.items():
        if kind is not None and key in spec and not kind.accept(spec[key]):
            raise ConfigError(f"{where}.{key}: expected {kind.adjective} value, found {spec[key]!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_grid(grid: dict, where: str):
    """Each grid key is known and its value lies where the solvers accept it."""
    checks = {
        "refine": (lambda v: _is_int(v) and v >= 1, "a positive integer"),
        "k_max": (
            lambda v: _is_number(v) and scattering.K_MIN < v < math.inf,
            f"a number above K_MIN = {scattering.K_MIN}",
        ),
        "num_interior": (
            lambda v: _is_int(v) and v >= spectral1d.MIN_INTERIOR_POINTS,
            f"an integer of at least {spectral1d.MIN_INTERIOR_POINTS}",
        ),
        "box_radius": (lambda v: _is_number(v) and v > 0, "a positive number"),
    }
    _check_fields(grid, dict.fromkeys(checks), where)
    for key, value in grid.items():
        accept, expected = checks[key]
        if not accept(value):
            raise ConfigError(f"{where}.{key}: expected {expected}, found {value!r}")


def _check_density(spec, where: str):
    """A numeric stability_index; scale, grid_cutoff and grid_points of their types; no other key."""
    if not isinstance(spec, dict) or not _is_number(spec.get("stability_index")):
        raise ConfigError(f"{where}: expected an object with a numeric stability_index")
    fields = {"stability_index": NUMBER, "scale": NUMBER, "grid_cutoff": NUMBER, "grid_points": INTEGER}
    _check_fields(spec, fields, where)


def _check_options(audits, options: dict, where: str):
    """The inputs the audits read, then their required options, then every option's type."""
    needs = {name: [t for t in audits if name in AUDITS[t].inputs] for name in ("well", "density")}
    if "comparison_constant" not in options:
        # fractional-moment reads the density only to search for its constant
        needs["density"] += [t for t in audits if t == "fractional-moment"]
    for name, check in (("well", _check_well), ("density", _check_density)):
        if needs[name] and name not in options:
            raise ConfigError(f"{where}.{name}: audit {needs[name][0]!r} needs a {name}")
        if name in options:
            check(options[name], f"{where}.{name}")
    for tag in audits:
        for name, default in AUDITS[tag].options.items():
            kind = OPTION_KINDS[name]
            if default is REQUIRED and not kind.accept(options.get(name)):
                raise ConfigError(f"{where}.{name}: audit {tag!r} needs a {kind.adjective} {name}")
    for name, value in options.items():
        kind = OPTION_KINDS.get(name)
        if kind is not None and not kind.accept(value):
            raise ConfigError(f"{where}.{name}: expected {kind.adjective} value, found {value!r}")
    if "stable-c0" in audits and options.get("reference") is None and not options.get("refine_grid"):
        raise ConfigError(f"{where}.reference: audit 'stable-c0' needs a reference or refine_grid: true")


def _check_stage_grids(scenario: Scenario, where: str):
    """The grids, couplings and density parameters the audits build pass the solvers' own checks."""
    ctx, audits, grid = ScenarioContext(scenario), set(scenario.audits), scenario.grid
    checks = []
    if "k_max" in grid:
        checks.append(("grid.k_max", lambda: scattering._k_plan(grid["k_max"], grid.get("refine", 1))))
    if audits & {"lt-2d", "lt-2d-magnetic", "lifting-2d", "diamagnetic-trend"}:
        checks.append(("options.num_interior", lambda: multidim._nodes(1.0, ctx.plane_points())))
    if audits & {"lt-2d", "lt-2d-magnetic"}:  # and the Richardson fine grid
        checks.append(("options.num_interior", lambda: multidim._nodes(1.0, 2 * ctx.plane_points() + 1)))
    if "gauge-invariance" in audits:
        key = "gauge_points" if "gauge_points" in scenario.options else "num_interior"
        checks.append((f"options.{key}", lambda: multidim._nodes(1.0, ctx.gauge_points())))
    if audits & {"remainder-sweep", "weyl-ratios"}:
        checks.append(("options.couplings", lambda: bounds._check_couplings(ctx.couplings())))
    if "density" in scenario.options:
        spec = scenario.options["density"]
        parameters = float(spec["stability_index"]), float(spec.get("scale", 1.0))
        checks.append(("options.density (stability_index, scale)",
                       lambda: fractional._check_stable_parameters(*parameters)))
        key = "options.density (grid_points, grid_cutoff)"
        checks.append((key, lambda: fractional._check_momentum_grid(ctx.momentum_grid())))
    for key, check in checks:
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"{where}.{key}: {exc}") from None


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
            if tag not in AUDITS:
                raise ConfigError(f"{where}.audits: unknown audit tag {tag!r}")
        potential_spec = item.get("potential")
        if potential_spec is not None:
            _check_potential(potential_spec, f"{where}.potential")
        needs_potential = [t for t in audits if "potential" in AUDITS[t].inputs]
        if needs_potential and potential_spec is None:
            raise ConfigError(
                f"{where}.potential: audit {needs_potential[0]!r} needs a potential"
            )
        grid = item.get("grid", {})
        if not isinstance(grid, dict):
            raise ConfigError(f"{where}.grid: expected an object")
        _check_grid(grid, f"{where}.grid")
        tolerances = item.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError(f"{where}.tolerances: expected an object")
        for tag, value in tolerances.items():
            if not _is_number(value) or value <= 0:
                raise ConfigError(f"{where}.tolerances.{tag}: expected a positive number")
            if tag not in audits or AUDITS[tag].tolerance is None:
                raise ConfigError(
                    f"{where}.tolerances.{tag}: expected one of the scenario's audits "
                    "that takes a tolerance"
                )
        options = item.get("options", {})
        if not isinstance(options, dict):
            raise ConfigError(f"{where}.options: expected an object")
        _check_options(audits, options, f"{where}.options")
        scenarios.append(Scenario(
            name=name, audits=tuple(audits), potential_spec=potential_spec,
            grid=dict(grid), tolerances=dict(tolerances), options=dict(options),
        ))
        _check_stage_grids(scenarios[-1], where)
    return scenarios


class ScenarioContext:
    """Lazy, cached access to the expensive per-scenario objects.

    Each stage is built once per scenario, and a build that raises raises
    its exception again to each later reader.  `timings` holds the seconds
    each build took under its key, the stages it first built included.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.plots: dict[str, str] = {}
        self.timings: dict[str, float] = {}
        self._cache: dict = {}

    def _stage(self, key: str, build):
        if key not in self._cache:
            started = time.perf_counter()
            try:
                self._cache[key] = build()
            except Exception as exc:
                self._cache[key] = exc
            self.timings[key] = time.perf_counter() - started
        if isinstance(self._cache[key], Exception):
            raise self._cache[key]
        return self._cache[key]

    def option(self, key, default=None):
        return self.scenario.options.get(key, default)

    def tolerance(self, tag: str, default: float) -> float:
        return float(self.scenario.tolerances.get(tag, default))

    def potential(self):
        return self._stage("potential", lambda: potentials.build(self.scenario.potential_spec))

    def box_radius(self) -> float:
        given = self.scenario.grid.get("box_radius")
        return self._stage("box_radius", lambda: (
            float(given) if given is not None else spectral1d.default_box(self.potential())
        ))

    def spectrum(self):
        return self._stage("spectrum", lambda: spectral1d.refined_negative_spectrum(
            self.potential(), self.box_radius(),
            self.scenario.grid.get("num_interior", DEFAULT_INTERIOR),
        ))

    def scattering_data(self):
        return self._stage("scattering", lambda: scattering.compute_scattering(
            self.potential(),
            k_max=self.scenario.grid.get("k_max"),
            refine=self.scenario.grid.get("refine", 1),
        ))

    def coupling_sweep(self):
        """The potential's spectra at every coupling of options.couplings."""
        return self._stage(
            "sweep", lambda: bounds.coupling_sweep(self.potential(), self.couplings())
        )

    def couplings(self):
        spec = self.option("couplings")
        if spec is None:
            return bounds.ALPHA_DEFAULTS
        if isinstance(spec, dict):
            return tuple(np.geomspace(spec["start"], spec["stop"], spec["count"]))
        return tuple(float(a) for a in spec)

    def well_2d(self):
        def build():
            spec = self.option("well")
            if spec["kind"] == "gaussian":
                return multidim.gaussian_well_2d(spec["depth"], spec["width"])
            return multidim.separable_well_2d(potentials.build(spec))

        return self._stage("well_2d", build)

    def plane_box(self) -> float:
        return float(self.option("box_radius", 8.0))

    def plane_points(self) -> int:
        return self.option("num_interior", 64)

    def gauge_points(self) -> int:
        """options.gauge_points, else the planar side capped at 32."""
        given = self.option("gauge_points")
        return min(self.plane_points(), 32) if given is None else given

    def vector_potential(self, magnetic: bool):
        if not magnetic:
            return None
        return multidim.constant_field(float(self.option("field_strength", 1.0)))

    def planar_spectrum(self, num_interior: int, magnetic: bool):
        """Unrefined planar spectrum, solved once per (grid, field)."""
        key = f"planar_spectrum-{num_interior}" + ("-magnetic" if magnetic else "")
        return self._stage(key, lambda: multidim.negative_spectrum_2d(
            multidim.build_operator_2d(
                self.well_2d(), self.plane_box(), num_interior,
                self.vector_potential(magnetic),
            )
        ))

    def spectrum_2d(self, magnetic: bool):
        """Richardson pairing of the planar M and 2M+1 grids, as in one dimension."""
        points = self.plane_points()
        return self._stage("spectrum_2d" + ("-magnetic" if magnetic else ""), lambda: (
            spectral1d.richardson_pair(
                self.planar_spectrum(points, magnetic),
                self.planar_spectrum(2 * points + 1, magnetic),
            )
        ))

    def momentum_grid(self, points: int | None = None) -> np.ndarray:
        """`points` momenta (default: the density's grid_points) from 0 to its grid_cutoff."""
        spec = self.option("density")
        return np.linspace(0.0, spec.get("grid_cutoff", 40.0), points or spec.get("grid_points", 801))

    def density(self, points: int | None = None):
        """The options' density tabulated on `points` momenta (default: its grid_points)."""
        spec, grid = self.option("density"), self.momentum_grid(points)
        return self._stage(f"density-{grid.size}", lambda: fractional.stable_density(
            float(spec["stability_index"]), float(spec.get("scale", 1.0)), grid
        ))


def _columns_csv(columns: dict) -> str:
    def cell(value):
        return repr(float(value)) if isinstance(value, (int, float, np.number)) else str(value)

    rows = [",".join(map(cell, row)) for row in zip(*columns.values())]
    return "\n".join([",".join(columns), *rows]) + "\n"


def _plotted(ctx, name: str, result) -> list:
    """Keep the columns of a sweep's (reports, columns) as the plot `name`; return the reports."""
    reports, columns = result
    ctx.plots[name] = _columns_csv(columns)
    return reports


class Kind(NamedTuple):
    """An option's type: the word for it in messages, its test and its conversion."""

    adjective: str
    accept: Callable
    convert: Callable = lambda value: value


def _is_couplings(value) -> bool:
    if isinstance(value, dict):
        return (set(value) == {"start", "stop", "count"} and _is_int(value["count"])
                and _is_number(value["start"]) and _is_number(value["stop"]))
    return NUMBERS.accept(value)


NUMBER = Kind("numeric", _is_number, float)
INTEGER = Kind("integer", _is_int)
NUMBERS = Kind("numeric-list", lambda v: isinstance(v, list) and all(map(_is_number, v)), tuple)
FLAG = Kind("boolean", lambda v: isinstance(v, bool))
CONSTANT = Kind(
    "numeric or 'pi'", lambda v: v == "pi" or _is_number(v),
    lambda v: math.pi if v == "pi" else float(v),
)

# One type per option name.  box_radius, num_interior and field_strength are
# also read by the planar stages.  Names not listed here are ignored.
OPTION_KINDS = {
    "box_radius": NUMBER, "num_interior": INTEGER, "field_strength": NUMBER,
    "integral": NUMBER, "widths": NUMBERS, "saturation_floor": NUMBER,
    "gammas": NUMBERS, "count": INTEGER, "seed": INTEGER,
    "epsilons": NUMBERS, "n_max": INTEGER, "slope_cap": NUMBER,
    "couplings": Kind("numeric-list or {start, stop, count}", _is_couplings),
    "magnetic_gamma": NUMBER, "gauge_points": INTEGER, "gauge_seed": INTEGER,
    "lifting_gamma": NUMBER, "operator_exponent": NUMBER, "reference": CONSTANT,
    "refine_grid": FLAG, "comparison_constant": CONSTANT, "box_margin": NUMBER,
    "num_points": INTEGER,
}

REQUIRED = object()  # the default of an option that every config must give


@dataclass(frozen=True)
class Audit:
    """One audit tag, declared.

    `run(ctx, options, tolerance)` returns the audit's reports.  `inputs`
    names what it reads besides options: the scenario's potential, or the
    well or density entry of its options.  `options` maps each option it
    reads to its default, and `tolerance` is its base tolerance, None when
    it takes none.
    """

    run: Callable
    inputs: tuple = ()
    options: dict = field(default_factory=dict)
    tolerance: float | None = None


AUDITS = {
    "classical-constants": Audit(lambda ctx, o, tol: bounds.classical_constant_audit()),
    "product-identity": Audit(lambda ctx, o, tol: [bounds.product_identity_audit()]),
    "constant-ordering": Audit(lambda ctx, o, tol: bounds.constant_ordering_audit()),
    "sharp-half": Audit(
        lambda ctx, o, tol: [bounds.sharp_half_audit(ctx.potential(), ctx.spectrum(), tol)],
        ("potential",), tolerance=1e-6),
    "sharp-half-sweep": Audit(
        lambda ctx, o, tol: _plotted(ctx, "sharpness", bounds.sharpness_sweep(
            o["integral"], o["widths"], base_tolerance=tol,
            saturation_floor=o["saturation_floor"])),
        options={"integral": 2.0, "widths": (1e-1, 1e-2, 1e-3), "saturation_floor": 0.499},
        tolerance=1e-3),
    "lifted-moment": Audit(
        lambda ctx, o, tol: [
            bounds.lifted_moment_audit(ctx.potential(), ctx.spectrum(), float(g), tol)
            for g in o["gammas"]],
        ("potential",), {"gammas": (0.5, 1.5)}, 1e-6),
    "half-moment-sandwich": Audit(
        lambda ctx, o, tol: bounds.half_moment_sandwich(ctx.potential(), ctx.spectrum(), tol),
        ("potential",), tolerance=1e-6),
    "holder-chain": Audit(
        lambda ctx, o, tol: bounds.holder_chain_audit(
            ctx.potential(), ctx.scattering_data(), tol),
        ("potential",), tolerance=1e-9),
    "lifting-identity": Audit(
        lambda ctx, o, tol: bounds.lifting_identity_sweep(o["count"], o["seed"], tolerance=tol),
        options={"count": 20, "seed": 7}, tolerance=1e-8),
    "birman-schwinger": Audit(
        lambda ctx, o, tol: [birman_schwinger.birman_schwinger_audit(
            ctx.potential(), ctx.spectrum(), tol)],
        ("potential",), tolerance=1e-3),
    "kyfan-monotonicity": Audit(
        lambda ctx, o, tol: _plotted(ctx, "kyfan", birman_schwinger.monotonicity_audit(
            ctx.potential(), o["epsilons"], n_max=o["n_max"])),
        ("potential",), {"epsilons": None, "n_max": 10}),
    "cauchy-kernel": Audit(
        lambda ctx, o, tol: [birman_schwinger.cauchy_kernel_identity_check(tolerance=tol)],
        tolerance=1e-6),
    "unitarity": Audit(
        lambda ctx, o, tol: [scattering.unitarity_audit(ctx.scattering_data(), tol)],
        ("potential",), tolerance=1e-7),
    "spectral-positivity": Audit(
        lambda ctx, o, tol: scattering.positivity_audit(ctx.scattering_data()),
        ("potential",)),
    "conjugation-symmetry": Audit(
        # the check returns None when the potential is not real
        lambda ctx, o, tol: list(filter(None, [scattering.conjugation_symmetry_check(
            ctx.potential(), ctx.scattering_data(), tol)])),
        ("potential",), tolerance=1e-7),
    "trace-identities": Audit(
        lambda ctx, o, tol: scattering.trace_identity_audit(
            ctx.potential(), ctx.spectrum(), ctx.scattering_data(), tol),
        ("potential",), tolerance=1e-3),
    # couplings is read by the sweep stage that remainder-sweep and weyl-ratios share
    "remainder-sweep": Audit(
        lambda ctx, o, tol: _plotted(ctx, "remainder", bounds.remainder_sweep(
            ctx.potential(), ctx.coupling_sweep(), base_tolerance=tol, slope_cap=o["slope_cap"])),
        ("potential",), {"couplings": None, "slope_cap": 1.6}, 1e-6),
    "weyl-ratios": Audit(
        lambda ctx, o, tol: [
            report
            for gamma in o["gammas"]
            for report in _plotted(ctx, f"weyl-{gamma}", bounds.weyl_ratio_sweep(
                ctx.potential(), float(gamma), ctx.coupling_sweep(), base_tolerance=tol))],
        ("potential",), {"gammas": (1.0, 1.5), "couplings": None}, 1e-6),
    "lt-2d": Audit(
        lambda ctx, o, tol: [
            multidim.lt_audit_2d(ctx.well_2d(), ctx.spectrum_2d(False), float(gamma),
                                 ctx.plane_box(), base_tolerance=tol)
            for gamma in o["gammas"]],
        ("well",), {"gammas": (0.75, 1.0, 1.5)}, 1e-3),
    "lt-2d-magnetic": Audit(
        lambda ctx, o, tol: [multidim.lt_audit_2d(
            ctx.well_2d(), ctx.spectrum_2d(True), o["magnetic_gamma"], ctx.plane_box(),
            magnetic=True, base_tolerance=tol)],
        ("well",), {"magnetic_gamma": 1.5}, 1e-3),
    "gauge-invariance": Audit(
        lambda ctx, o, tol: multidim.gauge_invariance_check(
            ctx.well_2d(), ctx.plane_box(), ctx.gauge_points(),
            field_strength=o["field_strength"], seed=o["gauge_seed"], tolerance=tol),
        ("well",), {"gauge_points": None, "field_strength": 1.0, "gauge_seed": 5}, 1e-8),
    "lifting-2d": Audit(
        lambda ctx, o, tol: [multidim.lifting_inequality_audit(
            ctx.well_2d(), ctx.plane_box(), ctx.plane_points(), gamma=o["lifting_gamma"],
            base_tolerance=tol, spectrum_2d=ctx.planar_spectrum(ctx.plane_points(), False))],
        ("well",), {"lifting_gamma": 1.0}, 1e-9),
    "diamagnetic-trend": Audit(
        lambda ctx, o, tol: [multidim.diamagnetic_trend_check(
            ctx.planar_spectrum(ctx.plane_points(), False),
            ctx.planar_spectrum(ctx.plane_points(), True),
            gamma=o["magnetic_gamma"], field_strength=o["field_strength"])],
        ("well",), {"magnetic_gamma": 1.5, "field_strength": 1.0}),
    "stable-c0": Audit(
        lambda ctx, o, tol: fractional.c0_reference_audit(
            o["operator_exponent"], ctx.density(), reference=o["reference"],
            refined=ctx.density(2 * ctx.density().momentum_grid.size - 1)
            if o["refine_grid"] else None,
            base_tolerance=tol),
        ("density",), {"operator_exponent": REQUIRED, "reference": None, "refine_grid": False},
        1e-6),
    "characteristic-roundtrip": Audit(
        lambda ctx, o, tol: [fractional.characteristic_function_check(
            ctx.density(), tolerance=tol)],
        ("density",), tolerance=1e-8),
    # the density is an input only when no comparison_constant is given
    "fractional-moment": Audit(
        lambda ctx, o, tol: [fractional.fractional_moment_audit(
            ctx.potential(), o["operator_exponent"],
            fractional.c0_search(o["operator_exponent"], ctx.density())
            if o["comparison_constant"] is None else o["comparison_constant"],
            box_margin=o["box_margin"], num_points=o["num_points"], base_tolerance=tol)],
        ("potential",), {"operator_exponent": REQUIRED, "comparison_constant": None,
                         "box_margin": 10.0, "num_points": 1024}, 1e-6),
}


def _dispatch(ctx: ScenarioContext, tag: str) -> list:
    """Run one audit with its options and tolerance resolved from the scenario."""
    audit = AUDITS[tag]
    given = ctx.scenario.options
    options = {
        name: OPTION_KINDS[name].convert(given[name]) if name in given else default
        for name, default in audit.options.items()
    }
    tolerance = None if audit.tolerance is None else ctx.tolerance(tag, audit.tolerance)
    return audit.run(ctx, options, tolerance)


def run_scenario(scenario: Scenario) -> dict:
    """Execute one scenario; each audit's failure is captured on its own."""
    ctx = ScenarioContext(scenario)
    records, errors = [], []
    started = time.perf_counter()
    for tag in scenario.audits:
        begun = time.perf_counter()
        try:
            records += [report.to_record() for report in _dispatch(ctx, tag)]
        except Exception as exc:
            errors.append(f"{tag}: {type(exc).__name__}: {exc}")
        ctx.timings[tag] = ctx.timings.get(tag, 0.0) + time.perf_counter() - begun
    return {
        "name": scenario.name,
        "wall_time_s": time.perf_counter() - started,
        "error": "; ".join(errors) or None,
        "reports": records,
        "plots": ctx.plots,
        "timings": ctx.timings,
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
    """Copy with every wall_time_s and timings removed, for bit-for-bit comparisons."""

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items() if k not in ("wall_time_s", "timings")}
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
