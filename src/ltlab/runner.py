"""Config-driven scenario runner: validation, dispatch, manifests, reports.

A config is a JSON document with a schema version and a list of scenarios;
each scenario names a potential (or a planar well, or a density), the grids
to use, and the audits to run.  Results land in a manifest that is
deterministic apart from wall-time fields, plus a flat CSV summary and
plot-data files for the sweep-type audits.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import importlib
import inspect
import json
import math
import os
import time
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
# the default of each grid value, each option the stages read and each density key
GRID_DEFAULTS = {"num_interior": 1200, "refine": 1}
STAGE_DEFAULTS = {"box_radius": 8.0, "num_interior": 64, "field_strength": 1.0,
                  "couplings": bounds.ALPHA_DEFAULTS}
DENSITY_DEFAULTS = {"scale": 1.0, "grid_cutoff": 40.0, "grid_points": 801}


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


class Kind(NamedTuple):
    """A field's type: what a refusal says it expected, its test and its conversion."""

    expected: str
    accept: Callable
    convert: Callable = lambda value: value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_couplings(value) -> bool:
    if isinstance(value, dict):
        return (set(value) == {"start", "stop", "count"} and _is_int(value["count"])
                and _is_number(value["start"]) and _is_number(value["stop"]))
    return NUMBERS.accept(value)


NUMBER = Kind("numeric value", _is_number, float)
INTEGER = Kind("integer value", _is_int)
NUMBERS = Kind("numeric-list value", lambda v: isinstance(v, list) and all(map(_is_number, v)),
               lambda v: tuple(map(float, v)))
FLAG = Kind("boolean value", lambda v: isinstance(v, bool))
CONSTANT = Kind(
    "numeric or 'pi' value", lambda v: v == "pi" or _is_number(v),
    lambda v: math.pi if v == "pi" else float(v),
)
OBJECT = Kind("an object", lambda v: isinstance(v, dict))
POSITIVE = Kind("a positive number", lambda v: _is_number(v) and v > 0, float)
NONEMPTY_LIST = Kind("a nonempty list", lambda v: isinstance(v, list) and v != [])

# The fields of each config object; None takes any value, or one that a
# check of its own reads.
CONFIG_FIELDS = {
    "schema_version": Kind(str(SCHEMA_VERSION), lambda v: v == SCHEMA_VERSION),
    "suite": None,
    "scenarios": NONEMPTY_LIST,
}
SCENARIO_FIELDS = {
    "name": Kind("a nonempty string", lambda v: isinstance(v, str) and v != ""),
    "audits": NONEMPTY_LIST,
    "potential": None, "grid": OBJECT, "tolerances": OBJECT, "options": OBJECT,
}
GRID_FIELDS = {
    "refine": Kind("a positive integer", lambda v: _is_int(v) and v >= 1),
    "k_max": Kind(f"a number above K_MIN = {scattering.K_MIN}",
                  lambda v: _is_number(v) and scattering.K_MIN < v < math.inf, float),
    "num_interior": Kind(f"an integer of at least {spectral1d.MIN_INTERIOR_POINTS}",
                         lambda v: _is_int(v) and v >= spectral1d.MIN_INTERIOR_POINTS),
    "box_radius": POSITIVE,
}
POTENTIAL_FIELDS = {"family": None, "parameters": OBJECT}
DENSITY_FIELDS = {"stability_index": NUMBER, "scale": NUMBER, "grid_cutoff": NUMBER,
                  "grid_points": INTEGER}


def _check_fields(spec, fields: dict, where: str, required=(), unknown="{where}: unknown key {key!r}"):
    """Refuse a spec that is not an object, then a key not in fields, then a value not
    of its field's Kind; a required key that is missing is read as None.

    where is the spec's path, empty at the top level of a config.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{where or 'config'}: expected an object")
    unknown_keys = sorted(set(spec) - set(fields))
    if unknown_keys:
        raise ConfigError(unknown.format(where=where or "config", key=unknown_keys[0]))
    for key, kind in fields.items():
        if kind is not None and (key in spec or key in required) and not kind.accept(spec.get(key)):
            raise ConfigError(f"{where}.{key}: expected {kind.expected}, found {spec.get(key)!r}".lstrip("."))


def _check_potential(spec, where: str, fields: dict = POTENTIAL_FIELDS):
    """Family, keys, nesting and parameters of a potential spec, nested specs too."""
    if not isinstance(spec, dict) or spec.get("family") not in potentials.FAMILIES:
        raise ConfigError(
            f"{where}: expected an object with a family in {list(potentials.FAMILIES)}"
        )
    _check_fields(spec, fields, where)
    family = spec["family"]
    parameters = spec.get("parameters", {})
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
        _check_potential(spec, where, POTENTIAL_FIELDS | {"kind": None})
    else:
        raise ConfigError(f"{where}: expected an object with kind 'gaussian' or 'separable'")


def _check_density(spec, where: str):
    """A numeric stability_index; scale, grid_cutoff and grid_points of their types; no other key."""
    if not isinstance(spec, dict) or not _is_number(spec.get("stability_index")):
        raise ConfigError(f"{where}: expected an object with a numeric stability_index")
    _check_fields(spec, DENSITY_FIELDS, where)


def _check_inputs(audits, item: dict, where: str):
    """Each input an audit reads is given: the potential, options.well or options.density."""
    options = item.get("options", {})
    for tag in audits:
        for name in AUDITS[tag].inputs:
            # fractional-moment reads the density only to search for its constant
            if tag == "fractional-moment" and name == "density" and "comparison_constant" in options:
                continue
            path, given = (name, item) if name == "potential" else (f"options.{name}", options)
            if name not in given:
                raise ConfigError(f"{where}.{path}: audit {tag!r} needs a {name}")


def _check_options(audits, options: dict, where: str):
    """The well and density, the audits' required options, every known option's type."""
    if "well" in options:
        _check_well(options["well"], f"{where}.well")
    if "density" in options:
        _check_density(options["density"], f"{where}.density")
    for tag in audits:
        for name, default in AUDITS[tag].options.items():
            kind = OPTION_KINDS[name]
            if default is REQUIRED and not kind.accept(options.get(name)):
                adjective = kind.expected.removesuffix(" value")
                raise ConfigError(f"{where}.{name}: audit {tag!r} needs a {adjective} {name}")
    # option names are not checked yet: a name not in OPTION_KINDS takes any value
    _check_fields(options, dict.fromkeys(options) | OPTION_KINDS, where)
    if "stable-c0" in audits and options.get("reference") is None and not options.get("refine_grid"):
        raise ConfigError(f"{where}.reference: audit 'stable-c0' needs a reference or refine_grid: true")


# (audits, option, rule): the rule of those audits' solvers or of the audits
# themselves that the option's value must pass before any of them runs
OPTION_RULES = (
    ({"lifting-2d", "diamagnetic-trend"}, "num_interior", lambda points: multidim._nodes(1.0, points)),
    ({"lt-2d", "lt-2d-magnetic"}, "num_interior",  # and the Richardson fine grid
     lambda points: [multidim._nodes(1.0, n) for n in (points, 2 * points + 1)]),
    ({"gauge-invariance"}, "gauge_points", lambda points: multidim._nodes(1.0, points)),
    ({"remainder-sweep", "weyl-ratios"}, "couplings", bounds._check_couplings),
    ({"lifted-moment", "weyl-ratios"}, "gammas", lambda gammas: [bounds._check_gamma(g) for g in gammas]),
    ({"lt-2d"}, "gammas", lambda gammas: [multidim._check_plane_gamma(g) for g in gammas]),
    ({"lt-2d-magnetic"}, "magnetic_gamma", lambda gamma: multidim._check_plane_gamma(gamma, magnetic=True)),
    ({"lifting-2d"}, "lifting_gamma", bounds._check_gamma),
    ({"sharp-half-sweep"}, "widths", bounds._sweep_grids),
    ({"lifting-identity"}, "count", bounds._check_count),
)


def _check_stage_grids(scenario: Scenario, where: str):
    """The options of OPTION_RULES and the density pass the rules of the audits that read them."""
    try:
        options, audits = ScenarioContext(scenario).options, set(scenario.audits)
    except ConfigError as exc:
        raise ConfigError(f"{where}.{exc}") from None
    # an audit's own defaults pass its rules, so only the options given or the stages' are read
    checks = [(key, rule, options[key]) for tags, key, rule in OPTION_RULES if audits & tags and key in options]
    if "density" in options:
        checks += [("density (stability_index, scale)", lambda density: fractional._check_stable_parameters(
                        density["stability_index"], density["scale"]), options["density"]),
                   ("density (grid_points, grid_cutoff)", lambda density: fractional._check_momentum_grid(
                       _momentum_grid(density)), options["density"])]
    for key, rule, value in checks:
        try:
            rule(value)
        except ValueError as exc:
            # a gauge_points not given is num_interior, capped at 32
            key = "num_interior" if key == "gauge_points" and key not in scenario.options else key
            raise ConfigError(f"{where}.options.{key}: {exc}") from None


def validate_config(config) -> list[Scenario]:
    _check_fields(config, CONFIG_FIELDS, "", required=("schema_version", "scenarios"))
    scenarios = []
    seen = set()
    for i, item in enumerate(config["scenarios"]):
        where = f"scenarios[{i}]"
        _check_fields(item, SCENARIO_FIELDS, where, required=("name", "audits"))
        name, audits = item["name"], item["audits"]
        if name in seen:
            raise ConfigError(f"{where}.name: duplicate scenario name {name!r}")
        seen.add(name)
        for j, tag in enumerate(audits):
            if not isinstance(tag, str) or tag not in AUDITS:
                raise ConfigError(f"{where}.audits: unknown audit tag {tag!r}")
            if tag in audits[:j]:
                raise ConfigError(f"{where}.audits: duplicate audit tag {tag!r}")
        if "potential" in item:
            _check_potential(item["potential"], f"{where}.potential")
        _check_inputs(audits, item, where)
        grid, tolerances, options = (item.get(key, {}) for key in ("grid", "tolerances", "options"))
        _check_fields(grid, GRID_FIELDS, f"{where}.grid")
        tolerated = [tag for tag in audits if AUDITS[tag].tolerance is not None]
        _check_fields(tolerances, dict.fromkeys(tolerated, POSITIVE), f"{where}.tolerances",
                      unknown="{where}.{key}: expected one of the scenario's audits that takes a tolerance")
        _check_options(audits, options, f"{where}.options")
        scenarios.append(Scenario(
            name=name, audits=tuple(audits), potential_spec=item.get("potential"),
            grid=dict(grid), tolerances=dict(tolerances), options=dict(options),
        ))
        _check_stage_grids(scenarios[-1], where)
    return scenarios


def _resolved(given: dict, kinds: dict, defaults: dict, where: str) -> dict:
    """The defaults, then each given value converted by its Kind (a name without one as given);
    a value its Kind cannot convert raises a ConfigError naming where.key."""
    resolved = dict(defaults)
    for key, value in given.items():
        try:
            resolved[key] = kinds[key].convert(value) if key in kinds else value
        except (ValueError, OverflowError) as exc:  # a geometric range through 0, an int past float
            raise ConfigError(f"{where}.{key}: {exc}") from None
    return resolved


def _momentum_grid(density: dict, points: int | None = None) -> np.ndarray:
    """`points` momenta (default: the density's grid_points) from 0 to its grid_cutoff."""
    return np.linspace(0.0, density["grid_cutoff"], points or density["grid_points"])


class ScenarioContext:
    """Lazy, cached access to the expensive per-scenario objects.

    `grid`, `tolerances` and `options` hold the scenario's values converted
    once by their Kinds, with the stage defaults filled in.  Each stage is
    built once per scenario, and a build that raises raises its exception
    again to each later reader.  `timings` holds the seconds each build took
    under its key, the stages it first built included, and `provenance` the
    work counts a stage reports, under the same key.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.grid = _resolved(scenario.grid, GRID_FIELDS, GRID_DEFAULTS, "grid")
        self.tolerances = _resolved(scenario.tolerances, dict.fromkeys(AUDITS, POSITIVE), {}, "tolerances")
        self.options = _resolved(scenario.options, OPTION_KINDS, STAGE_DEFAULTS, "options")
        self.options.setdefault("gauge_points", min(self.options["num_interior"], 32))
        if "density" in self.options:
            self.options["density"] = _resolved(self.options["density"], DENSITY_FIELDS, DENSITY_DEFAULTS,
                                                "options.density")
        self.plots: dict[str, str] = {}
        self.timings: dict[str, float] = {}
        self.provenance: dict[str, dict] = {}
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

    def potential(self):
        return self._stage("potential", lambda: potentials.build(self.scenario.potential_spec))

    def box_radius(self) -> float:
        return self._stage("box_radius", lambda: self.grid.get("box_radius")
                           or spectral1d.default_box(self.potential()))

    def spectrum(self):
        return self._stage("spectrum", lambda: spectral1d.refined_negative_spectrum(
            self.potential(), self.box_radius(), self.grid["num_interior"]))

    def scattering_data(self):
        def build():
            data = scattering.compute_scattering(self.potential(), k_max=self.grid.get("k_max"),
                                                 refine=self.grid["refine"])
            self.provenance["scattering"] = data.work
            return data

        return self._stage("scattering", build)

    def coupling_sweep(self):
        """The potential's spectra at every coupling of options.couplings."""
        return self._stage("sweep", lambda: bounds.coupling_sweep(self.potential(), self.options["couplings"]))

    def well_2d(self):
        def build():
            spec = self.options["well"]
            if spec["kind"] == "gaussian":
                return multidim.gaussian_well_2d(spec["depth"], spec["width"])
            return multidim.separable_well_2d(potentials.build(spec))

        return self._stage("well_2d", build)

    def planar_spectrum(self, num_interior: int, magnetic: bool):
        """Unrefined planar spectrum, solved once per (grid, field)."""
        key = f"planar_spectrum-{num_interior}" + ("-magnetic" if magnetic else "")
        return self._stage(key, lambda: multidim.negative_spectrum_2d(multidim.build_operator_2d(
            self.well_2d(), self.options["box_radius"], num_interior,
            multidim.constant_field(self.options["field_strength"]) if magnetic else None)))

    def spectrum_2d(self, magnetic: bool):
        """Richardson pairing of the planar M and 2M+1 grids, as in one dimension."""
        points, key = self.options["num_interior"], "spectrum_2d" + ("-magnetic" if magnetic else "")
        return self._stage(key, lambda: spectral1d.richardson_pair(
            self.planar_spectrum(points, magnetic), self.planar_spectrum(2 * points + 1, magnetic)))

    def density(self, points: int | None = None):
        """The options' density tabulated on `points` momenta (default: its grid_points)."""
        spec = self.options["density"]
        grid = _momentum_grid(spec, points)
        return self._stage(f"density-{grid.size}", lambda: fractional.stable_density(
            spec["stability_index"], spec["scale"], grid))


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


# One type per option name.  box_radius, num_interior and field_strength are
# also read by the planar stages.  Names not listed here are ignored.
OPTION_KINDS = {
    "box_radius": NUMBER, "num_interior": INTEGER, "field_strength": NUMBER,
    "integral": NUMBER, "widths": NUMBERS, "saturation_floor": NUMBER,
    "gammas": NUMBERS, "count": INTEGER, "seed": INTEGER,
    "epsilons": NUMBERS, "n_max": INTEGER, "slope_cap": NUMBER,
    "couplings": Kind("numeric-list or {start, stop, count} value", _is_couplings, lambda v: tuple(
        np.geomspace(v["start"], v["stop"], v["count"]) if isinstance(v, dict) else map(float, v))),
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
    reads to its default (None: the one ScenarioContext fills in), and
    `tolerance` is its base tolerance, None when it takes none.
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
            bounds.lifted_moment_audit(ctx.potential(), ctx.spectrum(), g, tol) for g in o["gammas"]],
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
    # each plot is named by the gamma the config wrote: weyl-1, not weyl-1.0
    "weyl-ratios": Audit(
        lambda ctx, o, tol: [
            report
            for written, gamma in zip(ctx.scenario.options.get("gammas", o["gammas"]), o["gammas"])
            for report in _plotted(ctx, f"weyl-{written}", bounds.weyl_ratio_sweep(
                ctx.potential(), gamma, ctx.coupling_sweep(), base_tolerance=tol))],
        ("potential",), {"gammas": (1.0, 1.5), "couplings": None}, 1e-6),
    "lt-2d": Audit(
        lambda ctx, o, tol: [multidim.lt_audit_2d(
            ctx.well_2d(), ctx.spectrum_2d(False), gamma, o["box_radius"], base_tolerance=tol)
            for gamma in o["gammas"]],
        ("well",), {"gammas": (0.75, 1.0, 1.5)}, 1e-3),
    "lt-2d-magnetic": Audit(
        lambda ctx, o, tol: [multidim.lt_audit_2d(
            ctx.well_2d(), ctx.spectrum_2d(True), o["magnetic_gamma"], o["box_radius"],
            magnetic=True, base_tolerance=tol)],
        ("well",), {"magnetic_gamma": 1.5}, 1e-3),
    "gauge-invariance": Audit(
        lambda ctx, o, tol: multidim.gauge_invariance_check(
            ctx.well_2d(), o["box_radius"], o["gauge_points"],
            field_strength=o["field_strength"], seed=o["gauge_seed"], tolerance=tol),
        ("well",), {"gauge_points": None, "gauge_seed": 5}, 1e-8),
    "lifting-2d": Audit(
        lambda ctx, o, tol: [multidim.lifting_inequality_audit(
            ctx.well_2d(), o["box_radius"], o["num_interior"], gamma=o["lifting_gamma"],
            base_tolerance=tol, spectrum_2d=ctx.planar_spectrum(o["num_interior"], False))],
        ("well",), {"lifting_gamma": 1.0}, 1e-9),
    "diamagnetic-trend": Audit(
        lambda ctx, o, tol: [multidim.diamagnetic_trend_check(
            ctx.planar_spectrum(o["num_interior"], False),
            ctx.planar_spectrum(o["num_interior"], True),
            gamma=o["magnetic_gamma"], field_strength=o["field_strength"])],
        ("well",), {"magnetic_gamma": 1.5}),
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
        ("potential", "density"), {"operator_exponent": REQUIRED, "comparison_constant": None,
                                   "box_margin": 10.0, "num_points": 1024}, 1e-6),
}


def _dispatch(ctx: ScenarioContext, tag: str) -> list:
    """Run one audit with the scenario's options over its defaults, and its tolerance."""
    audit = AUDITS[tag]
    return audit.run(ctx, audit.options | ctx.options, ctx.tolerances.get(tag, audit.tolerance))


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
        "provenance": ctx.provenance,
    }


# The OpenBLAS that the numpy and the scipy wheel each bundle, with its own
# worker pool: (wheel package, library file, thread-count symbols).
BLAS_POOLS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"),
)


def _blas_library(package: str, pattern: str):
    """The package's bundled OpenBLAS if a module has loaded it, else None."""
    libs = Path(importlib.import_module(package).__file__).parents[1] / f"{package}.libs"
    for path in sorted(libs.glob(pattern)):
        try:
            return ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except (AttributeError, OSError):  # no RTLD_NOLOAD, or not loaded
            pass
    return None


def _pin_blas_threads() -> tuple[dict, list]:
    """Load the solver stack, then set each pool found to one thread.

    Importing this module loads no scipy: the solver modules import it at
    their calls.  It loads here, so scipy's pool exists to be pinned and no
    scenario's timer holds the import.  Returns {pool: its thread count
    now, or "unpinned"} and the (setter, count before) pairs that undo it.
    """
    import scipy.sparse.linalg  # noqa: F401  (and with it scipy.linalg and its OpenBLAS)

    pinned, undo = {}, []
    for package, pattern, symbols in BLAS_POOLS:
        library = _blas_library(package, pattern)
        try:
            get = getattr(library, symbols.format("get"))
            set_ = getattr(library, symbols.format("set"))
        except AttributeError:  # no such library or symbol: MKL, a system OpenBLAS
            pinned[package] = "unpinned"
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        undo.append((set_, get()))
        set_(1)
        pinned[package] = get()
    return pinned, undo


@contextlib.contextmanager
def one_blas_thread():
    """Both OpenBLAS pools at one thread inside, their counts restored after.

    Yields {pool: pinned thread count, or "unpinned"}.  A second thread
    buys the sparse, tridiagonal and ARPACK solves of a run no wall time;
    its worker spins on a core, and the records' last bits follow the
    thread count (README, "BLAS threads").  The command line loads both
    pools at one thread already; this pins the pools of a library caller,
    loaded at the environment's count, loading scipy's first if no call
    has, and reads the counts the manifest records.
    """
    pinned, undo = _pin_blas_threads()
    try:
        yield pinned
    finally:
        for setter, count in undo:
            setter(count)


def run_config(config_path, jobs: int = 1, out_dir=None) -> dict:
    """Validate, execute, and (optionally) persist a full suite.

    The scenarios run inside one_blas_thread, and each --jobs worker pins
    its own pools the same way, so a library caller gets the records of the
    command line whatever thread count its pools loaded at.  This reads no
    environment variable and sets none.
    """
    path = Path(config_path)
    try:
        raw = path.read_bytes()
        config = json.loads(raw)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from None
    scenarios = validate_config(config)
    with one_blas_thread() as blas_threads:
        if jobs > 1 and len(scenarios) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs, initializer=_pin_blas_threads) as pool:
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
        "blas_threads": blas_threads,
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


def _bound_move(where: str, key: str, a, b, rtol: float) -> list[str]:
    """A line for a tolerance or budget that moved beyond rtol, saying which way."""
    move = _scaled_move(a, b, 0.0)
    if move is not None and move <= rtol:
        return []
    way = "changed" if move is None else "grew" if b > a else "fell"
    return [f"{where}: {key} {a!r} -> {b!r} {way}"]


def diff_manifests(old: dict, new: dict, rtol: float) -> tuple[int, list[str], list[str]]:
    """Records count, one line per value change and one per bound move.

    Both manifests are compared after strip_timing.  Records pair up by
    position within each scenario.  A verdict (passed, inconclusive) or a
    scenario error that changes is listed; so is an lhs, rhs or residual
    that moves by more than rtol * max(|a|, |b|, |rhs|), with |rhs| the
    larger of the two records' right-hand sides, and such a line ends with
    the new record's tolerance.  The bound moves are the records whose
    tolerance or provenance budget moved by more than rtol * max(|a|, |b|),
    each marked "grew" or "fell".  Raises ValueError when the scenario
    names or their audit tags do not line up.
    """
    old, new = strip_timing(old), strip_timing(new)
    names = [s["name"] for s in old["scenarios"]]
    if names != [s["name"] for s in new["scenarios"]]:
        raise ValueError("the manifests do not hold the same scenarios")
    lines, bounds = [], []
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
            bounds += _bound_move(where, "tolerance", a["tolerance"], b["tolerance"], rtol)
            bounds += _bound_move(where, "budget", a["provenance"].get("budget"),
                                  b["provenance"].get("budget"), rtol)
    return compared, lines, bounds


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return str(value)


def _status(rec: dict, words=("False", "True")) -> str:
    """"inconclusive", else the word for the record's passed flag."""
    return "inconclusive" if rec["inconclusive"] else words[rec["passed"]]


def manifest_to_csv(manifest: dict) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for scenario in manifest["scenarios"]:
        for rec in scenario["reports"]:
            values = [_csv_value(rec[key]) for key in ("gamma", "d", "lhs", "rhs", "ratio", "tolerance")]
            lines.append(",".join([scenario["name"], rec["audit_tag"], rec["citation"], *values, _status(rec)]))
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


def _markdown_cell(value) -> str:
    return "" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)


def manifest_to_markdown(manifest: dict) -> str:
    lines = [
        f"# Audit summary: {manifest['suite']}",
        "",
        f"- tool version: {manifest['tool_version']}",
        f"- config digest: `{manifest['config_digest']}`",
        f"- global pass: **{manifest['global_pass']}**",
        "",
    ]
    failed = [(s["name"], s["error"]) for s in manifest["scenarios"] if s["error"]]
    if failed:
        lines += ["## Scenario errors", "", *(f"- `{name}`: {err}" for name, err in failed), ""]
    grouped: dict[str, list] = {}
    for scenario in manifest["scenarios"]:
        for rec in scenario["reports"]:
            grouped.setdefault(_topic_for(rec["audit_tag"]), []).append((scenario["name"], rec))
    for title, _ in TOPIC_GROUPS + (("Other", ()),):
        if title not in grouped:
            continue
        lines += [f"## {title}", "", "| scenario | audit | reference | lhs | rhs | ratio | tolerance | status |",
                  "| --- | --- | --- | --- | --- | --- | --- | --- |"]
        for name, rec in grouped[title]:
            cells = map(_markdown_cell, (rec["lhs"], rec["rhs"], rec["ratio"], rec["tolerance"]))
            lines.append("| {} | {} | {} | {} | {} | {} | {} | {} |".format(
                name, rec["audit_tag"], rec["citation"], *cells, _status(rec, ("FAIL", "pass"))))
        lines.append("")
    return "\n".join(lines)


RENDERERS = {"csv": manifest_to_csv, "json": render_manifest, "md": manifest_to_markdown}


def render_report(manifest: dict, fmt: str) -> str:
    if fmt not in RENDERERS:
        raise ValueError(f"unknown report format {fmt!r}")
    return RENDERERS[fmt](manifest)
