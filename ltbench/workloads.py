"""Benchmark inputs: two configs generated from a seed.

Each generator returns the config handed to `ltlab run` and the independent
checks to apply to the manifest it produces.  A check names a scenario and
what the benchmark knows about its well (see checks.py).  Every seeded
parameter moves inside a band chosen so that the statements audited hold for
every draw, and so that the work done (matrix sizes, level counts, solver
paths) does not move with the seed.
"""

from __future__ import annotations

import json
import sys

import numpy as np

WORKLOADS = ("spectra", "kernels")

# Stream tags keep the two generated workloads independent for one seed.
_STREAMS = {"spectra": 1, "kernels": 2}

_KYFAN_EPSILONS = [0.0, 0.1, 1.0, 10.0]


def _pt(nu: int) -> dict:
    return {"family": "poschl-teller", "nu": nu}


def _gaussian(rng, depth: tuple, strength: tuple) -> dict:
    """Gaussian well with depth*width^2 in a band of fixed level count.

    The band keeps the shallowest level at E >= 0.1, away from the box
    and edge threshold, so the level count and the solve cost stay fixed.
    """
    d = float(rng.uniform(*depth))
    width = float(np.sqrt(rng.uniform(*strength) / d))
    return {"family": "gaussian", "depth": round(d, 4), "width": round(width, 4)}


def _potential(well: dict, **extra) -> dict:
    params = {k: v for k, v in well.items() if k != "family"}
    if well["family"] == "poschl-teller":
        params["nu"] = float(params["nu"])
    params.update(extra)
    return {"family": well["family"], "parameters": params}


def _random_smooth(rng, dim: int, **extra) -> dict:
    seed = int(rng.integers(0, 2**31 - 1))
    return {
        "family": "random-smooth",
        "parameters": {"matrix_dim": dim, "seed": seed, **extra},
    }


def spectra(seed: int) -> tuple[dict, list[dict]]:
    """Eigensolver traffic: 1D matrix wells, narrow wells, a sweep, planar wells.

    Grid sizes sit on both sides of the solver switches: 1D operator size
    4096 (dense below, shift-invert above) and 64 planar points per side.
    The closed forms and the Cauchy fractional scenario come from the bundled
    suite, unseeded: they carry the classical-constant and c0 = pi checks
    and the only `fractional` work in the benchmark.
    """
    rng = np.random.default_rng([_STREAMS["spectra"], seed])
    sparse_pair = [_gaussian(rng, (2.8, 3.6), (4.4, 5.2)), _pt(2)]
    dense_pair = [_pt(1), _gaussian(rng, (1.6, 2.4), (1.6, 2.4))]
    plain = _gaussian(rng, (6.0, 9.0), (8.0, 12.0))
    magnetic = _gaussian(rng, (6.0, 9.0), (8.0, 12.0))
    separable = _gaussian(rng, (2.5, 3.5), (2.5, 3.5))
    moments = ["sharp-half", "lifted-moment", "half-moment-sandwich"]
    # The random wells go first so the first-call start-up cost of the
    # solvers lands on short scenarios; the sparse direct sum stays the
    # slowest scenario by a clear margin, which steadies slowest_scenario_s.
    scenarios = [
        {
            "name": "closed-forms",
            "audits": ["classical-constants", "product-identity", "constant-ordering",
                       "lifting-identity", "cauchy-kernel"],
        },
    ]
    for dim, points, label in ((2, 200, "dense"), (3, 120, "dense"),
                               (2, 2100, "sparse"), (3, 1400, "sparse")):
        scenarios.append({
            "name": f"random-{dim}x{dim}-{label}",
            "potential": _random_smooth(rng, dim),
            "grid": {"box_radius": 25.0, "num_interior": points},
            "audits": ["half-moment-sandwich"],
        })
    scenarios += [
        {
            "name": "fractional-cauchy",
            "potential": _potential(_pt(1)),
            "audits": ["stable-c0", "characteristic-roundtrip", "fractional-moment",
                       "sharp-half"],
            "options": {
                "density": {"stability_index": 1.0, "scale": 1.0},
                "operator_exponent": 2.0, "reference": "pi", "comparison_constant": "pi",
                # a second density on a finer grid: the suite's repeat tabulation
                "refine_grid": True,
            },
        },
        {
            "name": "direct-sum-sparse",
            "potential": {"family": "direct-sum", "parameters": {
                "blocks": [_potential(w) for w in sparse_pair]}},
            "grid": {"num_interior": 4800},
            "audits": moments,
            "options": {"gammas": [0.5, 1.0, 1.5]},
        },
        {
            "name": "direct-sum-dense",
            "potential": {"family": "direct-sum", "parameters": {
                "blocks": [_potential(w) for w in dense_pair]}},
            "grid": {"num_interior": 200},
            "audits": moments,
            "options": {"gammas": [0.5, 1.0, 1.5]},
        },
    ]
    scenarios += [
        {
            "name": "narrow-rank-one",
            "audits": ["sharp-half-sweep"],
            "options": {
                "integral": round(float(rng.uniform(1.5, 2.5)), 4),
                "widths": [0.05, 0.025],
                "saturation_floor": 0.45,
            },
        },
        {
            "name": "coupling-sweep",
            "potential": _potential(_gaussian(rng, (0.8, 1.2), (3.5, 4.5))),
            # not remainder-sweep: its top-decade slope cap is an asymptotic
            # statement that a sweep ending at 50 misses for some wells
            "audits": ["weyl-ratios"],
            "options": {
                "gammas": [0.5, 1.0],
                "couplings": {"start": 1.0, "stop": 50.0, "count": 6},
            },
        },
        {
            "name": "plane-plain",
            "audits": ["lt-2d", "lifting-2d"],
            "options": {
                "well": {"kind": "gaussian", "depth": plain["depth"],
                         "width": plain["width"]},
                "box_radius": 8.0, "num_interior": 20,
                "gammas": [1.0, 1.5], "lifting_gamma": 1.5, "rank": 6,
            },
        },
        {
            "name": "plane-magnetic",
            "audits": ["lt-2d-magnetic", "diamagnetic-trend"],
            "options": {
                "well": {"kind": "gaussian", "depth": magnetic["depth"],
                         "width": magnetic["width"]},
                "box_radius": 8.0, "num_interior": 16,
                "field_strength": round(float(rng.uniform(0.8, 1.2)), 4),
                "magnetic_gamma": 1.5,
            },
        },
        {
            "name": "plane-separable",
            "audits": ["lifting-2d"],
            "options": {
                "well": {"kind": "separable", **_potential(separable)},
                "box_radius": 7.0, "num_interior": 65,
                "lifting_gamma": 1.0, "rank": 10,
            },
        },
    ]
    checks = [
        {"kind": "classical-constants", "scenario": "closed-forms"},
        {"kind": "levels", "scenario": "fractional-cauchy", "wells": [_pt(1)]},
        {"kind": "c0-pi", "scenario": "fractional-cauchy"},
        {"kind": "levels", "scenario": "direct-sum-sparse", "wells": sparse_pair},
        {"kind": "levels", "scenario": "direct-sum-dense", "wells": dense_pair},
        {"kind": "kronecker", "scenario": "plane-separable", "well": separable,
         "box_radius": 7.0, "num_interior": 65},
    ]
    return _config("spectra", seed, scenarios), checks


def kernels(seed: int) -> tuple[dict, list[dict]]:
    """Kernel and Jost traffic with light scalar spectra and no planar work.

    Poschl-Teller wells with integer nu are reflectionless with exact levels
    (nu - j)^2; the Gaussian bands fix the level count at one and two, which
    fixes the number of Birman-Schwinger kernel builds.
    """
    rng = np.random.default_rng([_STREAMS["kernels"], seed])
    kernel = ["birman-schwinger", "kyfan-monotonicity", "lifted-moment"]
    jost = ["unitarity", "spectral-positivity", "conjugation-symmetry", "holder-chain"]
    options = {"gammas": [0.5, 1.5], "epsilons": _KYFAN_EPSILONS, "n_max": 6}
    scenarios, checks = [], []
    one_level = _gaussian(rng, (1.6, 2.4), (1.6, 2.4))
    two_level = _gaussian(rng, (2.8, 3.6), (4.4, 5.2))
    # (name, well, audits, Jost refine); the Poschl-Teller sample step is the
    # coarsest the family accepts, 1/(8 nu), which sets the kernel size.  The
    # short one-level well goes first, so the first-call start-up cost lands
    # on it.  Poschl-Teller 3 at refine 2 is the slowest scenario, at about
    # 2.5 times the next, so slowest_scenario_s always times the same work.
    plan = [
        ("gaussian-one-level", one_level, kernel, 1),
        ("poschl-teller-1", _pt(1), kernel + ["trace-identities"] + jost, 2),
        ("poschl-teller-2", _pt(2), kernel + ["trace-identities"] + jost, 1),
        ("poschl-teller-3", _pt(3),
         ["birman-schwinger", "lifted-moment", "trace-identities"] + jost, 2),
        ("gaussian-two-level", two_level, kernel + jost, 1),
    ]
    for name, well, audits, refine in plan:
        reflectionless = well["family"] == "poschl-teller"
        extra = {"grid_step": 1.0 / (8 * well["nu"])} if reflectionless else {}
        scenarios.append({
            "name": name,
            "potential": _potential(well, **extra),
            "grid": {"refine": refine},
            "audits": audits,
            "options": options,
        })
        checks.append({"kind": "levels", "scenario": name, "wells": [well]})
        if "kyfan-monotonicity" in audits:
            checks.append({"kind": "kyfan-trace", "scenario": name, "well": well})
        if reflectionless:
            checks.append({"kind": "reflectionless", "scenario": name})
    scenarios.append({
        "name": "kyfan-random-2x2",
        "potential": _random_smooth(rng, 2, grid_step=0.03),
        "audits": ["kyfan-monotonicity"],
        "options": options,
    })
    return _config("kernels", seed, scenarios), checks


def _config(suite: str, seed: int, scenarios: list) -> dict:
    return {"schema_version": 1, "suite": f"{suite}-seed-{seed}", "scenarios": scenarios}


def generate(workload: str, seed: int) -> tuple[dict, list[dict]]:
    if workload == "spectra":
        return spectra(seed)
    if workload == "kernels":
        return kernels(seed)
    raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")


def main(argv=None) -> int:
    """Write a workload's config to stdout: workloads.py WORKLOAD [SEED]."""
    args = sys.argv[1:] if argv is None else argv
    if not args or args[0] not in WORKLOADS:
        print(f"usage: workloads.py {{{','.join(WORKLOADS)}}} [SEED]", file=sys.stderr)
        return 2
    config, _ = generate(args[0], int(args[1]) if len(args) > 1 else 0)
    print(json.dumps(config, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
