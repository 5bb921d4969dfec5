"""Correctness checks of one manifest against the benchmark's own references.

Every check yields (label, ok, detail) results; each result is one counted
operation.  A tolerance is the reference's accuracy plus the error budget
the record itself carries, never a margin fitted to today's output.
"""

from __future__ import annotations

import json
import math

import numpy as np

import references

RIESZ_TAGS = ("sharp-half", "lifted-moment", "half-moment-lower", "half-moment-upper")
CLOSED_FORMS = {
    "classical-constant-half": (0.5, 1.0 / 4.0),
    "classical-constant-three-half": (1.5, 3.0 / 16.0),
    "classical-constant-five-half": (2.5, 5.0 / 32.0),
}
# Two independent float64 routes to the same Gamma ratio (exp of log-Gamma
# differences in the program, math.gamma here) agree to a few ulp.
GAMMA_ROUTE_ACCURACY = 64 * references.EPS
# Trapezoid sums of the analytic wells used here converge faster than any
# power of the step, and the program cuts the support where |V| < 1e-14, so
# the Ky Fan trace is limited by roundoff in a sum over ~10^3 nodes.
KERNEL_TRACE_ACCURACY = 1e-10


class ReferenceCache:
    """References computed once per benchmark run and shared by its rounds."""

    def __init__(self):
        self._values = {}

    def get(self, key, compute):
        key = json.dumps(key, sort_keys=True)
        if key not in self._values:
            self._values[key] = compute()
        return self._values[key]


def _levels(wells: list[dict]) -> tuple[np.ndarray, float]:
    exact = [references.poschl_teller_levels(int(w["nu"]))
             for w in wells if w["family"] == "poschl-teller"]
    others = [w for w in wells if w["family"] != "poschl-teller"]
    levels, accuracy = references.dvr_levels(others) if others else (np.empty(0), 0.0)
    return np.sort(np.concatenate(exact + [levels]))[::-1], accuracy


def _close(label, value, reference, tolerance):
    miss = abs(value - reference)
    ok = bool(math.isfinite(value) and miss <= tolerance)
    return label, ok, f"value {value!r} reference {reference!r} miss {miss:.3e} tol {tolerance:.3e}"


def check_levels(check, reports, cache):
    """Riesz means of the computed spectrum against exact or sinc-DVR levels."""
    levels, accuracy = cache.get(["levels", check["wells"]], lambda: _levels(check["wells"]))
    for rec in reports:
        if rec["audit_tag"] not in RIESZ_TAGS:
            continue
        gamma = rec["gamma"]
        reference = references.riesz_mean(levels, gamma)
        tolerance = rec["provenance"]["budget"] + references.riesz_mean_accuracy(
            levels, gamma, accuracy)
        yield _close(f"{rec['audit_tag']}@{gamma}", rec["lhs"], reference, tolerance)


def check_kronecker(check, reports, cache):
    """Separable planar lhs against Kronecker sums of 1D tridiagonal levels."""
    key = ["kronecker", check["well"], check["box_radius"], check["num_interior"]]
    levels, accuracy = cache.get(key, lambda: references.kronecker_levels(
        check["well"], check["box_radius"], check["num_interior"]))
    for rec in reports:
        if rec["audit_tag"] == "lifting-2d":
            gamma = rec["gamma"]
            yield _close(f"lifting-2d@{gamma}", rec["lhs"],
                         references.riesz_mean(levels, gamma),
                         references.riesz_mean_accuracy(levels, gamma, accuracy))


def check_reflectionless(check, reports, cache):
    """I_0, I_2, I_4 vanish for a reflectionless well, within each trace
    identity's own budget (which carries the k-integral errors)."""
    by_tag = {rec["audit_tag"]: rec for rec in reports}
    integrals = by_tag["spectral-positivity"]["provenance"]
    for key, weight, tag in (("i0", 1.0, "trace-identity-1"),
                             ("i2", 3.0, "trace-identity-2"),
                             ("i4", 5.0, "trace-identity-3")):
        yield _close(f"{key}=0", weight * integrals[key], 0.0,
                     by_tag[tag]["provenance"]["budget"])


def check_classical_constants(check, reports, cache):
    """Closed forms 1/4, 3/16, 5/32 and the printed d = 3 constant."""
    for rec in reports:
        if rec["audit_tag"] in CLOSED_FORMS:
            gamma, exact = CLOSED_FORMS[rec["audit_tag"]]
            yield _close(rec["audit_tag"], rec["lhs"], exact,
                         rec["tolerance"] + GAMMA_ROUTE_ACCURACY * exact)
            reference = references.classical_constant(gamma, 1)
            yield _close(rec["audit_tag"] + ":gamma", rec["lhs"], reference,
                         GAMMA_ROUTE_ACCURACY * reference)
        elif rec["audit_tag"] == "classical-constant-printed-d3":
            reference = 2.0 * references.classical_constant(1.0, 3)
            yield _close(rec["audit_tag"], rec["lhs"], reference,
                         GAMMA_ROUTE_ACCURACY * reference)


def check_c0_pi(check, reports, cache):
    """The Cauchy density majorizes 1/(p^2 + 1) with constant exactly pi."""
    for rec in reports:
        if rec["audit_tag"] == "stable-c0":
            yield _close("stable-c0", rec["lhs"], math.pi, rec["tolerance"] * math.pi)


def check_kyfan_trace(check, reports, cache):
    """The Ky Fan trace is the integral of tr V_minus."""
    value, error = cache.get(["trace", check["well"]],
                             lambda: references.negative_part_integral(check["well"]))
    for rec in reports:
        if rec["audit_tag"] == "kyfan-trace-constancy":
            yield _close("kyfan-trace", rec["provenance"]["trace"], value,
                         error + KERNEL_TRACE_ACCURACY * value)


HANDLERS = {
    "levels": check_levels,
    "kronecker": check_kronecker,
    "reflectionless": check_reflectionless,
    "classical-constants": check_classical_constants,
    "c0-pi": check_c0_pi,
    "kyfan-trace": check_kyfan_trace,
}


def evaluate(manifest: dict, checks: list[dict], cache: ReferenceCache) -> list:
    """All check results for one manifest; a check that finds nothing fails."""
    scenarios = {s["name"]: s for s in manifest["scenarios"]}
    results = []
    for check in checks:
        label = f"{check['scenario']}:{check['kind']}"
        scenario = scenarios.get(check["scenario"])
        if scenario is None or scenario["error"]:
            results.append((label, False, "scenario missing or errored"))
            continue
        try:
            found = [(f"{label}:{name}", ok, detail) for name, ok, detail
                     in HANDLERS[check["kind"]](check, scenario["reports"], cache)]
        except (KeyError, TypeError) as exc:
            found = [(label, False, f"record lacks a field: {exc!r}")]
        results.extend(found or [(label, False, "no record to check")])
    return results

