"""Acceptance gate: the bundled suite must satisfy all eleven criteria.

The suite runs once per session; each criterion reads the manifest records
and emits one PASS/FAIL line (visible with -s, or as the test outcome line
under -v).  Criterion 11 re-executes the whole suite and compares manifests.
"""

import math
from pathlib import Path

import pytest

import ltlab
from ltlab import runner

CONFIG = Path(ltlab.__file__).parent / "configs" / "full_suite.json"


@pytest.fixture(scope="session")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    return runner.run_config(CONFIG, out_dir=out)


def scenario(suite, name):
    for s in suite["scenarios"]:
        if s["name"] == name:
            return s
    raise KeyError(f"scenario {name!r} missing from manifest")


def records(suite, name, tag):
    found = [r for r in scenario(suite, name)["reports"] if r["audit_tag"] == tag]
    if not found:
        raise KeyError(f"no {tag!r} records in scenario {name!r}")
    return found


def verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_classical_constants(suite):
    tags = (
        "classical-constant-half",
        "classical-constant-three-half",
        "classical-constant-five-half",
    )
    residuals = [records(suite, "closed-forms", t)[0]["residual"] for t in tags]
    printed = records(suite, "closed-forms", "classical-constant-printed-d3")[0]
    ok = max(residuals) <= 1e-14 and printed["passed"] and printed["rhs"] == 0.013509
    verdict(1, ok, f"constant residuals {max(residuals):.2e}, printed {printed['lhs']:.6f}")


def test_criterion_02_sharp_half_sharpness(suite):
    scen = scenario(suite, "narrow-well-sharpness")
    ratios = [r["ratio"] for r in records(suite, "narrow-well-sharpness", "sharp-half")]
    saturation = records(suite, "narrow-well-sharpness", "sharp-half-saturation")[0]
    ok = (
        len(ratios) == 3
        and all(r <= 1.0 + 1e-3 for r in ratios)
        and saturation["lhs"] >= 0.499
        and saturation["passed"]
        and scen["wall_time_s"] < 60.0
    )
    verdict(2, ok, f"ratios {[round(r, 6) for r in ratios]}, narrowest {saturation['lhs']:.6f}")


def test_criterion_03_birman_schwinger(suite):
    scen = scenario(suite, "poschl-teller-2")
    rec = records(suite, "poschl-teller-2", "birman-schwinger")[0]
    deviations = rec["provenance"]["deviations"]
    ok = (
        rec["passed"]
        and len(deviations) == 2
        and max(deviations) <= 1e-3
        and scen["wall_time_s"] < 60.0
    )
    verdict(3, ok, f"unit-eigenvalue deviations {[f'{d:.2e}' for d in deviations]}")


def test_criterion_04_kyfan_monotonicity(suite):
    scen = scenario(suite, "kyfan-random-2x2")
    mono = records(suite, "kyfan-random-2x2", "kyfan-monotonicity")[0]
    trace = records(suite, "kyfan-random-2x2", "kyfan-trace-constancy")[0]
    epsilons = mono["provenance"]["epsilons"]
    ok = (
        mono["passed"]
        and trace["passed"]
        and len(epsilons) == 12
        and scen["wall_time_s"] < 120.0
    )
    verdict(4, ok, f"worst increment {mono['lhs']:.2e}, trace drift {trace['lhs']:.2e}")


def test_criterion_05_trace_identities(suite):
    targets = (-1.0, 1.0, -1.0)
    tags = ("trace-identity-1", "trace-identity-2", "trace-identity-3")
    pt_res = []
    for tag, target in zip(tags, targets):
        rec = records(suite, "poschl-teller-1", tag)[0]
        pt_res.append(max(abs(rec["lhs"] - target), abs(rec["rhs"] - target)))
    rand = [records(suite, "random-2x2", t)[0] for t in tags]
    wall = (
        scenario(suite, "poschl-teller-1")["wall_time_s"]
        + scenario(suite, "random-2x2")["wall_time_s"]
    )
    ok = (
        max(pt_res) <= 1e-3
        and all(r["residual"] <= 1e-3 for r in rand)
        and all(r["provenance"]["certified"] for r in rand)
        and wall < 300.0
    )
    verdict(5, ok, f"analytic residuals {max(pt_res):.2e}, random worst {max(r['residual'] for r in rand):.2e}")


def test_criterion_06_unitarity_and_positivity(suite):
    ok = suite["global_pass"] and all(s["error"] is None for s in suite["scenarios"])
    worst_unit, worst_logdet, worst_integral = 0.0, 0.0, 0.0
    for scen in suite["scenarios"]:
        for rec in scen["reports"]:
            if rec["audit_tag"] == "unitarity":
                ok = ok and rec["lhs"] <= 1e-7
                worst_unit = max(worst_unit, rec["lhs"])
            if rec["audit_tag"] == "logdet-floor":
                ok = ok and rec["lhs"] >= -1e-10
                worst_logdet = min(worst_logdet, rec["lhs"])
            if rec["audit_tag"] == "spectral-positivity":
                ok = ok and rec["lhs"] >= -1e-9
                worst_integral = min(worst_integral, rec["lhs"])
    verdict(
        6,
        ok,
        f"unitarity {worst_unit:.2e}, logdet floor {worst_logdet:.2e}, "
        f"integral floor {worst_integral:.2e}",
    )


def test_criterion_07_lifting_identity(suite):
    recs = records(suite, "closed-forms", "lifting-identity")
    residuals = [r["residual"] for r in recs]
    ok = len(recs) == 20 and all(r["passed"] for r in recs) and max(residuals) <= 1e-8
    verdict(7, ok, f"20 seeded pairs, worst relative residual {max(residuals):.2e}")


def test_criterion_08_remainder_sweep(suite):
    scen = scenario(suite, "remainder-gaussian")
    nonneg = records(suite, "remainder-gaussian", "remainder-nonnegative")[0]
    cap = records(suite, "remainder-gaussian", "remainder-cap")[0]
    slope = records(suite, "remainder-gaussian", "remainder-slope")[0]
    ok = (
        nonneg["passed"]
        and cap["passed"]
        and slope["lhs"] <= 1.6
        and scen["wall_time_s"] < 600.0
    )
    verdict(8, ok, f"remainder in [0, cap], fitted slope {slope['lhs']:.3f}")


def test_criterion_09_planar_and_magnetic(suite):
    plane = records(suite, "plane-gaussian", "lt-2d")
    by_gamma = {r["gamma"]: r for r in plane}
    factors = {0.75: 4.0, 1.0: 2.0, 1.5: 1.0}
    ok = set(by_gamma) == set(factors)
    for gamma, factor in factors.items():
        rec = by_gamma[gamma]
        ok = ok and rec["passed"] and rec["factor"] == factor
        ok = ok and rec["ratio"] <= 1.0 + rec["tolerance"]
    magnetic = records(suite, "plane-magnetic", "lt-2d-magnetic")[0]
    gauge = records(suite, "plane-magnetic", "gauge-invariance")[0]
    ok = ok and magnetic["passed"] and magnetic["factor"] == 1.0
    ok = ok and gauge["passed"] and gauge["lhs"] <= 1e-8
    wall = sum(
        scenario(suite, n)["wall_time_s"]
        for n in ("plane-gaussian", "plane-magnetic", "plane-separable")
    )
    ok = ok and wall < 900.0
    ratios = {g: round(by_gamma[g]["ratio"], 4) for g in sorted(by_gamma)}
    verdict(9, ok, f"ratios {ratios}, magnetic {magnetic['ratio']:.4f}, gauge {gauge['lhs']:.2e}")


def test_criterion_10_fractional_cross_check(suite):
    c0 = records(suite, "fractional-cauchy", "stable-c0")[0]
    frac = records(suite, "fractional-cauchy", "fractional-moment")[0]
    sharp = records(suite, "fractional-cauchy", "sharp-half")[0]
    cross = abs(frac["lhs"] - sharp["lhs"])
    refined = records(suite, "fractional-beta4", "stable-c0-refined")[0]
    beta4 = records(suite, "fractional-beta4", "fractional-moment")[0]
    wall = (
        scenario(suite, "fractional-cauchy")["wall_time_s"]
        + scenario(suite, "fractional-beta4")["wall_time_s"]
    )
    ok = (
        abs(c0["lhs"] - math.pi) <= 1e-6
        and frac["passed"]
        and cross <= 1e-3
        and refined["passed"]
        and beta4["passed"]
        and wall < 300.0
    )
    verdict(10, ok, f"c0 - pi = {c0['lhs'] - math.pi:.2e}, cross-method gap {cross:.2e}")


def test_criterion_11_determinism(suite):
    again = runner.run_config(CONFIG)
    frozen = runner.render_manifest(runner.strip_timing(suite))
    ok = runner.render_manifest(runner.strip_timing(again)) == frozen
    verdict(11, ok, f"manifest reproduced bit-for-bit, {len(frozen)} bytes")
