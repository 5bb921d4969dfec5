import math

import numpy as np
import pytest

from ltlab import reports


def test_bound_spec_admissibility():
    reports.BoundSpec(0.5, 1, "upper", 2.0, "x")
    reports.BoundSpec(0.1, 2, "upper", 4.0, "x")
    reports.BoundSpec(0.0, 3, "upper", 1.0, "x")
    with pytest.raises(ValueError, match="inadmissible"):
        reports.BoundSpec(0.4, 1, "upper", 2.0, "x")
    with pytest.raises(ValueError, match="inadmissible"):
        reports.BoundSpec(0.0, 2, "upper", 4.0, "x")
    with pytest.raises(ValueError, match="side"):
        reports.BoundSpec(1.0, 1, "sideways", 1.0, "x")
    with pytest.raises(ValueError, match="factor"):
        reports.BoundSpec(1.0, 1, "upper", 3.0, "x")
    # identities are not tied to the factor table
    reports.BoundSpec(1.0, 1, "identity", 1.0, "x")


def test_comparison_report_sides():
    up = reports.comparison_report("t", "upper", 1.0, 2.0, base_tolerance=1e-6)
    assert up.passed and up.residual == 1.0
    assert not reports.comparison_report("t", "upper", 2.1, 2.0).passed
    low = reports.comparison_report("t", "lower", 3.0, 2.0)
    assert low.passed and low.residual == 1.0
    assert not reports.comparison_report("t", "lower", 1.9, 2.0).passed
    ident = reports.comparison_report("t", "identity", 1.0 + 1e-9, 1.0, base_tolerance=1e-8)
    assert ident.passed
    with pytest.raises(ValueError):
        reports.comparison_report("t", "between", 1.0, 1.0)


def test_error_budget_folds_into_tolerance():
    # lhs overshoots rhs by less than the certified budget: still a pass
    rep = reports.comparison_report(
        "t", "upper", 1.005, 1.0, base_tolerance=1e-6, lhs_error=6e-3
    )
    assert rep.passed
    assert rep.tolerance == pytest.approx(1e-6 + 6e-3)
    assert rep.provenance["budget"] == pytest.approx(6e-3)
    # vanishing rhs switches to an absolute comparison
    zero = reports.comparison_report("t", "upper", 1e-8, 0.0, lhs_error=1e-7)
    assert zero.passed
    assert zero.tolerance == pytest.approx(1e-7)
    low = reports.comparison_report(
        "t", "lower", -3e-7, 0.0, base_tolerance=1e-7, lhs_error=1e-7
    )
    assert not low.passed and low.tolerance == pytest.approx(2e-7)
    assert math.isnan(zero.ratio)


def test_report_record_and_ratio():
    spec = reports.BoundSpec(1.5, 2, "upper", 1.0, "bound:plane-moment")
    rep = reports.BoundReport(
        audit_tag="demo",
        lhs=1.0,
        rhs=4.0,
        tolerance=1e-3,
        passed=True,
        spec=spec,
        residual=3.0,
        provenance={"arr": np.array([1.0, math.inf]), "n": np.int64(3)},
    )
    assert rep.ratio == 0.25
    assert rep.citation == "bound:plane-moment"
    rec = rep.to_record()
    assert rec["gamma"] == 1.5 and rec["d"] == 2
    # numpy payloads and non-finite values must flatten to plain JSON
    assert rec["provenance"]["arr"] == [1.0, None]
    assert rec["provenance"]["n"] == 3
    bare = reports.BoundReport("x", 1.0, 0.0, 0.0, True)
    assert math.isnan(bare.ratio)
    assert bare.to_record()["ratio"] is None
    assert bare.citation == "x"
