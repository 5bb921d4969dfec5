"""Audit report records shared by every audit module."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def _admissible(gamma: float, d: int) -> bool:
    if d == 1:
        return gamma >= 0.5
    if d == 2:
        return gamma > 0.0
    return gamma >= 0.0


@dataclass(frozen=True)
class BoundSpec:
    """Which moment inequality a report audits.

    side is "upper" (lhs <= rhs), "lower" (lhs >= rhs) or "identity"
    (|lhs - rhs| <= tolerance).  factor is the multiple of the classical
    constant carried by the right-hand side.
    """

    gamma: float
    d: int
    side: str
    factor: float
    citation: str

    def __post_init__(self):
        if self.side not in ("upper", "lower", "identity"):
            raise ValueError(f"unknown side {self.side!r}")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if not _admissible(self.gamma, self.d):
            raise ValueError(
                f"moment index gamma={self.gamma} inadmissible in d={self.d}"
            )
        if self.side != "identity" and self.factor not in (1.0, 2.0, 4.0):
            raise ValueError(f"constant factor {self.factor} not in {{1, 2, 4}}")


@dataclass
class BoundReport:
    """Outcome of one audited inequality or identity."""

    audit_tag: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    spec: BoundSpec | None = None
    residual: float | None = None
    inconclusive: bool = False
    provenance: dict = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return math.nan
        r = self.lhs / self.rhs
        return r if math.isfinite(r) else math.nan

    @property
    def citation(self) -> str:
        return self.spec.citation if self.spec is not None else self.audit_tag

    def to_record(self) -> dict:
        rec = {
            "audit_tag": self.audit_tag,
            "citation": self.citation,
            "gamma": self.spec.gamma if self.spec else None,
            "d": self.spec.d if self.spec else None,
            "side": self.spec.side if self.spec else None,
            "factor": self.spec.factor if self.spec else None,
            "lhs": _json_float(self.lhs),
            "rhs": _json_float(self.rhs),
            "ratio": _json_float(self.ratio),
            "residual": _json_float(self.residual),
            "tolerance": _json_float(self.tolerance),
            "passed": bool(self.passed),
            "inconclusive": bool(self.inconclusive),
            "provenance": sanitize_json(self.provenance),
        }
        return rec


def comparison_report(
    audit_tag: str,
    side: str,
    lhs: float,
    rhs: float,
    *,
    spec: BoundSpec | None = None,
    base_tolerance: float = 0.0,
    lhs_error: float = 0.0,
    rhs_error: float = 0.0,
    provenance: dict | None = None,
) -> BoundReport:
    """Build a report whose pass rule folds the certified errors into tolerance.

    Upper side passes when lhs <= rhs*(1 + tolerance), lower side when
    lhs >= rhs*(1 - tolerance), identity when |lhs - rhs| <= tolerance
    relative to max(|rhs|, 1).  The reported tolerance is base_tolerance
    plus the error budget expressed relative to rhs; a vanishing rhs falls
    back to an absolute comparison, lhs against -+(base_tolerance + budget),
    and that absolute sum is the reported tolerance.
    """
    lhs, rhs = float(lhs), float(rhs)
    budget = float(lhs_error) + float(rhs_error)
    prov = dict(provenance or {})
    prov.setdefault("budget", budget)
    if side == "identity":
        scale_ref = max(abs(rhs), 1.0)
        tol = base_tolerance + budget / scale_ref
        residual = abs(lhs - rhs) / scale_ref
        passed = residual <= tol
    elif side == "upper":
        tol = base_tolerance + (budget / abs(rhs) if rhs != 0.0 else budget)
        residual = rhs - lhs
        passed = lhs <= rhs * (1.0 + tol) if rhs != 0.0 else lhs <= tol
    elif side == "lower":
        tol = base_tolerance + (budget / abs(rhs) if rhs != 0.0 else budget)
        residual = lhs - rhs
        passed = lhs >= rhs * (1.0 - tol) if rhs != 0.0 else lhs >= -tol
    else:
        raise ValueError(f"unknown side {side!r}")
    return BoundReport(
        audit_tag=audit_tag,
        lhs=lhs,
        rhs=rhs,
        tolerance=float(tol),
        passed=bool(passed),
        spec=spec,
        residual=float(residual),
        provenance=prov,
    )


def _json_float(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def sanitize_json(obj):
    """Coerce numpy scalars/arrays and non-finite floats into plain JSON."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [sanitize_json(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return _json_float(float(obj))
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


CSV_COLUMNS = [
    "scenario",
    "audit_tag",
    "paper_ref",
    "gamma",
    "d",
    "lhs",
    "rhs",
    "ratio",
    "tolerance",
    "pass",
]
