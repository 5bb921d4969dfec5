"""Moment-bound audits for the 1D operator -d^2/dx^2 + V.

Everything here reduces to comparing a Riesz mean of the computed negative
spectrum against a multiple of the classical phase-space constant times a
potential integral.  Reports carry certified budgets: eigenvalue errors come
from Richardson extrapolation, potential integrals from the sampling grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import potentials, spectral1d
from .potentials import SampledPotential
from .reports import BoundReport, BoundSpec, comparison_report
from .spectral1d import NegativeSpectrum

GAMMA_DEFAULTS = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5)
ALPHA_DEFAULTS = tuple(np.geomspace(1.0, 400.0, 13))
INTEGRAL_SLACK = 1e-9
SWEEP_BASE_STEP = 0.1
SHARPNESS_POINTS_PER_WIDTH = 8
SHARPNESS_BOX_RADIUS = 8.0
PRODUCT_DIMS = (2, 3, 4, 5, 6, 7, 8)
PRODUCT_POINT = (0.5, 2)
ORDERING_DIMS = tuple(range(3, 11))
WEYL_LIMIT_TOLERANCE = 0.02


def classical_constant(gamma: float, d: int) -> float:
    """Gamma(g+1) / (2^d pi^(d/2) Gamma(g + d/2 + 1)) via log-Gamma."""
    if gamma < 0:
        raise ValueError("moment exponent must be nonnegative")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.exp(
        math.lgamma(gamma + 1.0)
        - d * math.log(2.0)
        - 0.5 * d * math.log(math.pi)
        - math.lgamma(gamma + 0.5 * d + 1.0)
    )


def constant_factor(gamma: float, d: int) -> float:
    """Certified multiple of the classical constant at this (gamma, d)."""
    if gamma >= 1.5:
        return 1.0
    if gamma >= 1.0 or (d == 1 and gamma >= 0.5):
        return 2.0
    if d >= 2 and gamma >= 0.5:
        return 4.0
    raise ValueError(f"no certified factor for gamma={gamma}, d={d}")


def classical_constant_audit() -> list[BoundReport]:
    """Check the closed-form values 1/4, 3/16, 5/32 and one printed constant."""
    exact = [
        ("classical-constant-half", 0.5, 0.25),
        ("classical-constant-three-half", 1.5, 3.0 / 16.0),
        ("classical-constant-five-half", 2.5, 5.0 / 32.0),
    ]
    reports = []
    for tag, gamma, target in exact:
        value = classical_constant(gamma, 1)
        reports.append(
            comparison_report(
                tag,
                "identity",
                value,
                target,
                spec=BoundSpec(gamma, 1, "identity", 1.0, "constant:closed-form"),
                base_tolerance=1e-14,
            )
        )
    # printed reference value carries six decimals only
    doubled = 2.0 * classical_constant(1.0, 3)
    printed = 0.013509
    reports.append(
        BoundReport(
            audit_tag="classical-constant-printed-d3",
            lhs=doubled,
            rhs=printed,
            tolerance=5e-7,
            passed=round(doubled, 6) == printed,
            spec=BoundSpec(1.0, 3, "identity", 1.0, "constant:printed-value"),
            residual=abs(doubled - printed),
            provenance={"rounded": round(doubled, 6)},
        )
    )
    return reports


def product_identity_check(gamma: float, d: int) -> BoundReport:
    """One-dimensional constant times the lifted one reproduces dimension d >= 2."""
    if gamma < 0.5:
        raise ValueError("need gamma >= 1/2")
    lhs = classical_constant(gamma, 1) * classical_constant(gamma + 0.5, d - 1)
    rhs = classical_constant(gamma, d)
    residual = abs(lhs - rhs) / rhs
    return BoundReport(
        audit_tag="product-identity",
        lhs=lhs,
        rhs=rhs,
        tolerance=1e-13,
        passed=residual <= 1e-13,
        spec=BoundSpec(gamma, d, "identity", 1.0, "identity:constant-product"),
        residual=residual,
        provenance={"gamma": gamma, "d": d},
    )


def product_identity_audit() -> BoundReport:
    """The worst product_identity_check residual over GAMMA_DEFAULTS x PRODUCT_DIMS.

    Every residual sits at roundoff, so which grid point is worst can change
    with the last bit of classical_constant.  lhs, rhs and spec are therefore
    those of the fixed point PRODUCT_POINT; the provenance names the worst one.
    """
    checks = [product_identity_check(g, d) for d in PRODUCT_DIMS for g in GAMMA_DEFAULTS]
    worst = max(checks, key=lambda rep: rep.residual)
    return replace(
        product_identity_check(*PRODUCT_POINT),
        passed=worst.passed,
        residual=worst.residual,
        provenance={
            "worst_at": worst.provenance,
            "grid": {"gammas": list(GAMMA_DEFAULTS), "dims": list(PRODUCT_DIMS)},
        },
    )


def constant_ordering_audit() -> list[BoundReport]:
    """Doubled gamma=1 constant stays below the gamma=0 one; log-convexity."""
    ratios = [
        2.0 * classical_constant(1.0, d) / classical_constant(0.0, d) for d in ORDERING_DIMS
    ]
    i = int(np.argmax(ratios))
    ordering = BoundReport(
        audit_tag="constant-ordering",
        lhs=ratios[i],
        rhs=1.0,
        tolerance=0.0,
        passed=max(ratios) < 1.0,
        spec=BoundSpec(1.0, ORDERING_DIMS[i], "upper", 2.0, "constant:ordering"),
        residual=1.0 - ratios[i],
        provenance={"dims": list(ORDERING_DIMS), "ratios": ratios},
    )
    worst_gap = math.inf
    for d in (1, 2, 3, 5):
        gammas = np.linspace(0.0, 6.0, 241)
        logs = np.array(
            [math.lgamma(g + 1.0) - math.lgamma(g + 0.5 * d + 1.0) for g in gammas]
        )
        second = logs[:-2] - 2.0 * logs[1:-1] + logs[2:]
        worst_gap = min(worst_gap, float(second.min()))
    convexity = BoundReport(
        audit_tag="constant-log-convexity",
        lhs=worst_gap,
        rhs=0.0,
        tolerance=1e-12,
        passed=worst_gap >= -1e-12,
        residual=worst_gap,
        provenance={"dims_checked": [1, 2, 3, 5]},
    )
    return [ordering, convexity]


def sharp_half_audit(
    potential: SampledPotential,
    spectrum: NegativeSpectrum,
    base_tolerance: float = 1e-6,
) -> BoundReport:
    """Half moments against one half of the trace integral of the well."""
    potentials.require_nonpositive(potential)
    lhs = spectrum.riesz_mean(0.5)
    rhs = 0.5 * potentials.trace_power_integral(potential, "minus", 1.0)
    return comparison_report(
        "sharp-half",
        "upper",
        lhs,
        rhs,
        spec=BoundSpec(0.5, 1, "upper", 2.0, "bound:half-moment-sharp"),
        base_tolerance=base_tolerance,
        lhs_error=spectrum.riesz_mean_error(0.5),
        rhs_error=INTEGRAL_SLACK,
        provenance={"levels": spectrum.count},
    )


def sharpness_sweep(
    integral: float = 2.0,
    widths=(1e-1, 1e-2, 1e-3),
    base_tolerance: float = 1e-3,
    saturation_floor: float = 0.499,
) -> tuple[list[BoundReport], dict]:
    """Rank-one wells of fixed weight and shrinking width saturate the bound.

    The box radius must stay an integer multiple of the grid step so both
    well edges land on nodes; otherwise the scheme degrades to first order.
    """
    reports = []
    for width in widths:
        step = width / SHARPNESS_POINTS_PER_WIDTH
        cells = 2.0 * SHARPNESS_BOX_RADIUS / step
        if abs(cells - round(cells)) > 1e-9:
            raise ValueError("box radius must be an integer multiple of the step")
        num_interior = int(round(cells)) - 1
        well = potentials.build_family(
            "rank-one-narrow", integral=integral, width=width
        )
        spectrum = spectral1d.refined_negative_spectrum(
            well, SHARPNESS_BOX_RADIUS, num_interior
        )
        rep = sharp_half_audit(well, spectrum, base_tolerance=base_tolerance)
        rep.provenance["width"] = width
        reports.append(rep)
    rows = {
        "width": np.array(widths, dtype=float),
        "ratio": np.array([rep.ratio for rep in reports]),
        "levels": np.array([rep.provenance["levels"] for rep in reports]),
        "budget": np.array([rep.provenance["budget"] for rep in reports]),
    }
    last = reports[-1].ratio
    saturation = BoundReport(
        audit_tag="sharp-half-saturation",
        lhs=last,
        rhs=saturation_floor,
        tolerance=0.0,
        passed=last >= saturation_floor,
        spec=BoundSpec(0.5, 1, "lower", 2.0, "remark:rank-one-saturation"),
        residual=last - saturation_floor,
        provenance={"width": widths[-1]},
    )
    return reports + [saturation], rows


def lifted_moment_audit(
    potential: SampledPotential,
    spectrum: NegativeSpectrum,
    gamma: float,
    base_tolerance: float = 1e-6,
) -> BoundReport:
    """Riesz mean at gamma against factor * L^cl * integral of V_-^(gamma+1/2)."""
    if gamma < 0.5:
        raise ValueError("need gamma >= 1/2")
    potentials.require_nonpositive(potential)
    factor = constant_factor(gamma, 1)
    lhs = spectrum.riesz_mean(gamma)
    rhs = (
        factor
        * classical_constant(gamma, 1)
        * potentials.trace_power_integral(potential, "minus", gamma + 0.5)
    )
    return comparison_report(
        "lifted-moment",
        "upper",
        lhs,
        rhs,
        spec=BoundSpec(gamma, 1, "upper", factor, "bound:lifted-moment"),
        base_tolerance=base_tolerance,
        lhs_error=spectrum.riesz_mean_error(gamma),
        rhs_error=INTEGRAL_SLACK,
        provenance={"levels": spectrum.count, "gamma": gamma},
    )


def lifting_identity_check(
    gamma: float, s: float, tolerance: float = 1e-8
) -> BoundReport:
    """Quadrature over the auxiliary variable reproduces s_-^gamma exactly.

    The weight t^(gamma-3/2) is integrable but singular for gamma < 3/2;
    substituting t = |s| u^(1/(gamma-1/2)) leaves sqrt(1 - u^(1/p)) on
    [0, 1], whose square-root edge at u = 1 the tanh-sinh rule resolves.
    Its error estimate is recorded as quad_error.
    """
    if gamma <= 0.5:
        raise ValueError("the normalizing Beta constant diverges at gamma <= 1/2")
    if s >= 0:
        raise ValueError("the identity is vacuous at s >= 0; need s < 0")
    p = gamma - 0.5
    normalizer = math.exp(math.lgamma(p + 1.5) - math.lgamma(p) - math.lgamma(1.5))
    value, quad_err = potentials.finite_integral(
        lambda u: np.sqrt(np.maximum(1.0 - u ** (1.0 / p), 0.0)), 0.0, 1.0, 1e-13
    )
    lhs = normalizer * abs(s) ** gamma * value / p
    rhs = abs(s) ** gamma
    residual = abs(lhs - rhs) / rhs
    return BoundReport(
        audit_tag="lifting-identity",
        lhs=lhs,
        rhs=rhs,
        tolerance=tolerance,
        passed=residual <= tolerance,
        spec=BoundSpec(gamma, 1, "identity", 1.0, "identity:moment-lifting"),
        residual=residual,
        provenance={"s": s, "quad_error": quad_err},
    )


def lifting_identity_sweep(
    count: int = 20, seed: int = 7, tolerance: float = 1e-8
) -> list[BoundReport]:
    rng = np.random.default_rng(seed)
    gammas = rng.uniform(0.51, 3.0, count)
    shifts = -rng.uniform(0.1, 10.0, count)
    return [
        lifting_identity_check(float(g), float(s), tolerance)
        for g, s in zip(gammas, shifts)
    ]


def half_moment_sandwich(
    potential: SampledPotential,
    spectrum: NegativeSpectrum,
    base_tolerance: float = 1e-6,
) -> list[BoundReport]:
    """Two-sided estimate on the half moments for sign-indefinite wells."""
    tr_minus = potentials.trace_power_integral(potential, "minus", 1.0)
    tr_plus = potentials.trace_power_integral(potential, "plus", 1.0)
    mid = spectrum.riesz_mean(0.5)
    err = spectrum.riesz_mean_error(0.5)
    quarter = classical_constant(0.5, 1)
    lower = comparison_report(
        "half-moment-lower",
        "lower",
        mid,
        quarter * (tr_minus - tr_plus),
        spec=BoundSpec(0.5, 1, "lower", 1.0, "bound:half-moment-below"),
        base_tolerance=base_tolerance,
        lhs_error=err,
        rhs_error=INTEGRAL_SLACK,
        provenance={"levels": spectrum.count},
    )
    upper = comparison_report(
        "half-moment-upper",
        "upper",
        mid,
        2.0 * quarter * tr_minus,
        spec=BoundSpec(0.5, 1, "upper", 2.0, "bound:half-moment-sharp"),
        base_tolerance=base_tolerance,
        lhs_error=err,
        rhs_error=INTEGRAL_SLACK,
        provenance={"levels": spectrum.count},
    )
    return [lower, upper]


def holder_chain_audit(potential, data, base_tolerance: float = 1e-9) -> list[BoundReport]:
    """Chain the three spectral-integral estimates that interpolate the moments.

    data is scattering output for the same potential; its certified integral
    errors enter each budget.  The middle integral is squeezed between the
    outer two by the interpolation inequality.
    """
    err = data.integral_details["errors"]
    tr_plus_1 = potentials.trace_power_integral(potential, "plus", 1.0)
    tr_minus_1 = potentials.trace_power_integral(potential, "minus", 1.0)
    tr_plus_3 = potentials.trace_power_integral(potential, "plus", 3.0)
    deriv_sq = potentials.derivative_square_integral(potential)
    quarter = classical_constant(0.5, 1)
    l52 = classical_constant(2.5, 1)
    zeroth = comparison_report(
        "holder-chain-zeroth",
        "upper",
        data.i0,
        quarter * (tr_plus_1 + tr_minus_1),
        spec=BoundSpec(0.5, 1, "upper", 1.0, "bound:zeroth-integral"),
        base_tolerance=base_tolerance,
        lhs_error=err[0],
        rhs_error=INTEGRAL_SLACK,
    )
    fourth = comparison_report(
        "holder-chain-fourth",
        "upper",
        5.0 * data.i4,
        l52 * tr_plus_3 + 0.5 * l52 * deriv_sq,
        spec=BoundSpec(2.5, 1, "upper", 1.0, "bound:fourth-integral"),
        base_tolerance=base_tolerance,
        lhs_error=5.0 * err[4],
        rhs_error=INTEGRAL_SLACK,
    )
    # inflate the geometric mean by the certified errors of both factors
    rhs_mid = math.sqrt(max(data.i0, 0.0) * max(data.i4, 0.0))
    rhs_outer = math.sqrt((max(data.i0, 0.0) + err[0]) * (max(data.i4, 0.0) + err[4]))
    middle = comparison_report(
        "holder-chain-middle",
        "upper",
        data.i2,
        rhs_mid,
        spec=BoundSpec(1.5, 1, "upper", 1.0, "bound:interpolated-integral"),
        base_tolerance=base_tolerance,
        lhs_error=err[2],
        rhs_error=rhs_outer - rhs_mid,
    )
    return [zeroth, middle, fourth]


@dataclass(frozen=True)
class CouplingSweep:
    """Refined spectra of coupling * V over a list of couplings.

    The grid step shrinks like 1/sqrt(coupling) so the certified eigenvalue
    budgets stay uniform across the sweep; one shared box keeps near-edge
    states comparable between couplings.  Each spectrum pairs three nested
    grids of (M - 1)/2, M and 2M + 1 interior points, M odd, whose steps
    halve from one to the next, so its levels carry richardson_pair's
    three-grid budget; SWEEP_BASE_STEP is the M grid's step at coupling <= 1.
    """

    couplings: tuple
    spectra: tuple


def _check_couplings(couplings) -> None:
    """Raise unless there are at least 6 couplings, all positive."""
    if len(couplings) < 6:
        raise ValueError("need at least 6 couplings for the sweep")
    if any(float(a) <= 0 for a in couplings):
        raise ValueError("couplings must be positive")


def coupling_sweep(
    potential: SampledPotential, couplings=ALPHA_DEFAULTS
) -> CouplingSweep:
    potentials.require_nonpositive(potential)
    _check_couplings(couplings)
    couplings = tuple(float(a) for a in couplings)
    box = potential.support_radius + spectral1d.BOX_MARGIN / math.sqrt(
        spectral1d.BOX_ENERGY_FLOOR
    )
    spectra = []
    for a in couplings:
        step = SWEEP_BASE_STEP / math.sqrt(max(a, 1.0))
        # odd, so the (M - 1)/2 grid nests with step 2h under the M grid
        num_interior = max(int(math.ceil(2.0 * box / step)) - 1, 33) | 1
        scaled = potentials.scale(potential, a)
        coarsest, coarse, fine = (
            spectral1d.negative_spectrum(spectral1d.discretize(scaled, box, m))
            for m in (num_interior // 2, num_interior, 2 * num_interior + 1)
        )
        spectra.append(spectral1d.richardson_pair(coarse, fine, coarsest))
    return CouplingSweep(couplings=couplings, spectra=tuple(spectra))


def remainder_sweep(
    potential: SampledPotential,
    sweep: CouplingSweep,
    base_tolerance: float = 1e-6,
    slope_cap: float = 1.6,
) -> tuple[list[BoundReport], dict]:
    """Gap between the phase-space term and the 3/2 moments, versus its cap.

    The gap is nonnegative and grows at most like coupling^(3/2); the fitted
    log-log slope over the top decade is reported against slope_cap, with
    the budget that the remainders' own budgets give it, and is inconclusive
    when a remainder there lies within its budget of 0.
    """
    l32 = classical_constant(1.5, 1)
    v_sq = potentials.trace_power_integral(potential, "minus", 2.0)
    v_one = potentials.trace_power_integral(potential, "minus", 1.0)
    deriv_sq = potentials.derivative_square_integral(potential)
    cap_coeff = 3.0 / 16.0 * math.sqrt(v_one) * math.sqrt(deriv_sq)
    alphas = np.array(sweep.couplings)
    riesz = np.array([spectrum.riesz_mean(1.5) for spectrum in sweep.spectra])
    errors = np.array([spectrum.riesz_mean_error(1.5) for spectrum in sweep.spectra])
    rem = alphas * alphas * l32 * v_sq - riesz
    cap = np.array([cap_coeff * a**1.5 for a in sweep.couplings])
    budget = errors + INTEGRAL_SLACK * alphas * alphas
    # each coupling may dip to -(budget + base_tolerance * cap); the record is
    # the coupling with the least room, so its own fields carry the verdict
    i_low = int(np.argmin(rem + budget + base_tolerance * cap))
    nonneg = comparison_report(
        "remainder-nonnegative",
        "lower",
        rem[i_low],
        0.0,
        spec=BoundSpec(1.5, 1, "lower", 1.0, "remainder:nonnegative"),
        base_tolerance=base_tolerance * cap[i_low],
        lhs_error=budget[i_low],
        provenance={"coupling": alphas[i_low]},
    )
    i_cap = int(np.argmax((rem - budget) / cap))
    capped = comparison_report(
        "remainder-cap",
        "upper",
        rem[i_cap],
        cap[i_cap],
        spec=BoundSpec(1.5, 1, "upper", 1.0, "remainder:square-root-cap"),
        base_tolerance=base_tolerance,
        lhs_error=budget[i_cap],
        provenance={"coupling": alphas[i_cap]},
    )
    top = (alphas >= alphas.max() / 10.0) & (rem > 0)
    if top.sum() >= 3:
        x, r, b = np.log(alphas[top]), rem[top], budget[top]
        # the slope is sum c_i log r_i, and r_i -+ b_i moves log r_i by at
        # most -log(1 - b_i/r_i), which exceeds log(1 + b_i/r_i)
        c = (x - x.mean()) / np.sum((x - x.mean()) ** 2)
        slope = float(np.polyfit(x, np.log(r), 1)[0])
        covered = bool(np.all(b < r))
        slope_error = float(np.sum(np.abs(c) * -np.log1p(-b / r))) if covered else math.inf
        slope_rep = comparison_report(
            "remainder-slope",
            "upper",
            slope,
            slope_cap,
            spec=BoundSpec(1.5, 1, "upper", 1.0, "remainder:growth-order"),
            lhs_error=slope_error,
            provenance={"points": int(top.sum())},
        )
        if not covered:  # a remainder its budget cannot tell from 0
            slope_rep = replace(slope_rep, passed=False, inconclusive=True)
    else:
        slope_rep = BoundReport(
            audit_tag="remainder-slope",
            lhs=math.nan,
            rhs=slope_cap,
            tolerance=0.0,
            passed=False,
            inconclusive=True,
            provenance={"points": int(top.sum())},
        )
    rows = {
        "coupling": alphas, "remainder": rem, "cap": cap, "riesz_mean": riesz,
        "budget": budget, "levels": np.array([spectrum.count for spectrum in sweep.spectra]),
    }
    return [nonneg, capped, slope_rep], rows


def weyl_ratio_sweep(
    potential: SampledPotential,
    gamma: float,
    sweep: CouplingSweep,
    base_tolerance: float = 1e-6,
) -> tuple[list[BoundReport], dict]:
    """Riesz means against the phase-space term across the coupling sweep.

    Every ratio must respect the certified factor; at gamma >= 3/2 the last
    ratio must additionally sit within WEYL_LIMIT_TOLERANCE of 1.
    """
    factor = constant_factor(gamma, 1)
    scale_integral = classical_constant(gamma, 1) * potentials.trace_power_integral(
        potential, "minus", gamma + 0.5
    )
    alphas = np.array(sweep.couplings)
    denoms = np.array([a ** (gamma + 0.5) * scale_integral for a in sweep.couplings])
    ratios = np.array([spectrum.riesz_mean(gamma) for spectrum in sweep.spectra]) / denoms
    budgets = np.array([spectrum.riesz_mean_error(gamma) for spectrum in sweep.spectra]) / denoms
    i_worst = int(np.argmax(ratios - budgets))
    cap = comparison_report(
        "weyl-ratio-cap",
        "upper",
        ratios[i_worst],
        factor,
        spec=BoundSpec(gamma, 1, "upper", factor, "bound:lifted-moment"),
        base_tolerance=base_tolerance,
        lhs_error=budgets[i_worst],
        provenance={"coupling": alphas[i_worst], "gamma": gamma},
    )
    reports = [cap]
    if gamma >= 1.5:
        reports.append(
            comparison_report(
                "weyl-ratio-limit",
                "identity",
                ratios[-1],
                1.0,
                spec=BoundSpec(gamma, 1, "identity", 1.0, "asymptotic:phase-space"),
                base_tolerance=WEYL_LIMIT_TOLERANCE,
                lhs_error=budgets[-1],
                provenance={"coupling": alphas[-1], "gamma": gamma},
            )
        )
    return reports, {"coupling": alphas, "ratio": ratios, "budget": budgets}
