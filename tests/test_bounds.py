import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltlab import bounds, multidim, potentials, runner, spectral1d


def test_classical_constant_closed_forms():
    assert_allclose(bounds.classical_constant(0.5, 1), 0.25, rtol=1e-15)
    assert_allclose(bounds.classical_constant(1.5, 1), 3.0 / 16.0, rtol=1e-15)
    assert_allclose(bounds.classical_constant(2.5, 1), 5.0 / 32.0, rtol=1e-15)
    assert_allclose(bounds.classical_constant(1.0, 1), 2.0 / (3.0 * math.pi), rtol=1e-14)
    assert_allclose(bounds.classical_constant(0.0, 1), 1.0 / math.pi, rtol=1e-14)
    assert_allclose(bounds.classical_constant(1.5, 2), 1.0 / (10.0 * math.pi), rtol=1e-14)
    assert_allclose(bounds.classical_constant(1.0, 3), 1.0 / (15.0 * math.pi**2), rtol=1e-14)
    with pytest.raises(ValueError):
        bounds.classical_constant(-0.1, 1)
    with pytest.raises(ValueError):
        bounds.classical_constant(1.0, 0)


def test_constant_factor_table():
    assert bounds.constant_factor(1.5, 1) == 1.0
    assert bounds.constant_factor(2.0, 3) == 1.0
    assert bounds.constant_factor(1.0, 1) == 2.0
    assert bounds.constant_factor(1.25, 5) == 2.0
    assert bounds.constant_factor(0.5, 1) == 2.0
    assert bounds.constant_factor(0.75, 1) == 2.0
    assert bounds.constant_factor(0.5, 2) == 4.0
    assert bounds.constant_factor(0.75, 3) == 4.0
    with pytest.raises(ValueError):
        bounds.constant_factor(0.3, 1)
    with pytest.raises(ValueError):
        bounds.constant_factor(0.4, 2)


def test_constants_match_scipy_gamma():
    # the constants come from math.lgamma; scipy's Gamma function is the reference
    from scipy.special import gamma as gamma_function

    for d in (1, 2, 3, 5):
        for gamma in np.linspace(0.5, 6.0, 23):
            reference = gamma_function(gamma + 1.0) / (
                2.0**d * math.pi ** (0.5 * d) * gamma_function(gamma + 0.5 * d + 1.0)
            )
            value = bounds.classical_constant(gamma, d)
            assert_allclose(value, reference, rtol=1e-14)
            factor = bounds.constant_factor(gamma, d)
            assert_allclose(factor * value, factor * reference, rtol=1e-14)


def test_classical_constant_audit_passes():
    reports = bounds.classical_constant_audit()
    assert len(reports) == 4
    assert all(r.passed for r in reports)
    printed = reports[-1]
    assert printed.rhs == 0.013509
    assert printed.residual < 5e-7


def test_product_identity():
    for gamma in (0.5, 1.0, 1.7, 2.5):
        for d in (2, 3, 5, 8):
            rep = bounds.product_identity_check(gamma, d)
            assert rep.passed
            assert rep.residual < 1e-13
    with pytest.raises(ValueError):
        bounds.product_identity_check(0.25, 3)
    worst = bounds.product_identity_audit()
    assert worst.passed


@pytest.mark.parametrize("point", [(0.5, 2), (2.0, 8), (1.25, 5)])
def test_product_identity_reports_a_fixed_point(monkeypatch, point):
    # whichever grid point carries the worst residual, lhs, rhs and spec stay
    # those of (0.5, 2); only the residual and its named point follow the worst
    fixed = bounds.product_identity_audit()
    check = bounds.product_identity_check

    def inflated(gamma, d):
        rep = check(gamma, d)
        if (gamma, d) == point:
            return dataclasses.replace(rep, residual=1e-14)
        return rep

    monkeypatch.setattr(bounds, "product_identity_check", inflated)
    moved = bounds.product_identity_audit()
    assert (moved.lhs, moved.rhs, moved.spec) == (fixed.lhs, fixed.rhs, fixed.spec)
    assert (moved.spec.gamma, moved.spec.d) == (0.5, 2)
    assert moved.residual == 1e-14
    assert moved.provenance["worst_at"] == {"gamma": point[0], "d": point[1]}


def test_constant_ordering():
    ordering, convexity = bounds.constant_ordering_audit()
    assert ordering.passed
    assert ordering.lhs < 1.0
    assert convexity.passed


def test_lifting_identity_quadrature():
    # gamma = 1 has normalizer 1/B(1/2, 3/2) = 2/pi and the u-integral is pi/4
    rep = bounds.lifting_identity_check(1.0, -2.0)
    assert rep.passed
    assert_allclose(rep.lhs, 2.0, rtol=1e-10)
    with pytest.raises(ValueError):
        bounds.lifting_identity_check(0.5, -1.0)
    # s >= 0 is the vacuous case, which the sweep never draws
    with pytest.raises(ValueError, match="vacuous"):
        bounds.lifting_identity_check(0.8, 1.5)
    sweep = bounds.lifting_identity_sweep()
    assert len(sweep) == 20
    assert all(r.passed for r in sweep)


def test_lifting_identity_error_estimate_bounds_the_true_error():
    # lhs / rhs is the quadrature value over its closed form p B(p, 3/2)
    for gamma in (0.51, 1.0, 2.9):
        rep = bounds.lifting_identity_check(gamma, -1.0)
        p = gamma - 0.5
        exact = math.exp(math.lgamma(p + 1.0) + math.lgamma(1.5) - math.lgamma(p + 1.5))
        value = rep.lhs / rep.rhs * exact
        assert abs(value - exact) <= rep.provenance["quad_error"]
        assert rep.provenance["quad_error"] <= 1e-13


def test_sharp_half_poschl_teller(pt1, pt1_spectrum):
    # single level at -1 against half of int 2 sech^2 * 2 = 2
    rep = bounds.sharp_half_audit(pt1, pt1_spectrum)
    assert rep.passed
    assert_allclose(rep.lhs, 1.0, atol=1e-6)
    assert_allclose(rep.rhs, 2.0, rtol=1e-9)
    assert_allclose(rep.ratio, 0.5, atol=1e-6)


def test_sharp_half_rejects_indefinite_potential(random_2x2, pt1_spectrum):
    with pytest.raises(ValueError, match="positive part"):
        bounds.sharp_half_audit(random_2x2, pt1_spectrum)


def test_lifted_moment_saturates_for_poschl_teller(pt2, pt2_spectrum):
    # 8 + 1 against (3/16) * 36 * (4/3) = 9: the bound is exact here
    rep = bounds.lifted_moment_audit(pt2, pt2_spectrum, 1.5)
    assert rep.passed
    assert_allclose(rep.lhs, 9.0, atol=1e-5)
    assert_allclose(rep.rhs, 9.0, rtol=1e-9)
    with pytest.raises(ValueError):
        bounds.lifted_moment_audit(pt2, pt2_spectrum, 0.25)


def test_half_moment_sandwich_equality_case(pt2, pt2_spectrum):
    lower, upper = bounds.half_moment_sandwich(pt2, pt2_spectrum)
    assert lower.passed and upper.passed
    # sum sqrt(E) = 3 meets the lower estimate (1/4) * 12 exactly
    assert_allclose(lower.lhs, 3.0, atol=1e-5)
    assert_allclose(lower.rhs, 3.0, rtol=1e-9)
    assert_allclose(upper.rhs, 6.0, rtol=1e-9)


def test_sharpness_sweep_small():
    reports, rows = bounds.sharpness_sweep(widths=(1e-1, 2e-2))
    assert all(r.passed for r in reports)
    ratios = rows["ratio"]
    assert ratios[1] > ratios[0]
    assert ratios[1] <= 1.0 + 1e-3
    assert all(n == 1 for n in rows["levels"])


def test_sharpness_sweep_rejects_misaligned_grid():
    with pytest.raises(ValueError, match="integer multiple"):
        bounds.sharpness_sweep(widths=(0.3,))


def test_coupling_sweep_validation(pt1):
    with pytest.raises(ValueError, match="at least 6"):
        bounds.coupling_sweep(pt1, couplings=(1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        bounds.coupling_sweep(pt1, couplings=(1.0, 2.0, 3.0, 4.0, 5.0, -6.0))
    lifted = potentials.scale(pt1, -1.0)
    with pytest.raises(ValueError, match="positive part"):
        bounds.coupling_sweep(lifted, couplings=tuple(np.geomspace(1, 10, 6)))


@pytest.fixture(scope="module")
def gaussian_sweep():
    g = potentials.build_family("gaussian", depth=1.0, width=2.0)
    return g, bounds.coupling_sweep(g, couplings=np.geomspace(1.0, 100.0, 7))


# the coupling-sweep scenario of `ltbench/workloads.py spectra 0` and the
# bundled suite's remainder-gaussian: (depth, width, couplings)
BUDGETED_SWEEPS = {
    "spectra-seed-0": (1.1154, 1.8466, tuple(np.geomspace(1.0, 50.0, 6))),
    "remainder-gaussian": (1.0, 2.0, bounds.ALPHA_DEFAULTS),
}


def sweep_budget_coverage(depth, width, couplings):
    """Per coupling: (coupling, budget, error, three_grid), one entry per level.

    The error is each reported level's distance to the two-grid Richardson
    level at a quarter of the sweep's step (interior counts 4M + 3 and
    8M + 7), whose own h^4 error is 256 times smaller.  three_grid marks
    the levels whose budget differs from the two-grid |E_f - E_c|/3.
    """
    well = potentials.build_family("gaussian", depth=depth, width=width)
    sweep = bounds.coupling_sweep(well, couplings)
    box = well.support_radius + spectral1d.BOX_MARGIN / math.sqrt(spectral1d.BOX_ENERGY_FLOOR)
    rows = []
    for a, spectrum in zip(sweep.couplings, sweep.spectra):
        m = (spectrum.num_interior - 1) // 2
        scaled = potentials.scale(well, a)
        coarse, fine = (
            spectral1d.negative_spectrum(spectral1d.discretize(scaled, box, k))
            for k in (m, 2 * m + 1)
        )
        two_grid = spectral1d.richardson_pair(coarse, fine).error_estimates
        reference = spectral1d.refined_negative_spectrum(scaled, box, 4 * m + 3)
        assert m % 2 == 1 and reference.count == spectrum.count
        rows.append((
            a, spectrum.error_estimates, np.abs(spectrum.energies - reference.energies),
            spectrum.error_estimates != two_grid,
        ))
    return rows


@pytest.mark.parametrize("name", sorted(BUDGETED_SWEEPS))
def test_sweep_budgets_cover_the_error_with_bounded_surplus(name):
    for a, budget, error, three_grid in sweep_budget_coverage(*BUDGETED_SWEEPS[name]):
        # every level of these smooth wells shows order 2 on all three grids
        assert three_grid.all(), a
        assert (budget >= error).all(), (a, budget / error)
        assert (budget <= 100.0 * error).all(), (a, budget / error)


def test_remainder_sweep(gaussian_sweep):
    g, sweep = gaussian_sweep
    reports, rows = bounds.remainder_sweep(g, sweep=sweep)
    tags = [r.audit_tag for r in reports]
    assert tags == ["remainder-nonnegative", "remainder-cap", "remainder-slope"]
    assert all(r.passed for r in reports)
    assert min(rows["remainder"]) > -1e-9
    assert all(r <= c for r, c in zip(rows["remainder"], rows["cap"]))


def test_remainder_slope_budget_covers_the_worst_sign_pattern(gaussian_sweep):
    g, sweep = gaussian_sweep
    reports, rows = bounds.remainder_sweep(g, sweep=sweep)
    slope = reports[2]
    alphas, rem = rows["coupling"], rows["remainder"]
    top = (alphas >= alphas.max() / 10.0) & (rem > 0)
    x, r, b = np.log(alphas[top]), rem[top], rows["budget"][top]
    budget = slope.provenance["budget"]
    assert slope.provenance["points"] == top.sum() >= 3
    assert slope.passed and not slope.inconclusive
    assert 0.0 < budget and slope.tolerance == pytest.approx(budget / slope.rhs)
    bound = np.maximum(np.log1p(b / r), -np.log1p(-b / r))
    fit = lambda log_r: np.polyfit(x, log_r, 1)[0]  # noqa: E731
    sign = np.sign(x - x.mean())  # the sign of each coefficient c_i
    for s in (sign, -sign):
        # each log r_i moved by its whole bound, the sign of c_i: the budget
        assert abs(fit(np.log(r) + s * bound) - slope.lhs) == pytest.approx(budget, rel=1e-9)
        # each remainder moved by its whole budget: within it
        assert abs(fit(np.log(r + s * b)) - slope.lhs) <= budget * (1.0 + 1e-12)


def test_remainder_slope_is_inconclusive_within_a_budget_of_zero(gaussian_sweep):
    g, sweep = gaussian_sweep
    # the top coupling's level errors as large as its levels
    top = dataclasses.replace(sweep.spectra[-1], error_estimates=sweep.spectra[-1].energies)
    reports, _ = bounds.remainder_sweep(g, sweep=dataclasses.replace(
        sweep, spectra=sweep.spectra[:-1] + (top,)))
    slope = reports[2]
    assert slope.inconclusive and not slope.passed
    assert slope.provenance["budget"] == math.inf


def _verdict_from_fields(rep):
    """The pass rule of a comparison record, read off its own fields."""
    if abs(rep.rhs) <= rep.provenance["budget"]:
        return rep.residual >= -rep.tolerance
    return rep.residual >= -rep.tolerance * abs(rep.rhs)


def test_sweep_records_carry_their_verdicts(gaussian_sweep):
    g, sweep = gaussian_sweep
    # fourfold energies put every 3/2 moment far above the phase-space term
    inflated = dataclasses.replace(
        sweep,
        spectra=tuple(
            dataclasses.replace(s, energies=4.0 * s.energies) for s in sweep.spectra
        ),
    )
    checked = []
    for run in (sweep, inflated):
        remainder, _ = bounds.remainder_sweep(g, sweep=run)
        weyl, _ = bounds.weyl_ratio_sweep(g, gamma=1.5, sweep=run)
        checked += remainder[:2] + weyl[:1]
    verdicts = [r.passed for r in checked]
    assert verdicts == [True, True, True, False, True, False]
    assert [_verdict_from_fields(r) for r in checked] == verdicts


def test_weyl_ratio_sweep(gaussian_sweep):
    g, sweep = gaussian_sweep
    reports, rows = bounds.weyl_ratio_sweep(g, gamma=1.5, sweep=sweep)
    assert [r.audit_tag for r in reports] == ["weyl-ratio-cap", "weyl-ratio-limit"]
    assert all(r.passed for r in reports)
    # strong coupling pushes the ratio onto the phase-space value
    assert abs(rows["ratio"][-1] - 1.0) < 0.02
    low_gamma, _ = bounds.weyl_ratio_sweep(g, gamma=1.0, sweep=sweep)
    assert len(low_gamma) == 1
    assert low_gamma[0].passed


def test_holder_chain(pt1, pt1_scattering):
    reports = bounds.holder_chain_audit(pt1, pt1_scattering)
    assert [r.audit_tag for r in reports] == [
        "holder-chain-zeroth",
        "holder-chain-middle",
        "holder-chain-fourth",
    ]
    assert all(r.passed for r in reports)


def test_riesz_mean_records_carry_the_spectrum_budget(pt1, pt1_spectrum, gaussian_sweep):
    # lhs, budget and level count of every Riesz-mean record come from its
    # spectrum; the rhs adds INTEGRAL_SLACK in 1D and nothing on the plane
    records = [(pt1_spectrum, 0.5, 1e-9, bounds.sharp_half_audit(pt1, pt1_spectrum))]
    records += [(pt1_spectrum, g, 1e-9, bounds.lifted_moment_audit(pt1, pt1_spectrum, g)) for g in (0.5, 1.5)]
    records += [(pt1_spectrum, 0.5, 1e-9, rep) for rep in bounds.half_moment_sandwich(pt1, pt1_spectrum)]
    ctx = runner.ScenarioContext({"name": "plane", "audits": ["lt-2d"], "options": {
        "well": {"kind": "gaussian", "depth": 8.0, "width": 1.2}, "box_radius": 6.0, "num_interior": 16}})
    for magnetic in (False, True):
        spectrum = ctx.spectrum_2d(magnetic)
        records.append((spectrum, 1.5, 0.0, multidim.lt_audit_2d(ctx.well_2d(), spectrum, 1.5, 6.0, magnetic)))
    assert [rep.audit_tag for *_, rep in records] == [
        "sharp-half", "lifted-moment", "lifted-moment", "half-moment-lower", "half-moment-upper",
        "lt-2d", "lt-2d-magnetic"]
    for spectrum, gamma, rhs_error, rep in records:
        assert spectrum.count > 0
        assert rep.lhs == spectrum.riesz_mean(gamma)
        assert rep.provenance["budget"] == spectrum.riesz_mean_error(gamma) + rhs_error
        assert rep.provenance["levels"] == spectrum.count

    g, sweep = gaussian_sweep
    alphas = np.array(sweep.couplings)
    riesz, errors = sweep.riesz_means(1.5)
    assert list(riesz) == [s.riesz_mean(1.5) for s in sweep.spectra]
    assert list(errors) == [s.riesz_mean_error(1.5) for s in sweep.spectra]
    _, rows = bounds.remainder_sweep(g, sweep)
    assert list(rows["riesz_mean"]) == list(riesz)
    assert list(rows["budget"]) == list(errors + 1e-9 * alphas * alphas)
    assert list(rows["levels"]) == [s.count for s in sweep.spectra]
    scale = bounds.classical_constant(1.0, 1) * potentials.trace_power_integral(g, "minus", 1.5)
    denoms = alphas ** 1.5 * scale
    _, rows = bounds.weyl_ratio_sweep(g, 1.0, sweep)
    assert_allclose(rows["ratio"], [s.riesz_mean(1.0) for s in sweep.spectra] / denoms, rtol=1e-14)
    assert_allclose(rows["budget"], [s.riesz_mean_error(1.0) for s in sweep.spectra] / denoms, rtol=1e-14)
