import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltlab import fractional, potentials, spectral1d


@pytest.fixture(scope="module")
def cauchy():
    return fractional.stable_density(1.0, 1.0)


def zero_potential():
    def zero(x):
        return np.zeros((np.size(x), 1, 1))

    return potentials.SampledPotential(
        grid_start=-1.0,
        grid_step=0.05,
        values=np.zeros((41, 1, 1)),
        support=(-1.0, 1.0),
        evaluator=zero,
        derivative_evaluator=zero,
    )


def test_cauchy_density_closed_form(cauchy):
    # alpha = 1 is the one stable law with an elementary density
    p = cauchy.momentum_grid
    assert_allclose(cauchy.density_values, 1.0 / (math.pi * (1.0 + p**2)), atol=1e-12)
    assert abs(cauchy.total_mass() - 1.0) < 1e-6


def test_stable_density_validation():
    with pytest.raises(ValueError):
        fractional.stable_density(2.0, 1.0)
    with pytest.raises(ValueError):
        fractional.stable_density(0.0, 1.0)
    with pytest.raises(ValueError):
        fractional.stable_density(1.0, -1.0)


def test_density_grid_validation():
    with pytest.raises(ValueError, match="16 points"):
        fractional.ComparisonDensity(1.0, 1.0, np.linspace(0, 1, 8), np.ones(8))
    with pytest.raises(ValueError, match="increasing"):
        fractional.ComparisonDensity(
            1.0, 1.0, np.linspace(1, 0, 20), np.ones(20)
        )


def test_c0_equals_pi_for_cauchy_weight(cauchy):
    # (p^2+1)^{-1} = pi * density exactly, so the ratio is constant
    c0 = fractional.c0_search(2.0, cauchy)
    assert_allclose(c0, math.pi, atol=1e-9)


def test_c0_needs_fast_enough_weight_decay(cauchy):
    with pytest.raises(ValueError, match="operator exponent"):
        fractional.c0_search(1.5, cauchy)


def test_c0_reference_audit(cauchy):
    reports = fractional.c0_reference_audit(2.0, cauchy, reference=math.pi)
    assert [r.audit_tag for r in reports] == ["stable-c0"]
    assert reports[0].passed
    with pytest.raises(ValueError, match="nothing to audit"):
        fractional.c0_reference_audit(2.0, cauchy)


def test_characteristic_roundtrip(cauchy):
    rep = fractional.characteristic_function_check(cauchy)
    assert rep.passed
    assert rep.lhs < 1e-8


def test_periodic_operator_diagonalizes_to_symbol():
    n, box = 64, 5.0
    mat = fractional.periodic_operator(zero_potential(), 2.0, box, n)
    got = np.sort(np.linalg.eigvalsh(mat))
    step = 2.0 * box / n
    symbol = np.sort(np.abs(2.0 * math.pi * np.fft.fftfreq(n, d=step)) ** 2.0)
    assert_allclose(got, symbol, atol=1e-9)


def test_negative_levels_match_the_full_spectrum(pt1):
    # the two boxes of fractional_moment_audit at its default size
    radius = pt1.support_radius + 10.0
    threshold = spectral1d.ENERGY_EDGE_THRESHOLD
    for scale in (1, 2):
        mat = fractional.periodic_operator(pt1, 2.0, scale * radius, scale * 1024)
        full = np.linalg.eigvalsh(mat)
        expected = np.sort(-full[full <= -threshold])[::-1]
        got = fractional._negative_levels(mat, threshold)
        assert got.size == expected.size > 0
        assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_fractional_moment_poschl_teller(pt1):
    # beta = 2 with the exact Cauchy constant: lhs is sum sqrt(E) = 1 and
    # rhs = (pi/2pi) * 4 = 2
    rep = fractional.fractional_moment_audit(pt1, 2.0, math.pi, num_points=512)
    assert rep.passed
    assert_allclose(rep.lhs, 1.0, atol=1e-4)
    assert_allclose(rep.rhs, 2.0, rtol=1e-9)
    assert rep.provenance["drift"] <= fractional.DRIFT_BUDGET


def test_fractional_moment_budget_covers_solver_roundoff(pt1):
    # the fractional-cauchy scenario: a backward-stable solve moves each level
    # by up to eps * ||A||_1 of the larger-box operator, on top of the drift
    # under box doubling, and here the roundoff term is the larger of the two
    rep = fractional.fractional_moment_audit(pt1, 2.0, math.pi)
    mat = fractional.periodic_operator(
        pt1, 2.0, 2.0 * rep.provenance["box_radius"], 2 * 1024
    )
    levels = fractional._negative_levels(mat, spectral1d.ENERGY_EDGE_THRESHOLD)
    roundoff = np.finfo(float).eps * np.linalg.norm(mat, 1)
    assert roundoff > rep.provenance["drift"]
    uncertainty = rep.provenance["drift"] + roundoff
    power = 0.5
    first_order = float((power * levels ** (power - 1.0) * uncertainty).sum())
    assert rep.provenance["budget"] >= first_order
    assert rep.passed


def test_fractional_moment_vacuous_case():
    rep = fractional.fractional_moment_audit(
        zero_potential(), 2.0, math.pi, num_points=128
    )
    assert rep.passed
    assert rep.lhs == 0.0


def test_fractional_moment_rejects_small_box():
    # shallow well: the ground state still reaches the walls at this margin
    well = potentials.build_family("gaussian", depth=0.3, width=1.0)
    with pytest.raises(ValueError, match="box too small"):
        fractional.fractional_moment_audit(
            well, 2.0, math.pi, box_margin=1.0, num_points=128
        )


def test_fractional_moment_input_guards(pt1, random_2x2):
    with pytest.raises(ValueError, match="exceed 1"):
        fractional.fractional_moment_audit(pt1, 1.0, math.pi)
    with pytest.raises(ValueError, match="scalar"):
        fractional.fractional_moment_audit(random_2x2, 2.0, math.pi)
    lifted = potentials.scale(pt1, -1.0)
    with pytest.raises(ValueError, match="nonpositive"):
        fractional.fractional_moment_audit(lifted, 2.0, math.pi)
