import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import circulant

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


def dense_operator(op):
    """The n x n matrix that PeriodicOperator never forms."""
    return circulant(op.column) + np.diag(op.samples)


def dense_levels(op, threshold=spectral1d.ENERGY_EDGE_THRESHOLD):
    full = np.linalg.eigvalsh(dense_operator(op))
    return np.sort(-full[full <= -threshold])[::-1]


@pytest.fixture(scope="module")
def gaussian_beta4():
    # the fractional-beta4 scenario on its smaller box
    well = potentials.build_family("gaussian", depth=4.0, width=1.5)
    return fractional.PeriodicOperator.on_box(well, 4.0, well.support_radius + 25.0, 1024)


def test_periodic_operator_diagonalizes_to_symbol():
    n, box = 64, 5.0
    op = fractional.PeriodicOperator.on_box(zero_potential(), 2.0, box, n)
    mat = dense_operator(op)
    assert (mat == mat.T).all()
    got = np.sort(np.linalg.eigvalsh(mat))
    step = 2.0 * box / n
    symbol = np.sort(np.abs(2.0 * math.pi * np.fft.fftfreq(n, d=step)) ** 2.0)
    assert_allclose(got, symbol, atol=1e-9)
    x = np.random.default_rng(1).standard_normal(n)
    assert_allclose(op.matvec(x), mat @ x, rtol=0, atol=1e-12 * op.norm_1())


def test_negative_levels_match_the_full_spectrum(pt1):
    # the two boxes of fractional_moment_audit at its default size
    radius = pt1.support_radius + 10.0
    for scale in (1, 2):
        op = fractional.PeriodicOperator.on_box(pt1, 2.0, scale * radius, scale * 1024)
        expected = dense_levels(op)
        got = op.negative_levels(spectral1d.ENERGY_EDGE_THRESHOLD)
        assert got.size == expected.size > 0
        assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_beta4_levels_match_the_full_spectrum_within_roundoff(gaussian_beta4):
    op = gaussian_beta4
    expected = dense_levels(op)
    got = op.negative_levels(spectral1d.ENERGY_EDGE_THRESHOLD)
    assert got.size == expected.size == 3
    assert_allclose(got, expected, rtol=0, atol=np.finfo(float).eps * op.norm_1())


def test_norm_from_the_column_is_the_dense_norm(pt1, gaussian_beta4):
    ops = [gaussian_beta4, fractional.PeriodicOperator.on_box(pt1, 2.0, 20.0, 512)]
    for op in ops:
        assert_allclose(op.norm_1(), np.linalg.norm(dense_operator(op), 1), rtol=1e-13)


def test_count_below_matches_the_dense_count(gaussian_beta4):
    op = gaussian_beta4
    full = np.linalg.eigvalsh(dense_operator(op))
    levels = -full[full < 0]
    assert levels.size >= 3
    # around every level at 1e-7, well inside 1e-6 and well above the dense
    # solve's roundoff, plus the edge and a cut below the whole spectrum
    cuts = [spectral1d.ENERGY_EDGE_THRESHOLD, 10.0]
    cuts += [e + d for e in levels[-3:] for d in (-1e-7, 1e-7)]
    for cut in cuts:
        count, used = op.count_below(cut)
        assert used == cut
        assert count == int((full < -cut).sum())


def test_positive_samples_enter_the_count_through_their_sign(gaussian_beta4):
    # a barrier beside the well: W = -sign V has -1 entries, W - K(t) is
    # indefinite at every shift, and the count subtracts n_-(W)
    op = gaussian_beta4
    x = np.arange(op.size)
    barrier = 0.5 * np.exp(-(((x - 0.75 * op.size) / 20.0) ** 2))
    barrier[barrier < 1e-14] = 1e-13
    mixed = fractional.PeriodicOperator(op.symbol, op.column, op.samples + barrier)
    assert (mixed.samples > 0).sum() > 0 and (mixed.samples < 0).sum() > 0
    full = np.linalg.eigvalsh(dense_operator(mixed))
    for cut in (spectral1d.ENERGY_EDGE_THRESHOLD, 0.5, 2.0):
        assert mixed.count_below(cut) == (int((full < -cut).sum()), cut)
    assert_allclose(
        mixed.negative_levels(spectral1d.ENERGY_EDGE_THRESHOLD),
        dense_levels(mixed),
        rtol=0,
        atol=np.finfo(float).eps * mixed.norm_1(),
    )


def test_refined_density_repeats_no_shared_quadrature():
    # the fractional-beta4 pair: the 1601-point grid's even points are the
    # 801-point grid to the bit, and both mass checks read the same points
    fractional._density_value.cache_clear()
    coarse = fractional.stable_density(1.5, 1.0)
    before = fractional._density_value.cache_info().misses
    fine = fractional.stable_density(1.5, 1.0, fractional.default_momentum_grid(40.0, 1601))
    new_quadratures = fractional._density_value.cache_info().misses - before
    assert (fine.momentum_grid[::2] == coarse.momentum_grid).all()
    assert (fine.density_values[::2] == coarse.density_values).all()
    seen = set(coarse.momentum_grid.tolist())
    for lo, hi, count in fractional.MASS_SEGMENTS:
        seen.update(np.linspace(lo, hi, count).tolist())
    assert new_quadratures == len(set(fine.momentum_grid.tolist()) - seen) <= 800
    uncached = fractional._density_value.__wrapped__
    direct = [uncached(1.5, 1.0, p)[0] for p in fine.momentum_grid]
    assert (fine.density_values == np.array(direct)).all()


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
    op = fractional.PeriodicOperator.on_box(
        pt1, 2.0, 2.0 * rep.provenance["box_radius"], 2 * 1024
    )
    mat = dense_operator(op)
    levels = dense_levels(op)
    roundoff = np.finfo(float).eps * np.linalg.norm(mat, 1)
    assert roundoff > rep.provenance["drift"]
    uncertainty = rep.provenance["drift"] + roundoff
    power = 0.5
    first_order = float((power * levels ** (power - 1.0) * uncertainty).sum())
    assert rep.provenance["budget"] >= first_order
    assert rep.passed


def test_fractional_moment_vacuous_case(monkeypatch):
    # no sample is nonzero: the count is 0 without a factor and no Lanczos runs
    def refuse(*args, **kwargs):
        raise AssertionError("eigsh called on a zero potential")

    monkeypatch.setattr(spectral1d.spla, "eigsh", refuse)
    op = fractional.PeriodicOperator.on_box(zero_potential(), 2.0, 5.0, 128)
    assert op.count_below(1e-8) == (0, 1e-8)
    assert op.negative_levels(1e-8).size == 0
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
