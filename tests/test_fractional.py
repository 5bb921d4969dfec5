import math

import numpy as np
import pytest
import scipy.sparse.linalg
from numpy.testing import assert_allclose
from scipy.linalg import circulant

from ltlab import fractional, potentials, spectral1d

# the momenta a density entry of a config tabulates by default
GRID = np.linspace(0.0, 40.0, 801)


@pytest.fixture(scope="module")
def cauchy():
    return fractional.stable_density(1.0, 1.0, GRID)


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
    assert abs(cauchy.total_mass() - 1.0) <= fractional.MASS_TOLERANCE


@pytest.mark.parametrize("alpha, scale", [
    (0.2, 1.0), (0.3, 0.3), (0.3, 0.5), (0.3, 1.0), (0.4, 0.5), (0.5, 0.5), (0.7, 0.1),
])
def test_heavy_tailed_densities_have_unit_mass(alpha, scale):
    # values within the error cap whose density peaks so sharply at p = 0
    # that a fixed-step rule on [0, 60] misses the mass by up to 0.34
    density = fractional.stable_density(alpha, scale, GRID)
    assert abs(density.total_mass() - 1.0) <= fractional.MASS_TOLERANCE


def test_stable_density_validation():
    with pytest.raises(ValueError):
        fractional.stable_density(2.0, 1.0, GRID)
    with pytest.raises(ValueError):
        fractional.stable_density(0.0, 1.0, GRID)
    with pytest.raises(ValueError):
        fractional.stable_density(1.0, -1.0, GRID)


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
        got = op.negative_levels()
        assert got.size == expected.size > 0
        assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_beta4_levels_match_the_full_spectrum_within_roundoff(gaussian_beta4):
    op = gaussian_beta4
    expected = dense_levels(op)
    got = op.negative_levels()
    assert got.size == expected.size == 3
    assert_allclose(got, expected, rtol=0, atol=np.finfo(float).eps * op.norm_1())


def test_norm_from_the_column_is_the_dense_norm(pt1, gaussian_beta4):
    ops = [gaussian_beta4, fractional.PeriodicOperator.on_box(pt1, 2.0, 20.0, 512)]
    for op in ops:
        assert_allclose(op.norm_1(), np.linalg.norm(dense_operator(op), 1), rtol=1e-13)


def periodic_count(op, cut):
    """The level count below -cut and the cut, as negative_levels takes them."""
    guard = np.finfo(float).eps * op.norm_1()
    return spectral1d._stable_count(op._factor_at, cut, guard, op.size)


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
        count, used = periodic_count(op, cut)
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
        assert periodic_count(mixed, cut) == (int((full < -cut).sum()), cut)
    assert_allclose(
        mixed.negative_levels(),
        dense_levels(mixed),
        rtol=0,
        atol=np.finfo(float).eps * mixed.norm_1(),
    )


def test_refined_density_repeats_the_coarse_values():
    # the fractional-beta4 pair: each value depends on its own momentum only,
    # so the 1601-point grid's even points are the 801-point values to the bit
    coarse = fractional.stable_density(1.5, 1.0, GRID)
    fine = fractional.stable_density(1.5, 1.0, np.linspace(0.0, 40.0, 1601))
    assert (fine.momentum_grid[::2] == coarse.momentum_grid).all()
    assert (fine.density_values[::2] == coarse.density_values).all()
    assert (fine.evaluate(GRID[::50]) == coarse.density_values[::50]).all()


def test_cauchy_density_error_estimates_bound_the_true_error():
    fine = np.linspace(0.0, 40.0, 1601)
    values, errors = fractional._density(1.0, 1.0, fine)
    true = np.abs(values - 1.0 / (math.pi * (1.0 + fine**2)))
    assert true.max() <= 1e-14
    assert (errors >= true).all()
    assert errors.max() <= fractional.DENSITY_ERROR_CAP


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 1.9])
def test_density_matches_adaptive_quadrature(alpha):
    from scipy.integrate import quad

    momenta = GRID[::8]
    values, errors = fractional._density(alpha, 1.0, momenta)
    for p, value, error in zip(momenta, values, errors):
        if p == 0.0:
            ref, ref_error = quad(lambda x: math.exp(-(x**alpha)), 0.0, np.inf,
                                  epsabs=1e-12, epsrel=1e-12, limit=400)
        else:
            ref, ref_error = quad(lambda x: math.exp(-(x**alpha)), 0.0, np.inf,
                                  weight="cos", wvar=p, epsabs=1e-12, limit=400)
        assert abs(value - ref / math.pi) <= error + ref_error / math.pi


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
    # no sample is nonzero: there is no level, nothing is factored and no
    # Lanczos runs
    def refuse(*args, **kwargs):
        raise AssertionError("a zero potential needs no factor and no eigsh")

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
    monkeypatch.setattr(fractional.PeriodicOperator, "_factor_at", refuse)
    op = fractional.PeriodicOperator.on_box(zero_potential(), 2.0, 5.0, 128)
    assert op.negative_levels().size == 0
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


def test_certified_solves_below_the_spectrum_and_raises_above(gaussian_beta4, random_2x2):
    # both factor kinds: spectral1d._ldlt of a sparse coupled (complex) well
    # and the periodic operator's Birman-Schwinger _factor_at
    coupled = spectral1d.discretize(random_2x2, random_2x2.support_radius + 4.0, 200)
    mat = coupled.to_sparse()
    cases = [
        (spectral1d._ldlt(mat, spectral1d._pivot_guard(mat)), mat.toarray()),
        (gaussian_beta4._factor_at, dense_operator(gaussian_beta4)),
    ]
    rng = np.random.default_rng(4)
    for factor_at, dense in cases:
        size = dense.shape[0]
        full = np.linalg.eigvalsh(dense)
        sigma = full[0] - 0.5
        x = rng.standard_normal(size)
        if np.iscomplexobj(dense):
            x = x + 1j * rng.standard_normal(size)
        shifted = dense - sigma * np.eye(size)
        expected = np.linalg.solve(shifted, x)
        # the forward error of a backward-stable solve is about cond * eps;
        # measured: 4e-15 of max|expected| (sparse, cond 1.7e3) and 5e-10
        # (periodic, cond 1.0e7, where |p|^4 makes ||A|| large)
        roundoff = 4 * np.linalg.cond(shifted) * np.finfo(float).eps
        got = spectral1d._certified(factor_at, sigma)(x)
        assert_allclose(got, expected, rtol=0, atol=roundoff * np.abs(expected).max())
        # between the two lowest levels the factor counts one level below sigma
        with pytest.raises(RuntimeError, match="not certified"):
            spectral1d._certified(factor_at, 0.5 * (full[0] + full[1]))
