import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltlab import potentials


def test_simpson_weights_exact_for_cubic():
    h = 0.01
    w = potentials.simpson_weights(101, h)
    x = h * np.arange(101)
    assert_allclose(w @ x**3, 0.25, rtol=1e-13)


@pytest.mark.parametrize("count", [1, 2, 4])
def test_simpson_weights_refuse_even_or_short_counts(count):
    with pytest.raises(ValueError, match="odd number of points >= 3"):
        potentials.simpson_weights(count, 0.5)


def test_fourier_integral_of_the_exponential_at_every_scale():
    # int_0^inf e^{-x} cos(wx) dx = 1/(1+w^2) and the sine one w/(1+w^2):
    # w = 0 and w = 1e-300 (no Ooura-Mori node reaches where e^{-x} lives)
    # take exp-sinh; the rest take Ooura-Mori
    omegas = np.array([0.0, 1e-300, 1e-8, 0.05, 1.0, 40.0, 1e4])
    for kind, exact in (("cos", 1.0 / (1.0 + omegas**2)), ("sin", omegas / (1.0 + omegas**2))):
        values, errors = potentials.fourier_integral(lambda x: np.exp(-x), omegas, kind, 1e-12)
        assert (np.abs(values - exact) <= errors).all()
        assert errors.max() <= 1e-12


def test_fourier_integral_retries_ooura_mori_from_level_one(monkeypatch):
    # a slow exponential e^{-cx}: for w up to about 0.3 the Ooura-Mori levels 0
    # and 1 and exp-sinh all miss 1e-12, so those w double Ooura-Mori from level 1
    starts = []
    doubled = potentials._doubled

    def recording(rule, integrand, scale, target, first=0, last=potentials.DE_LEVELS):
        starts.append((rule, first))
        return doubled(rule, integrand, scale, target, first, last)

    monkeypatch.setattr(potentials, "_doubled", recording)
    c = 1e-3
    omegas = np.geomspace(1e-4, 1e2, 121)
    values, errors = potentials.fourier_integral(lambda x: np.exp(-c * x), omegas, "cos", 1e-12)
    assert [first for rule, first in starts if rule is not potentials._exp_sinh] == [0, 1]
    assert (np.abs(values - c / (c**2 + omegas**2)) <= errors).all()


def test_poschl_teller_moment_integrals(pt1):
    # closed forms: int sech^2 = 2, int sech^4 = 4/3, int sech^6 = 16/15
    assert_allclose(potentials.signed_trace_power_integral(pt1, 1), -4.0, atol=1e-10)
    assert_allclose(potentials.signed_trace_power_integral(pt1, 2), 16.0 / 3.0, rtol=1e-10)
    assert_allclose(potentials.signed_trace_power_integral(pt1, 3), -128.0 / 15.0, rtol=1e-10)


def test_poschl_teller_derivative_square(pt1):
    # V = -2 sech^2 x gives int (V')^2 = 16 (4/3 - 16/15) = 64/15
    assert_allclose(potentials.derivative_square_integral(pt1), 64.0 / 15.0, rtol=1e-10)


def test_gaussian_derivative_square_closed_form():
    depth, width = 3.0, 1.4
    pot = potentials.build_family("gaussian", depth=depth, width=width)
    expected = depth**2 * math.sqrt(math.pi / 2.0) / width
    assert_allclose(potentials.derivative_square_integral(pot), expected, rtol=1e-9)


def test_gaussian_fractional_moment():
    depth, width = 2.0, 0.9
    pot = potentials.build_family("gaussian", depth=depth, width=width)
    got = potentials.trace_power_integral(pot, "minus", 1.5)
    expected = depth**1.5 * width * math.sqrt(math.pi / 1.5)
    assert_allclose(got, expected, rtol=1e-9)
    assert potentials.trace_power_integral(pot, "plus", 1.5) == 0.0


def test_trace_power_integral_rejects_small_power(pt1):
    with pytest.raises(ValueError):
        potentials.trace_power_integral(pt1, "minus", 0.25)
    with pytest.raises(ValueError):
        potentials.part_eigenvalues(pt1, "negative")


def test_part_values_reconstruct_and_annihilate(random_2x2):
    vp = potentials.part_values(random_2x2, "plus")
    vm = potentials.part_values(random_2x2, "minus")
    assert_allclose(vp - vm, random_2x2.values, atol=1e-12)
    assert np.linalg.eigvalsh(vp).min() >= -1e-12
    assert np.linalg.eigvalsh(vm).min() >= -1e-12
    # spectral parts commute and multiply to zero pointwise
    prod = np.einsum("xij,xjk->xik", vp, vm)
    assert np.abs(prod).max() < 1e-12


def test_square_well_profile():
    pot = potentials.build_family("square-well", depth=3.0, half_width=1.5)
    vals = pot.sample_at(np.array([0.0, 1.0, 1.5, 2.0]))[:, 0, 0].real
    assert_allclose(vals, [-3.0, -3.0, -1.5, 0.0])


def test_rank_one_narrow_projector_structure():
    pot = potentials.build_family("rank-one-narrow", integral=2.0, width=0.1)
    v0 = pot.sample_at(np.array([0.05]))[0]
    mu = np.linalg.eigvalsh(v0)
    assert_allclose(mu[0], -20.0, rtol=1e-12)
    assert_allclose(mu[1], 0.0, atol=1e-12)
    assert_allclose(potentials.trace_power_integral(pot, "minus", 1.0), 2.0, rtol=1e-12)


def test_random_smooth_is_seeded_and_hermitian():
    a = potentials.build_family("random-smooth", matrix_dim=2, seed=7)
    b = potentials.build_family("random-smooth", matrix_dim=2, seed=7)
    c = potentials.build_family("random-smooth", matrix_dim=2, seed=8)
    assert_allclose(a.values, b.values)
    assert np.abs(a.values - c.values).max() > 1e-3
    herm = np.abs(a.values - np.conj(np.swapaxes(a.values, 1, 2))).max()
    assert herm < 1e-12


def test_scale_and_negate(pt1):
    doubled = potentials.scale(pt1, 2.0)
    assert_allclose(doubled.values, 2.0 * pt1.values)
    assert_allclose(doubled.sample_at(np.array([0.3])), 2.0 * pt1.sample_at(np.array([0.3])))
    flipped = potentials.scale(pt1, -1.0)
    assert_allclose(flipped.values, -pt1.values)


def test_direct_sum_blocks(pt1):
    well = potentials.build_family("gaussian", depth=1.0, width=1.0)
    both = potentials.direct_sum(pt1, well)
    assert both.matrix_dim == 2
    x = np.array([0.0, 0.5])
    samp = both.sample_at(x)
    assert_allclose(samp[:, 0, 0], pt1.sample_at(x)[:, 0, 0])
    assert_allclose(samp[:, 1, 1], well.sample_at(x)[:, 0, 0])
    assert np.abs(samp[:, 0, 1]).max() == 0.0


def _fourth_order_difference(pot):
    """Central 4th-order difference of the samples, zero-padded past the window."""
    v = pot.values
    pad = np.zeros((2,) + v.shape[1:], dtype=complex)
    ext = np.concatenate([pad, v, pad], axis=0)
    i = np.arange(v.shape[0]) + 2
    return (-ext[i + 2] + 8 * ext[i + 1] - 8 * ext[i - 1] + ext[i - 2]) / (12 * pot.grid_step)


def test_derivative_samples_match_finite_difference(pt1):
    gaussian = potentials.build_family("gaussian", depth=2.0, width=1.0)
    for pot in (
        gaussian,
        potentials.scale(gaussian, 2.5),
        potentials.direct_sum(pt1, gaussian),
    ):
        d = pot.derivative_samples()
        assert d.shape == pot.values.shape
        assert_allclose(d, _fourth_order_difference(pot), rtol=0, atol=1e-6)


def test_nested_specs_build_like_their_parts(pt1):
    gaussian = {"family": "gaussian", "parameters": {"depth": 2.0, "width": 1.0}}
    scaled = {"family": "scaled", "parameters": {"base": gaussian, "coupling": 2.5}}
    pt = {"family": "poschl-teller", "parameters": {"nu": 1.0}}
    both = potentials.build({"family": "direct-sum", "parameters": {"blocks": [pt, scaled]}})
    reference = potentials.direct_sum(
        pt1, potentials.scale(potentials.build_family("gaussian", depth=2.0, width=1.0), 2.5)
    )
    assert both.grid_step == reference.grid_step
    assert np.array_equal(both.values, reference.values)
    assert np.array_equal(both.derivative_samples(), reference.derivative_samples())


def test_families_with_jumps_have_no_derivative(pt1):
    square = potentials.build_family("square-well", depth=2.0, half_width=1.0)
    narrow = potentials.build_family("rank-one-narrow", integral=2.0, width=0.1)
    for pot in (square, narrow, potentials.scale(square, 2.0), potentials.direct_sum(pt1, narrow)):
        assert pot.derivative_evaluator is None
        with pytest.raises(ValueError, match="V has jumps"):
            potentials.derivative_square_integral(pot)


def test_unknown_family_raises():
    with pytest.raises(ValueError, match="unknown family"):
        potentials.build_family("morse", depth=1.0)


def test_resolution_guard():
    with pytest.raises(ValueError, match="resolve"):
        potentials.build_family("gaussian", depth=1.0, width=1.0, grid_step=0.5)


def _zero(x):
    return np.zeros((np.size(x), 1, 1))


def test_support_must_sit_inside_window():
    vals = np.zeros((5, 1, 1))
    with pytest.raises(ValueError, match="support"):
        potentials.SampledPotential(
            grid_start=0.0,
            grid_step=0.1,
            values=vals,
            support=(0.0, 2.0),
            evaluator=_zero,
            derivative_evaluator=_zero,
        )


def test_hermiticity_guard():
    vals = np.zeros((5, 2, 2), dtype=complex)
    vals[:, 0, 1] = 1.0j
    vals[:, 1, 0] = 1.0j
    with pytest.raises(ValueError, match="Hermitian"):
        potentials.SampledPotential(
            grid_start=-1.0,
            grid_step=0.5,
            values=vals,
            support=(-1.0, 1.0),
            evaluator=_zero,
            derivative_evaluator=_zero,
        )
