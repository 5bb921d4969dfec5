import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltlab import birman_schwinger as bs
from ltlab import potentials, spectral1d


def test_rank_at_zero_decay(pt1):
    # e = 0 gives a Gram matrix of rank one whose single eigenvalue is the
    # trapezoid value of int (-V) = 4
    op = bs.build_L(pt1, 0.0)
    assert_allclose(op.eigenvalues[0], 4.0, rtol=1e-6)
    assert abs(op.eigenvalues[1]) < 1e-10 * op.eigenvalues[0]
    assert np.all(np.diff(op.eigenvalues) <= 1e-12)


def test_kernel_scaling_between_families():
    well = potentials.build_family("square-well", depth=3.0, half_width=1.5)
    direct = bs.build_K(well, 2.25)
    base = bs.build_L(well, 1.5)
    assert_allclose(direct.matrix, base.matrix / 3.0, atol=1e-14)
    assert direct.epsilon == 1.5


def test_unit_eigenvalue_at_bound_state(pt1, pt1_spectrum):
    rep = bs.birman_schwinger_audit(pt1, pt1_spectrum)
    assert rep.passed
    assert rep.lhs < 1e-4


def test_audit_rejects_bad_inputs(random_2x2, pt1, pt1_spectrum):
    with pytest.raises(ValueError, match="positive part"):
        bs.birman_schwinger_audit(random_2x2, pt1_spectrum)
    empty = spectral1d.NegativeSpectrum(
        energies=np.array([]), box_radius=5.0, num_interior=100, grid_step=0.1
    )
    with pytest.raises(ValueError, match="bound state"):
        bs.birman_schwinger_audit(pt1, empty)
    with pytest.raises(ValueError):
        bs.build_L(pt1, -0.5)
    with pytest.raises(ValueError):
        bs.build_K(pt1, 0.0)


def test_partial_sums_decrease_and_trace_stays(random_2x2):
    eps = np.array([0.0, 0.1, 1.0, 10.0])
    reports, profile = bs.monotonicity_audit(random_2x2, epsilons=eps, n_max=6)
    assert [r.audit_tag for r in reports] == [
        "kyfan-monotonicity",
        "kyfan-trace-constancy",
    ]
    assert all(r.passed for r in reports)
    scale = abs(profile.traces[0])
    assert np.all(np.diff(profile.partial_sums, axis=0) <= 1e-9 * scale)
    assert np.abs(profile.traces - profile.traces[0]).max() <= 1e-12 * scale
    # trapezoid trace tracks the Simpson integral of tr V_minus
    mass = potentials.trace_power_integral(random_2x2, "minus", 1.0)
    assert_allclose(profile.traces[0], mass, rtol=1e-4)


def test_kernel_is_positive_semidefinite(random_2x2):
    op = bs.build_L(random_2x2, 1.0)
    assert op.eigenvalues[-1] >= -1e-12 * max(op.eigenvalues[0], 1.0)


def test_profile_csv_shape():
    well = potentials.build_family("square-well", depth=3.0, half_width=1.5)
    profile = bs.kyfan_profile(well, epsilons=np.array([0.0, 1.0]), n_max=3)
    lines = profile.to_csv().strip().split("\n")
    assert lines[0] == "epsilon,s1,s2,s3,trace"
    assert len(lines) == 3


def test_cauchy_kernel_identity():
    rep = bs.cauchy_kernel_identity_check()
    assert rep.passed
    assert rep.lhs < 1e-6


def test_real_kernel_matches_complex_kernel():
    # U V U* has V's kernel eigenvalues, but complex samples send it through
    # the complex Hermitian path
    well = potentials.build_family(
        "random-smooth", matrix_dim=2, seed=0, real_valued=True
    )
    theta, phi = 0.7, 1.1
    u = np.array(
        [
            [np.cos(theta), -np.exp(-1j * phi) * np.sin(theta)],
            [np.exp(1j * phi) * np.sin(theta), np.cos(theta)],
        ]
    )
    turned = potentials.SampledPotential(
        grid_start=well.grid_start,
        grid_step=well.grid_step,
        values=u @ well.values @ u.conj().T,
        support=well.support,
        family_tag="conjugated",
    )
    for eps in (0.0, 1.0):
        real_op = bs.build_L(well, eps)
        complex_op = bs.build_L(turned, eps)
        assert real_op.matrix.dtype == np.float64
        assert complex_op.matrix.dtype == np.complex128
        tol = 1e-12 * real_op.trace
        assert abs(real_op.trace - complex_op.trace) <= tol
        assert np.abs(real_op.eigenvalues - complex_op.eigenvalues).max() <= tol
