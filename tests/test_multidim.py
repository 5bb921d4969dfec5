import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from ltlab import multidim

BOX = 8.0
DEPTH = 8.0
WIDTH = 1.2


@pytest.fixture(scope="module")
def well():
    return multidim.gaussian_well_2d(DEPTH, WIDTH)


@pytest.fixture(scope="module")
def well_spectrum(well):
    op = multidim.build_operator_2d(well, BOX, 32)
    return multidim.negative_spectrum_2d(op)


def test_separable_spectrum_is_kronecker_sum():
    # V(x,y) = v(x) + v(y) on the same grid: the 5-point operator splits into
    # two tridiagonal problems, so every 2D level is a pairwise sum
    m = 24
    h = 2.0 * BOX / (m + 1)
    x = -BOX + h * (1 + np.arange(m))
    v = -6.0 * np.exp(-(x**2))
    one_d = eigh_tridiagonal(v + 2.0 / h**2, np.full(m - 1, -1.0 / h**2))[0]
    sums = (one_d[:, None] + one_d[None, :]).ravel()
    expected = np.sort(-sums[sums < -multidim.ENERGY_EDGE_THRESHOLD])[::-1]

    op = multidim.build_operator_2d(
        lambda X, Y: -6.0 * np.exp(-(X**2)) - 6.0 * np.exp(-(Y**2)), BOX, m
    )
    spec = multidim.negative_spectrum_2d(op)
    assert spec.count == expected.size
    assert_allclose(spec.energies, expected, atol=1e-10)


def test_radial_degeneracy_is_exact_on_the_grid(well_spectrum):
    assert well_spectrum.count >= 3
    # the two first excited states map onto each other under x <-> y
    assert abs(well_spectrum.energies[1] - well_spectrum.energies[2]) < 1e-10


def test_refined_spectrum_metadata(well):
    spec = multidim.refined_negative_spectrum_2d(well, BOX, 16)
    assert spec.dimension == 2
    assert spec.extrapolated
    assert spec.count >= 1


def test_plane_moment_integral_closed_form(well):
    # int (D exp(-r^2/w^2))^(g+1) over the plane = pi w^2 D^(g+1)/(g+1)
    for gamma in (0.75, 1.0, 1.5):
        got = multidim.plane_moment_integral(well, BOX, gamma)
        expected = np.pi * WIDTH**2 * DEPTH ** (gamma + 1.0) / (gamma + 1.0)
        assert_allclose(got, expected, rtol=1e-8)


def test_lt_audit_2d_passes_and_guards(well, well_spectrum):
    # the audit needs the extrapolated spectrum: a bare coarse grid carries
    # no error budget and its Riesz mean overshoots the integral side
    refined = multidim.refined_negative_spectrum_2d(well, BOX, 24)
    rep = multidim.lt_audit_2d(well, refined, 1.5, BOX)
    assert rep.audit_tag == "lt-2d"
    assert rep.passed
    with pytest.raises(ValueError):
        multidim.lt_audit_2d(well, well_spectrum, 0.4, BOX)
    with pytest.raises(ValueError):
        multidim.lt_audit_2d(well, well_spectrum, 1.0, BOX, magnetic=True)


def test_magnetic_field_lifts_the_levels(well):
    base = multidim.negative_spectrum_2d(multidim.build_operator_2d(well, BOX, 24))
    shifted = multidim.negative_spectrum_2d(
        multidim.build_operator_2d(
            well, BOX, 24, vector_potential=multidim.constant_field(1.0)
        )
    )
    assert shifted.energies[0] < base.energies[0]


def test_gauge_invariance(well):
    reports = multidim.gauge_invariance_check(well, BOX, 16)
    assert [r.audit_tag for r in reports] == ["gauge-invariance", "gauge-zero-field"]
    assert all(r.passed for r in reports)
    assert reports[0].lhs < 1e-8


def test_zero_field_reduces_to_real_operator(well):
    plain = multidim.build_operator_2d(well, BOX, 16)
    zero = multidim.build_operator_2d(
        well, BOX, 16, vector_potential=multidim.constant_field(0.0)
    )
    assert not zero.is_magnetic
    a, b = plain.to_sparse(), zero.to_sparse()
    assert (a != b).nnz == 0
    assert a.dtype == b.dtype


def test_diamagnetic_trend(well):
    rep = multidim.diamagnetic_trend_check(well, BOX, 20)
    assert rep.audit_tag == "diamagnetic-trend"
    assert rep.passed


def test_lifting_inequality_states(well):
    # full rank: the compressed comparison operator is unitarily equivalent
    # to the original, so the inequality holds with no spillover allowance
    full = multidim.lifting_inequality_audit(well, BOX, 24, 1.5, 24)
    assert full.audit_tag == "lifting-2d"
    assert full.passed
    assert full.lhs <= full.rhs * (1.0 + 1e-9) + 1e-9
    # truncation may land in the allowance band but must never hard-fail
    small = multidim.lifting_inequality_audit(well, BOX, 24, 1.5, 4)
    assert small.passed or small.inconclusive


def test_lifting_comparison_deepens_with_rank(well):
    rhs = [
        multidim.lifting_inequality_audit(well, BOX, 24, 1.0, r).rhs
        for r in (4, 12, 24)
    ]
    assert rhs[0] <= rhs[1] * (1.0 + 1e-12)
    assert rhs[1] <= rhs[2] * (1.0 + 1e-12)


def test_grid_operator_validation(well):
    with pytest.raises(ValueError):
        multidim.build_operator_2d(well, BOX, 6)
    with pytest.raises(ValueError):
        multidim.build_operator_2d(well, BOX, multidim.GRID_CAP + 1)
    with pytest.raises(ValueError):
        multidim.GridOperator2D(
            box_radius=BOX,
            num_interior=10,
            potential_values=np.zeros((10, 9)),
            theta_x=None,
            theta_y=None,
        )
    with pytest.raises(ValueError):
        multidim.GridOperator2D(
            box_radius=BOX,
            num_interior=10,
            potential_values=np.zeros((10, 10)),
            theta_x=np.zeros((10, 10)),
            theta_y=None,
        )
    with pytest.raises(ValueError, match="gauge"):
        multidim.constant_field(1.0, gauge="coulomb")


def test_separable_well_requires_scalar_base():
    from ltlab import potentials

    base = potentials.build_family("random-smooth", matrix_dim=2, seed=3)
    with pytest.raises(ValueError):
        multidim.separable_well_2d(base)
    scalar = potentials.build_family("gaussian", depth=2.0, width=1.0)
    f = multidim.separable_well_2d(scalar)
    X, Y = np.meshgrid([0.0, 0.5], [0.0, 0.5], indexing="ij")
    vals = np.asarray(f(X, Y))
    line = scalar.sample_at(np.array([0.0, 0.5]))[:, 0, 0].real
    assert_allclose(vals, line[:, None] + line[None, :])


def test_inertia_count_matches_dense_count_on_a_magnetic_grid(well):
    from ltlab import spectral1d

    op = multidim.build_operator_2d(well, BOX, 24, multidim.constant_field(1.0))
    mat = op.to_sparse()
    count, cut = spectral1d._inertia_count(mat, multidim.ENERGY_EDGE_THRESHOLD)
    dense = np.linalg.eigvalsh(op.to_dense())
    assert cut == multidim.ENERGY_EDGE_THRESHOLD
    assert count == int((dense <= -cut).sum()) >= 2
    assert count == multidim.negative_spectrum_2d(op).count
