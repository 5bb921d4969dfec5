import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal

from ltlab import multidim, potentials, runner, spectral1d

BOX = 8.0
DEPTH = 8.0
WIDTH = 1.2


@pytest.fixture(scope="module")
def well():
    return multidim.gaussian_well_2d(DEPTH, WIDTH)


def solve(well, num_interior, box=BOX):
    return multidim.negative_spectrum_2d(
        multidim.build_operator_2d(well, box, num_interior)
    )


def refined_spectrum(num_interior):
    """The runner's Richardson-paired planar spectrum of the Gaussian well."""
    ctx = runner.ScenarioContext(runner.Scenario(
        name="plane", audits=("lt-2d",),
        options={
            "well": {"kind": "gaussian", "depth": DEPTH, "width": WIDTH},
            "box_radius": BOX,
            "num_interior": num_interior,
        },
    ))
    return ctx.spectrum_2d(False)


@pytest.fixture(scope="module")
def well_spectrum(well):
    return solve(well, 32)


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


def test_refined_spectrum_metadata():
    spec = refined_spectrum(16)
    assert spec.dimension == 2
    assert spec.extrapolated
    assert spec.count >= 1
    assert spec.num_interior == 33


def test_plane_moment_integral_closed_form(well):
    # int (D exp(-r^2/w^2))^(g+1) over the plane = pi w^2 D^(g+1)/(g+1)
    for gamma in (0.75, 1.0, 1.5):
        got = multidim.plane_moment_integral(well, BOX, gamma)
        expected = np.pi * WIDTH**2 * DEPTH ** (gamma + 1.0) / (gamma + 1.0)
        assert_allclose(got, expected, rtol=1e-8)


def test_lt_audit_2d_passes_and_guards(well, well_spectrum):
    # the audit needs the extrapolated spectrum: a bare coarse grid carries
    # no error budget and its Riesz mean overshoots the integral side
    refined = refined_spectrum(24)
    rep = multidim.lt_audit_2d(well, refined, 1.5, BOX)
    assert rep.audit_tag == "lt-2d"
    assert rep.passed
    with pytest.raises(ValueError):
        multidim.lt_audit_2d(well, well_spectrum, 0.4, BOX)
    with pytest.raises(ValueError):
        multidim.lt_audit_2d(well, well_spectrum, 1.0, BOX, magnetic=True)


def test_magnetic_field_lifts_the_levels(well):
    base = solve(well, 24)
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
    plain = solve(well, 20)
    magnetic = multidim.negative_spectrum_2d(
        multidim.build_operator_2d(well, BOX, 20, multidim.constant_field(1.0))
    )
    rep = multidim.diamagnetic_trend_check(plain, magnetic)
    assert rep.audit_tag == "diamagnetic-trend"
    assert rep.passed
    assert rep.lhs == magnetic.riesz_mean(1.5)
    assert rep.rhs == plain.riesz_mean(1.5)


def test_lifting_inequality_states(well):
    # the comparison lies below the planar operator exactly, so the audit
    # passes up to roundoff and a miss can only be a failure
    rep = multidim.lifting_inequality_audit(well, BOX, 24, 1.5, solve(well, 24))
    assert rep.audit_tag == "lifting-2d"
    assert rep.passed and not rep.inconclusive
    assert rep.tolerance == 1e-9
    assert 0 < rep.provenance["channels"] < 24
    # min-max: the comparison has at least as many levels as the plane
    assert rep.provenance["levels_1d"] >= rep.provenance["levels_2d"] >= 3
    deeper = solve(multidim.gaussian_well_2d(2.0 * DEPTH, WIDTH), 24)
    miss = multidim.lifting_inequality_audit(well, BOX, 24, 1.5, deeper)
    assert not miss.passed and not miss.inconclusive
    assert miss.residual < 0


def uncompressed_comparison_mean(well, box, m, gamma):
    """Riesz mean of T_y (x) I - (+)_j W_-(y_j), assembled densely on the grid."""
    op = multidim.build_operator_2d(well, box, m)
    h = op.grid_step
    kinetic = (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)) / h**2
    full = np.kron(kinetic, np.eye(m))
    for j in range(m):
        mu, vecs = np.linalg.eigh(kinetic + np.diag(op.potential_values[:, j]))
        w_minus = (vecs * np.maximum(-mu, 0.0)) @ vecs.T
        full[j * m:(j + 1) * m, j * m:(j + 1) * m] -= w_minus
    vals = np.linalg.eigvalsh(full)
    levels = -vals[vals <= -multidim.ENERGY_EDGE_THRESHOLD]
    return float((levels**gamma).sum())


@pytest.mark.parametrize("kind", ["gaussian", "separable"])
def test_lifting_rhs_is_the_uncompressed_comparison(well, kind):
    if kind == "gaussian":
        plane, box, gamma = well, BOX, 1.5
    else:
        base = potentials.build_family("gaussian", depth=6.0, width=1.0)
        plane, box, gamma = multidim.separable_well_2d(base), 7.0, 1.0
    rep = multidim.lifting_inequality_audit(plane, box, 24, gamma, solve(plane, 24, box))
    expected = uncompressed_comparison_mean(plane, box, 24, gamma)
    assert_allclose(rep.rhs, expected, rtol=1e-12, atol=0)
    assert rep.passed


def test_lifting_without_slice_levels_solves_nothing(monkeypatch):
    # so shallow and narrow that no slice binds: the span S is empty
    shallow = multidim.gaussian_well_2d(0.01, 0.5)
    spectrum = solve(shallow, 16)
    assert spectrum.count == 0

    def no_solve(*args, **kwargs):
        raise AssertionError("an empty span needs no 1D solve")

    monkeypatch.setattr(spectral1d, "negative_spectrum", no_solve)
    rep = multidim.lifting_inequality_audit(shallow, BOX, 16, 1.0, spectrum)
    assert rep.lhs == rep.rhs == 0.0
    assert rep.passed
    assert rep.provenance["channels"] == 0
    assert rep.provenance["levels_1d"] == 0


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
    op = multidim.build_operator_2d(well, BOX, 24, multidim.constant_field(1.0))
    mat = op.to_sparse()
    count, cut = spectral1d._inertia_count(mat, multidim.ENERGY_EDGE_THRESHOLD)
    dense = np.linalg.eigvalsh(op.to_dense())
    assert cut == multidim.ENERGY_EDGE_THRESHOLD
    assert count == int((dense <= -cut).sum()) >= 2
    assert count == multidim.negative_spectrum_2d(op).count


def test_magnetic_levels_from_the_placed_shift_match_the_dense_solve(well):
    # two dense LAPACK drivers differ by about 12 eps ||A||_1 on this grid
    # (complex Hermitian against its real symmetric embedding), so the bound
    # leaves room for the reference's own roundoff
    op = multidim.build_operator_2d(well, BOX, 24, multidim.constant_field(1.0))
    mat = op.to_sparse()
    full = np.linalg.eigvalsh(op.to_dense())
    expected = np.sort(-full[full <= -multidim.ENERGY_EDGE_THRESHOLD])[::-1]
    spec = multidim.negative_spectrum_2d(op)
    assert spec.count == expected.size >= 2
    roundoff = spectral1d._pivot_guard(mat)  # eps * ||A||_1
    assert_allclose(spec.energies, expected, rtol=0, atol=32 * roundoff)
    # and the shift it ran from is certified below the ground level
    factor_at = spectral1d._ldlt(mat, roundoff)
    _, cut = spectral1d._inertia_count(mat, multidim.ENERGY_EDGE_THRESHOLD)
    floor = float(op.potential_values.min()) - 0.1
    sigma, _ = spectral1d._placed_shift(factor_at, floor, cut)
    assert factor_at(-sigma)[0] == 0
    assert floor <= sigma < full[0]
