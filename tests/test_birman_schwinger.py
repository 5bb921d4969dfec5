import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltlab import birman_schwinger as bs
from ltlab import potentials, runner, spectral1d


def test_rank_at_zero_decay(pt1):
    # e = 0 gives a Gram matrix of rank one whose single eigenvalue is the
    # trapezoid value of int (-V) = 4
    op = bs.build_L(pt1, 0.0)
    assert_allclose(op.eigenvalues[0], 4.0, rtol=1e-6)
    assert abs(op.eigenvalues[1]) < 1e-10 * op.eigenvalues[0]
    assert np.all(np.diff(op.eigenvalues) <= 1e-12)


def test_kernel_scaling_between_families():
    well = potentials.build_family("square-well", depth=3.0, half_width=1.5)
    # K at E = 2.25 is L at sqrt(E) = 1.5 divided by 2 sqrt(E) = 3, on both grids
    fine = bs.build_L(well, 1.5).eigenvalues / 3.0
    coarse = bs.build_L(well, 1.5, stride=2).eigenvalues / 3.0
    for rank in range(3):
        expected = fine[rank] + (fine[rank] - coarse[rank]) / 3.0
        assert_allclose(bs.eigenvalue_at_energy(well, 2.25, rank), expected, rtol=1e-12)


def test_unit_eigenvalue_at_bound_state(pt1, pt1_spectrum):
    rep = bs.birman_schwinger_audit(pt1, pt1_spectrum)
    assert rep.passed
    assert rep.lhs < 1e-4


def test_audit_rejects_bad_inputs(random_2x2, pt1, pt1_spectrum):
    with pytest.raises(ValueError, match="positive part"):
        bs.birman_schwinger_audit(random_2x2, pt1_spectrum)
    empty = spectral1d.NegativeSpectrum(energies=np.array([]), num_interior=100)
    with pytest.raises(ValueError, match="bound state"):
        bs.birman_schwinger_audit(pt1, empty)
    with pytest.raises(ValueError):
        bs.build_L(pt1, -0.5)
    with pytest.raises(ValueError, match="energy must be positive"):
        bs.eigenvalue_at_energy(pt1, 0.0, 0)


def test_partial_sums_decrease_and_trace_stays(random_2x2):
    eps = np.array([0.0, 0.1, 1.0, 10.0])
    reports, columns = bs.monotonicity_audit(random_2x2, epsilons=eps, n_max=6)
    assert [r.audit_tag for r in reports] == [
        "kyfan-monotonicity",
        "kyfan-trace-constancy",
    ]
    assert all(r.passed for r in reports)
    assert_allclose(columns["epsilon"], eps)
    sums = np.column_stack([columns[f"s{k}"] for k in range(1, 7)])
    traces = columns["trace"]
    scale = abs(traces[0])
    assert np.all(np.diff(sums, axis=0) <= 1e-9 * scale)
    assert np.abs(traces - traces[0]).max() <= 1e-12 * scale
    # trapezoid trace tracks the Simpson integral of tr V_minus
    mass = potentials.trace_power_integral(random_2x2, "minus", 1.0)
    assert_allclose(traces[0], mass, rtol=1e-4)


def test_kernel_is_positive_semidefinite():
    # every eigenvalue, on a coupled well coarse enough to ask for all of them
    well = potentials.build_family(
        "random-smooth", matrix_dim=2, seed=0, grid_step=0.0625
    )
    size = bs.build_L(well, 1.0, top=1).size
    op = bs.build_L(well, 1.0, top=size)
    assert op.eigenvalues.size == size
    assert op.eigenvalues[-1] >= -1e-12 * max(op.eigenvalues[0], 1.0)


def test_profile_csv_shape():
    well = potentials.build_family("square-well", depth=3.0, half_width=1.5)
    _, columns = bs.monotonicity_audit(well, epsilons=np.array([0.0, 1.0]), n_max=3)
    lines = runner._columns_csv(columns).strip().split("\n")
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
        evaluator=lambda x: u @ well.evaluator(x) @ u.conj().T,
        derivative_evaluator=lambda x: u @ well.derivative_evaluator(x) @ u.conj().T,
    )
    for eps in (0.0, 1.0):
        real_op = bs.build_L(well, eps)
        complex_op = bs.build_L(turned, eps)
        # matrix holds the diagonal factor blocks A_i, one per support node,
        # not a kernel matrix
        a, b = well.support
        blocks = (int(((well.grid >= a - 1e-12) & (well.grid <= b + 1e-12)).sum()), 2, 2)
        assert real_op.matrix.shape == complex_op.matrix.shape == blocks
        assert real_op.matrix.dtype == np.float64
        assert complex_op.matrix.dtype == np.complex128
        tol = 1e-12 * real_op.trace
        assert abs(real_op.trace - complex_op.trace) <= tol
        assert np.abs(real_op.eigenvalues - complex_op.eigenvalues).max() <= tol


def _dense_kernel(potential, epsilon, stride=1):
    """Eigenvalues (descending) and trace of the assembled kernel matrix."""
    neg = potentials.part_values(potential, "minus")
    idx, pts, w = bs._restriction_grid(potential, neg, stride)
    a = np.sqrt(w)[:, None, None] * bs._psd_sqrt(neg[idx])
    kern = np.exp(-epsilon * np.abs(pts[:, None] - pts[None, :]))
    m, n = pts.size, potential.matrix_dim
    big = np.einsum("ij,iab,jbc->iajc", kern, a, a).reshape(m * n, m * n)
    big = 0.5 * (big + big.conj().T)
    return np.linalg.eigvalsh(big)[::-1], float(np.trace(big).real)


def _assert_matches_dense(potential, epsilon, top, stride=1):
    op = bs.build_L(potential, epsilon, stride, top=top)
    dense, trace = _dense_kernel(potential, epsilon, stride)
    tol = 1e-12 * trace
    assert op.size == dense.size
    assert op.eigenvalues.size == min(top, dense.size)
    assert abs(op.trace - trace) <= tol
    assert np.abs(op.eigenvalues - dense[: op.eigenvalues.size]).max() <= tol
    return op


def _small_well(coefficients, support):
    """V = sum_p b^p C_p with b(x) = -exp(-(x - 2)^2), zero outside support,
    on the 9-point grid 0, 0.5, ..., 4; coefficients maps p to C_p."""

    def well(derivative):
        def f(x):
            x = np.asarray(x, float)
            b = -np.exp(-((x - 2.0) ** 2))
            db = -2.0 * (x - 2.0) * b
            out = sum(
                (p * b ** (p - 1) * db if derivative else b**p)[:, None, None] * np.asarray(c)
                for p, c in coefficients.items()
            )
            inside = (x >= support[0]) & (x <= support[1])
            return np.where(inside[:, None, None], out, 0.0)

        return f

    return potentials.SampledPotential(
        grid_start=0.0, grid_step=0.5, values=well(False)(0.5 * np.arange(9)),
        support=support, evaluator=well(False), derivative_evaluator=well(True),
    )


@pytest.fixture(scope="module")
def coarse_pt2():
    # the dense references stay small on a 0.05 grid
    return potentials.build_family("poschl-teller", nu=2.0, grid_step=0.05)


@pytest.mark.parametrize("epsilon", [0.0, 1e-3, 1.0, 100.0])
@pytest.mark.parametrize("stride", [1, 2])
def test_structured_kernel_matches_dense_scalar(coarse_pt2, epsilon, stride):
    _assert_matches_dense(coarse_pt2, epsilon, top=10, stride=stride)


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 10.0])
def test_structured_kernel_matches_dense_complex(random_2x2, epsilon):
    op = _assert_matches_dense(random_2x2, epsilon, top=6)
    assert op.matrix.dtype == np.complex128


@pytest.fixture
def lanczos_shapes(monkeypatch):
    """Shapes of the factor blocks each Lanczos solve is handed."""
    shapes = []
    solve = bs._leading_eigenvalues

    def spy(a, pts, epsilon, top):
        shapes.append(a.shape)
        return solve(a, pts, epsilon, top)

    monkeypatch.setattr(bs, "_leading_eigenvalues", spy)
    return shapes


def test_repeated_eigenvalues_take_the_channel_path(coarse_pt2, lanczos_shapes):
    # V + V doubles every eigenvalue; Lanczos on the coupled operator could
    # keep one copy, so each channel is solved on its own scalar operator
    doubled = potentials.direct_sum(coarse_pt2, coarse_pt2)
    op = _assert_matches_dense(doubled, 0.5, top=8)
    m = op.matrix.shape[0]
    assert lanczos_shapes == [(m, 1, 1), (m, 1, 1)]
    assert np.abs(op.eigenvalues[0::2] - op.eigenvalues[1::2]).max() <= 1e-12 * op.trace
    single = bs.build_L(coarse_pt2, 0.5, top=4)
    assert_allclose(op.eigenvalues[0::2], single.eigenvalues, rtol=0, atol=1e-12 * op.trace)


def test_vanishing_negative_part_gives_zeros(coarse_pt2):
    # V + (-V): the second channel has no negative part at all, and a
    # positive well has none anywhere; both null spaces are exact zeros
    lifted = potentials.scale(coarse_pt2, -1.0)
    both = potentials.direct_sum(coarse_pt2, lifted)
    op = _assert_matches_dense(both, 1.0, top=6)
    assert_allclose(op.eigenvalues, bs.build_L(coarse_pt2, 1.0, top=6).eigenvalues)
    empty = bs.build_L(lifted, 1.0, top=6)
    assert np.all(empty.eigenvalues == 0.0) and empty.eigenvalues.size == 6
    assert empty.trace == 0.0


def test_zero_decay_is_the_gram_matrix(random_2x2, lanczos_shapes):
    op = _assert_matches_dense(random_2x2, 0.0, top=5)
    assert lanczos_shapes == []
    assert np.all(op.eigenvalues[2:] == 0.0)


@pytest.mark.parametrize("epsilon", [0.0, 0.7])
def test_small_operators_give_every_eigenvalue(epsilon, lanczos_shapes):
    # fewer rows than top + 2: ARPACK cannot take every wanted eigenvalue
    mix = np.array([[1.0, 0.4 - 0.3j], [0.4 + 0.3j, 0.8]])
    turn = np.array([[0.5, 0.2j], [-0.2j, -0.1]])
    scalar = _small_well({1: [[1.0]]}, (0.4, 3.6))  # 7 rows
    single = _small_well({1: [[1.0]]}, (1.9, 2.1))  # 1 row
    coupled = _small_well({1: mix, 2: turn}, (1.4, 2.6))  # 6 rows
    for well in (scalar, single, coupled):
        _assert_matches_dense(well, epsilon, top=8)
    if epsilon > 0:
        assert lanczos_shapes == [(7, 1, 1), (1, 1, 1), (3, 2, 2)]


def test_kyfan_on_a_direct_sum_of_unlike_wells():
    # Gaussian(3, 1) + Poschl-Teller(2) on the shared 0.02 grid: 3542 rows,
    # twelve default decay rates
    both = potentials.direct_sum(
        potentials.build_family("gaussian", depth=3.0, width=1.0),
        potentials.build_family("poschl-teller", nu=2.0),
    )
    assert both.grid_step == 0.02
    reports, columns = bs.monotonicity_audit(both)
    assert columns["epsilon"].size == 12
    assert all(r.passed for r in reports)
