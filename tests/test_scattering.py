import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltlab import potentials, scattering


@pytest.fixture(scope="module")
def square_well():
    return potentials.build_family("square-well", depth=3.0, half_width=1.5)


@pytest.fixture(scope="module")
def square_well_data(square_well):
    return scattering.compute_scattering(square_well, k_max=30.0, refine=2)


def test_square_well_matching_oracle(square_well):
    # closed form |A(k)|^2 = 1 + V0^2 sin^2(2qa) / (4 k^2 q^2), q = sqrt(k^2+V0)
    V0, a = 3.0, 1.5
    for k in (1.0, 2.0, 5.0):
        A, _ = scattering.jost_solve(square_well, k, refine=2)
        q = math.sqrt(k * k + V0)
        oracle = 1.0 + V0**2 * math.sin(2 * q * a) ** 2 / (4 * k * k * q * q)
        assert_allclose(abs(A[0, 0]) ** 2, oracle, rtol=1e-9)


def test_propagator_is_fourth_order():
    g = potentials.build_family("gaussian", depth=2.0, width=1.0)
    ref = scattering.jost_solve(g, 2.0, refine=4)[0][0, 0]
    e1 = abs(scattering.jost_solve(g, 2.0, refine=1)[0][0, 0] - ref)
    e2 = abs(scattering.jost_solve(g, 2.0, refine=2)[0][0, 0] - ref)
    assert e1 / e2 >= 8.0


def test_jost_solve_rejects_tiny_k(square_well):
    with pytest.raises(ValueError, match="at least"):
        scattering.jost_solve(square_well, 1e-5)


def test_poschl_teller_is_reflectionless(pt1_scattering):
    data = pt1_scattering
    assert np.abs(data.logdet).max() < 1e-12
    assert np.abs(data.b_pos).max() < 1e-6
    for value in (data.i0, data.i2, data.i4):
        assert abs(value) < 1e-9


def test_unitarity_and_positivity(square_well_data, pt1_scattering):
    for data in (square_well_data, pt1_scattering):
        rep = scattering.unitarity_audit(data)
        assert rep.passed
        assert rep.lhs < 1e-7
        floor, integrals = scattering.positivity_audit(data)
        assert floor.audit_tag == "logdet-floor"
        assert floor.passed
        assert integrals.audit_tag == "spectral-positivity"
        assert integrals.passed


def test_conjugation_symmetry(square_well, square_well_data, random_2x2):
    rep = scattering.conjugation_symmetry_check(square_well, square_well_data)
    assert rep is not None
    assert rep.passed
    # complex Hermitian entries break transpose symmetry, so +-k data are
    # independent and the check must decline to report
    gap = np.abs(scattering.data_values_transpose_gap(random_2x2)).max()
    assert gap > 1e-12
    assert scattering.conjugation_symmetry_check(random_2x2, square_well_data) is None


def test_trace_identities_reflectionless(pt1, pt1_spectrum, pt1_scattering):
    # single level at -1, vanishing k-integrals: targets are -1, 1, -1
    reports = scattering.trace_identity_audit(pt1, pt1_spectrum, pt1_scattering)
    assert [r.audit_tag for r in reports] == [
        "trace-identity-1",
        "trace-identity-2",
        "trace-identity-3",
    ]
    targets = (-1.0, 1.0, -1.0)
    for rep, target in zip(reports, targets):
        assert rep.passed
        assert_allclose(rep.lhs, target, atol=1e-9)
        assert_allclose(rep.rhs, target, atol=1e-3)
        assert rep.residual <= rep.provenance["budget"]


def test_scalar_closed_form_matches_coupled_path():
    # V + V has the scalar well's grid and support, so it takes the same
    # steps through the n = 2 LAPACK stage solve
    well = potentials.build_family("gaussian", depth=4.0, width=1.5)
    pair = potentials.direct_sum(well, well)
    single = scattering.compute_scattering(well, k_max=12.0)
    double = scattering.compute_scattering(pair, k_max=12.0)
    assert_allclose(double.k_grid, single.k_grid, rtol=0, atol=0)
    for name in ("a_pos", "b_pos", "a_neg", "b_neg"):
        scalar = getattr(single, name)[:, 0, 0]
        coupled = getattr(double, name)
        scale = np.abs(scalar).max()
        for i in range(2):
            assert_allclose(coupled[:, i, i], scalar, rtol=1e-12, atol=1e-12 * scale)
        assert np.all(coupled[:, 0, 1] == 0)
        assert np.all(coupled[:, 1, 0] == 0)
