import dataclasses
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


def _a_at(potential, k, refine):
    """A(k) of a scalar well from a one-point batch."""
    return scattering._solve_batch(potential, np.array([k]), refine)[0][0, 0, 0]


def test_square_well_matching_oracle(square_well):
    # closed form |A(k)|^2 = 1 + V0^2 sin^2(2qa) / (4 k^2 q^2), q = sqrt(k^2+V0)
    V0, a = 3.0, 1.5
    for k in (1.0, 2.0, 5.0):
        A = _a_at(square_well, k, 2)
        q = math.sqrt(k * k + V0)
        oracle = 1.0 + V0**2 * math.sin(2 * q * a) ** 2 / (4 * k * k * q * q)
        assert_allclose(abs(A) ** 2, oracle, rtol=1e-9)


def test_propagator_is_fourth_order():
    g = potentials.build_family("gaussian", depth=2.0, width=1.0)
    ref = _a_at(g, 2.0, 4)
    e1 = abs(_a_at(g, 2.0, 1) - ref)
    e2 = abs(_a_at(g, 2.0, 2) - ref)
    assert e1 / e2 >= 8.0


@pytest.mark.parametrize("cap, refine", [(scattering.K_CAP, 1), (scattering.K_CAP, 2),
                                         (scattering.K_CAP, 3), (12.05, 1)])
def test_k_plan_segments(cap, refine):
    nominal = (scattering.FINE_STEP, scattering.MID_STEP, scattering.COARSE_STEP)
    k, segments = scattering._k_plan(cap, refine)
    assert k[0] == scattering.K_MIN and np.all(np.diff(k) > 0)
    assert [s[2] for s in segments] == [step / refine for step in nominal]
    assert segments[0][0] == 0 and segments[-1][1] == k.size - 1
    for (_, last, _, _), (first, _, _, _) in zip(segments, segments[1:]):
        assert first == last
    for first, last, step, chunk in segments:
        assert (last - first) % 2 == 0
        assert_allclose(np.diff(k[first : last + 1]), step, rtol=1e-9)
    # the fine and mid segments go as one batch, the coarse one in chunks
    assert [s[3] for s in segments[:2]] == [s[1] - s[0] + 1 for s in segments[:2]]
    assert segments[2][3] == scattering.COARSE_CHUNK
    assert k[segments[0][1]] >= scattering.FINE_END
    assert k[segments[1][1]] >= scattering.MID_END
    assert k[-1] >= cap


def test_k_plan_below_the_fine_end_is_one_segment():
    k, segments = scattering._k_plan(2.004, 1)
    assert segments == [(0, k.size - 1, scattering.FINE_STEP, k.size)]
    assert k.size % 2 == 1 and k[-1] >= 2.004
    with pytest.raises(ValueError, match="empty wavenumber grid"):
        scattering._k_plan(scattering.K_MIN, 1)


def test_tail_stop():
    small, big = 0.0, 1.0
    run = scattering.TAIL_RUN
    logdet = np.array([big] * 10 + [small] * (run - 1) + [big] + [small] * run + [big])
    # the first full run ends at index end; split between two batches, it is
    # found once the batch that holds its end is in, wherever that batch ends
    end = 9 + 2 * run
    assert scattering._tail_stop(logdet[: end - 2], 0) is None
    assert scattering._tail_stop(logdet[:end], 0) is None
    for prefix in range(end + 1, logdet.size + 1):
        assert scattering._tail_stop(logdet[:prefix], 0) == end
    # a run that ends before earliest is ignored; one that goes on past it counts
    early = np.array([small] * run + [big] * 5)
    assert scattering._tail_stop(early, run) is None
    assert scattering._tail_stop(np.full(12, small), 7) == 7
    assert scattering._tail_stop(np.full(12, big), 0) is None
    assert scattering._tail_stop(np.full(run - 1, small), 0) is None


def test_adaptive_stop_keeps_an_even_final_run_inside_the_budget():
    # this well's first stop leaves its coarse segment an odd interval count;
    # the kept grid ends one sample earlier, where the tail bound takes over
    g = potentials.build_family("gaussian", depth=4.0, width=0.3)
    data = scattering.compute_scattering(g, refine=1)
    _, segments = scattering._k_plan(scattering.K_CAP, 1)
    last = data.k_grid.size - 1
    first = max(f for f, *_ in segments if f <= last)
    assert last > first and (last - first) % 2 == 0
    finer = scattering.compute_scattering(g, refine=2)
    values = data.integral_details["values"]
    assert data.integral_details["errors"][4] >= abs(
        values[4] - finer.integral_details["values"][4]
    )


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
    gap = np.abs(random_2x2.values - np.swapaxes(random_2x2.values, 1, 2)).max()
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
    # steps through the n = 2 LAPACK stage solve, which propagates the -k
    # columns on their own; the scalar path fills them in by conjugation.
    # The even Gaussian takes the scalar mirror path (half the steps and two
    # Wronskians), so it is checked against the full n = 2 propagation
    even = potentials.build_family("gaussian", depth=4.0, width=1.5)
    lopsided = potentials.build_family(
        "random-smooth", matrix_dim=1, seed=3, real_valued=True,
        support_radius=2.0, modes=3, grid_step=0.05,
    )
    x = np.linspace(0.3, 1.5, 5)
    assert np.abs(lopsided.sample_at(x) - lopsided.sample_at(-x)).max() > 0.5
    for well, k_max, refine in ((even, 12.0, 1), (lopsided, 8.0, 1), (lopsided, 8.0, 2)):
        pair = potentials.direct_sum(well, well)
        single = scattering.compute_scattering(well, k_max=k_max, refine=refine)
        double = scattering.compute_scattering(pair, k_max=k_max, refine=refine)
        assert_allclose(double.k_grid, single.k_grid, rtol=0, atol=0)
        for name in ("a_pos", "b_pos", "a_neg", "b_neg"):
            scalar = getattr(single, name)[:, 0, 0]
            coupled = getattr(double, name)
            scale = np.abs(scalar).max()
            for i in range(2):
                assert_allclose(coupled[:, i, i], scalar, rtol=1e-12, atol=1e-12 * scale)
            assert np.all(coupled[:, 0, 1] == 0)
            assert np.all(coupled[:, 1, 0] == 0)


def _two_sign_reference(potential, k, step_target):
    """Both signs of k carried as four real rows, a fresh array per operation."""
    a, b = potential.support
    ns = max(1, int(math.ceil((b - a) / step_target)))
    s = -(b - a) / ns
    x_steps = b + s * np.arange(ns)
    v1 = potential.sample_at(x_steps + scattering._C1 * s)[:, 0, 0].real
    v2 = potential.sample_at(x_steps + scattering._C2 * s)[:, 0, 0].real
    cc, d1, d2 = scattering._CC, scattering._D1, scattering._D2
    phase = np.exp(1j * k * b)
    f = np.stack([phase, np.conj(phase)])
    fp = np.stack([1j * k * phase, -1j * k * np.conj(phase)])
    top = np.concatenate([f.real, f.imag])[[0, 2, 1, 3]]
    bot = np.concatenate([fp.real, fp.imag])[[0, 2, 1, 3]]
    k2 = k * k
    s2 = s * s
    for j in range(ns):
        w1 = v1[j] - k2
        w2 = v2[j] - k2
        g11 = 1.0 - s2 * cc[0][0] * w1
        g12 = -s2 * cc[0][1] * w2
        g21 = -s2 * cc[1][0] * w1
        g22 = 1.0 - s2 * cc[1][1] * w2
        det = g11 * g22 - g12 * g21
        r1 = top + (s * scattering._C1) * bot
        r2 = top + (s * scattering._C2) * bot
        p1 = (w1 / det) * (g22 * r1 - g12 * r2)
        p2 = (w2 / det) * (g11 * r2 - g21 * r1)
        top = top + s * bot
        top = top + s2 * (d1 * p1 + d2 * p2)
        bot = bot + (0.5 * s) * (p1 + p2)
    # rows: Re F(+k), Im F(+k), Re F(-k), Im F(-k)
    return top[0::2] + 1j * top[1::2], bot[0::2] + 1j * bot[1::2]


def test_scalar_steps_equal_the_two_sign_reference():
    # one +k solution, conjugated for -k and updated in place, gives the
    # same bits as propagating both signs with the same stage algebra
    well = potentials.build_family(
        "random-smooth", matrix_dim=1, seed=3, real_valued=True,
        support_radius=2.0, modes=3, grid_step=0.05,
    )
    k = np.linspace(0.05, 9.0, 37)
    for step in (0.05, 0.013):
        y_top, y_bot = scattering._propagate(well, k, step)
        f, fp = _two_sign_reference(well, k, step)
        for sign in range(2):
            assert np.array_equal(y_top[:, 0, sign], f[sign])
            assert np.array_equal(y_bot[:, 0, sign], fp[sign])


# even wells, each with its Jost refine and k_max (None: adaptive stop)
MIRROR_WELLS = {
    "poschl-teller-1": (lambda: potentials.build_family("poschl-teller", nu=1.0), 2, None),
    "poschl-teller-3": (lambda: potentials.build_family("poschl-teller", nu=3.0), 2, None),
    "gaussian": (lambda: potentials.build_family("gaussian", depth=4.0, width=1.5), 1, 12.0),
    "square-well": (
        lambda: potentials.build_family("square-well", depth=3.0, half_width=1.5), 2, 30.0
    ),
}


def _count_scalar_steps(monkeypatch):
    """Patch _steps_scalar to add the steps of each call to the returned list."""
    counted = []
    steps = scattering._steps_scalar

    def counting(v1, *args):
        counted.append(v1.size)
        return steps(v1, *args)

    monkeypatch.setattr(scattering, "_steps_scalar", counting)
    return counted


def _full_path(monkeypatch):
    """Make _propagate treat every well as lopsided until the patch is undone."""
    monkeypatch.setattr(scattering, "mirror_symmetric", lambda samples: False)


@pytest.mark.parametrize("name", MIRROR_WELLS)
def test_mirror_path_matches_the_full_path(monkeypatch, name):
    build, refine, k_max = MIRROR_WELLS[name]
    well = build()
    mirror = scattering.compute_scattering(well, k_max=k_max, refine=refine)
    assert mirror.unitarity_residual.max() <= 1e-9
    with monkeypatch.context() as patch:
        _full_path(patch)
        full = scattering.compute_scattering(well, k_max=k_max, refine=refine)
    assert_allclose(mirror.k_grid, full.k_grid, rtol=0, atol=0)
    scale = np.abs(full.a_pos).max()
    for field_name in ("a_pos", "b_pos", "a_neg", "b_neg"):
        assert_allclose(
            getattr(mirror, field_name), getattr(full, field_name),
            rtol=0, atol=1e-12 * scale,
        )


@pytest.mark.parametrize("name", MIRROR_WELLS)
def test_mirror_path_takes_half_the_steps(monkeypatch, name):
    well = MIRROR_WELLS[name][0]()
    a, b = well.support
    k = np.linspace(0.05, 9.0, 37)
    base = int(math.ceil((b - a) / (well.grid_step / 4.0)))
    parities = set()
    for ns in (base, base + 1):
        # a target just above span / ns gives exactly ns steps
        step = (b - a) / (ns - 0.5)
        with monkeypatch.context() as patch:
            counted = _count_scalar_steps(patch)
            y_top, y_bot = scattering._propagate(well, k, step)
        assert sum(counted) == (ns + 1) // 2
        with monkeypatch.context() as patch:
            _full_path(patch)
            counted = _count_scalar_steps(patch)
            full_top, full_bot = scattering._propagate(well, k, step)
        assert sum(counted) == ns
        parities.add(ns % 2)
        mirror = scattering._match(y_top, y_bot, k, a, 1)
        full = scattering._match(full_top, full_bot, k, a, 1)
        scale = np.abs(full[0]).max()
        for got, want in zip(mirror, full):
            assert_allclose(got, want, rtol=0, atol=1e-12 * scale)
    assert parities == {0, 1}


def test_lopsided_and_off_centre_wells_take_the_full_path(monkeypatch):
    # random-smooth is centred but its samples are lopsided; the shifted
    # Gaussian is even about x = 0.5, so its samples mirror but its support
    # is not centred on the origin the Jost phases refer to
    lopsided = potentials.build_family(
        "random-smooth", matrix_dim=1, seed=3, real_valued=True,
        support_radius=2.0, modes=3, grid_step=0.05,
    )
    even = potentials.build_family("gaussian", depth=4.0, width=1.5)
    shift = 0.5
    shifted = dataclasses.replace(
        even,
        grid_start=even.grid_start + shift,
        support=(even.support[0] + shift, even.support[1] + shift),
        evaluator=lambda x: even.evaluator(x - shift),
        derivative_evaluator=lambda x: even.derivative_evaluator(x - shift),
    )
    k = np.linspace(0.05, 9.0, 37)
    for well in (lopsided, shifted):
        a, b = well.support
        step = well.grid_step / 2.0
        counted = _count_scalar_steps(monkeypatch)
        scattering._propagate(well, k, step)
        assert sum(counted) == int(math.ceil((b - a) / step))
        monkeypatch.undo()
