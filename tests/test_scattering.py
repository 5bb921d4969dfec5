import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ltlab import potentials, scattering, spectral1d


@pytest.fixture(scope="module")
def square_well():
    return potentials.build_family("square-well", depth=3.0, half_width=1.5)


@pytest.fixture(scope="module")
def square_well_data(square_well):
    return scattering.compute_scattering(square_well, k_max=30.0, refine=2)


def _a_at(potential, k, refine):
    """A(k) of a scalar well from a one-point batch."""
    (a_pos, *_), _ = scattering._solve_batch(potential, np.array([k]), refine)
    return a_pos[0, 0, 0]


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


@pytest.fixture(scope="module")
def random_2x2_data(random_2x2):
    return scattering.compute_scattering(random_2x2)


def test_trace_identity_of_a_generic_well_needs_no_low_k_model(random_2x2, random_2x2_data):
    # log|det A| ~ -2 log k + c near k = 0 on this well; a model of [0, K_MIN]
    # that misses the singularity left I_0 1.4e-3 short
    spectrum = spectral1d.refined_negative_spectrum(
        random_2x2, spectral1d.default_box(random_2x2), 1200
    )
    first = scattering.trace_identity_audit(random_2x2, spectrum, random_2x2_data)[0]
    assert first.audit_tag == "trace-identity-1"
    assert first.residual <= 1e-6


@pytest.mark.parametrize("well_name, data_name, k_max, refine", [
    ("random_2x2", "random_2x2_data", None, 1),
    ("square_well", "square_well_data", 30.0, 2),
])
def test_integral_errors_cover_a_tighter_target(monkeypatch, request, well_name, data_name,
                                                k_max, refine):
    data = request.getfixturevalue(data_name)
    monkeypatch.setattr(scattering, "QUADRATURE_TARGET", scattering.QUADRATURE_TARGET / 100)
    reference = scattering.compute_scattering(
        request.getfixturevalue(well_name), k_max=k_max, refine=refine
    )
    assert reference.integral_details["end"] == data.integral_details["end"]
    for j in (0, 2, 4):
        moved = abs(getattr(data, f"i{j}") - getattr(reference, f"i{j}"))
        assert data.integral_details["errors"][j] >= moved


def _counting_solves(monkeypatch):
    """Patch _solve_batch to add the wavenumbers of each call to the returned list."""
    calls = []
    solve = scattering._solve_batch

    def counting(potential, k, refine):
        calls.append(np.array(k))
        return solve(potential, k, refine)

    monkeypatch.setattr(scattering, "_solve_batch", counting)
    return calls


def test_every_wavenumber_is_solved_once(monkeypatch, square_well):
    lopsided = potentials.build_family(
        "random-smooth", matrix_dim=1, seed=3, real_valued=True,
        support_radius=2.0, modes=3, grid_step=0.05,
    )
    for well, k_max in ((lopsided, None), (square_well, 30.0)):
        with monkeypatch.context() as patch:
            calls = _counting_solves(patch)
            counted = _count_steps(patch)
            data = scattering.compute_scattering(well, k_max=k_max)
        solved = np.concatenate(calls)
        assert np.unique(solved).size == solved.size
        assert data.k_grid.size == np.count_nonzero(solved >= scattering.K_MIN)
        # the square well is even, so its passes take the mirror path's half
        assert data.work == {"passes": len(calls), "steps": sum(counted), "wavenumbers": solved.size}
    # the sample cap sets the step up to k = 2 K_SPLIT on the default grid, so
    # the first doubling of end probes rides in the first pass; on the
    # coarser grid 1/8 of the kernels workload's nu = 1 well the step at
    # k = 6 (1/96 at refine 2) is finer than the first level's (about 1/48),
    # so the doubling keeps its own pass
    for nu, grid_step, sizes in ((1.0, None, [111]), (3.0, None, [111]),
                                 (1.0, 1.0 / 8.0, [102, 9])):
        with monkeypatch.context() as patch:
            calls = _counting_solves(patch)
            scattering.compute_scattering(
                potentials.build_family("poschl-teller", nu=nu, grid_step=grid_step), refine=2
            )
        assert [k.size for k in calls] == sizes


def test_each_pass_samples_its_stages_once(monkeypatch, square_well):
    # the pass reports its own steps, so counting them samples no stage again
    lopsided = potentials.build_family(
        "random-smooth", matrix_dim=1, seed=3, real_valued=True,
        support_radius=2.0, modes=3, grid_step=0.05,
    )
    for well, k_max in ((lopsided, None), (square_well, 30.0)):
        sampled = []
        stages = scattering._stages

        def counting(*args):
            sampled.append(args)
            return stages(*args)

        with monkeypatch.context() as patch:
            patch.setattr(scattering, "_stages", counting)
            data = scattering.compute_scattering(well, k_max=k_max)
        assert data.work["passes"] > 1
        assert len(sampled) == data.work["passes"]


# well, Jost refine; each batch below stays at or under the sample cap's reach
BATCH_WELLS = {
    "poschl-teller-3": (
        lambda: potentials.build_family("poschl-teller", nu=3.0, grid_step=1.0 / 24.0), 2
    ),
    "lopsided-scalar": (lambda: potentials.build_family(
        "random-smooth", matrix_dim=1, seed=3, real_valued=True,
        support_radius=2.0, modes=3, grid_step=0.05,
    ), 1),
    "random-2x2": (lambda: potentials.build_family("random-smooth", matrix_dim=2, seed=11), 1),
}


@pytest.mark.parametrize("name", BATCH_WELLS)
def test_a_wavenumber_does_not_depend_on_its_batch(name):
    # compute_scattering merges batches that take the same step, which keeps
    # every value only if a wavenumber's data are computed elementwise; the
    # first level's nodes and the first doubling of end probes are the model
    build, refine = BATCH_WELLS[name]
    well = build()
    # the largest k whose step the sample cap still sets
    reach = 2.0 / (scattering.OSCILLATION_FRACTION * well.grid_step)
    k_a = reach * np.append(1e-3, np.linspace(0.01, 0.5, 23))
    k_b = reach * 2.0 ** (np.arange(1, 9) / 8.0 - 1.0)
    alone, steps = scattering._solve_batch(well, k_a, refine)
    merged, merged_steps = scattering._solve_batch(well, np.concatenate([k_a, k_b]), refine)
    assert merged_steps == steps
    for got, want in zip(merged, alone):
        assert np.array_equal(got[: k_a.size], want)
    # past the cap's reach the merged batch takes a finer step, and A moves
    finer, finer_steps = scattering._solve_batch(well, np.concatenate([k_a, 2.0 * k_b]), refine)
    assert finer_steps > steps
    assert not np.array_equal(finer[0][: k_a.size], alone[0])


def test_pointwise_samples_start_at_k_min(random_2x2_data, square_well_data, pt1_scattering):
    for data in (random_2x2_data, square_well_data, pt1_scattering):
        assert data.k_grid[0] == scattering.K_MIN
        assert np.all(data.k_grid >= scattering.K_MIN)
        assert np.all(np.diff(data.k_grid) > 0)


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
    # steps through the n = 2 path, whose increments come from a LAPACK
    # solve and which propagates the -k columns on their own; the scalar
    # path fills them in by conjugation.
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


def _step_samples(potential, step_target):
    """The step s of _propagate over a scalar well and its samples at both stage nodes."""
    a, b = potential.support
    ns = max(1, int(math.ceil((b - a) / step_target)))
    s = -(b - a) / ns
    x_steps = b + s * np.arange(ns)
    v1 = potential.sample_at(x_steps + scattering._C1 * s)[:, 0, 0].real
    v2 = potential.sample_at(x_steps + scattering._C2 * s)[:, 0, 0].real
    return s, v1, v2


def _two_sign_reference(potential, k, step_target):
    """Both signs of k carried as four real rows, one step and a fresh array per operation.

    Each step forms its increment D = [s^2 (d1 q1 + d2 q2); (s/2)(q1 + q2)]
    from the stage slopes per unit state q_i = w_i (G^-1 R)_i and applies
    F <- F + ((D_11 F + D_12 F') + s F'), F' <- F' + (D_21 F + D_22 F').
    """
    b = potential.support[1]
    s, v1, v2 = _step_samples(potential, step_target)
    cc, c1, c2 = scattering._CC, scattering._C1, scattering._C2
    d1, d2 = scattering._D1, scattering._D2
    phase = np.exp(1j * k * b)
    f = np.stack([phase, np.conj(phase)])
    fp = np.stack([1j * k * phase, -1j * k * np.conj(phase)])
    top = np.concatenate([f.real, f.imag])[[0, 2, 1, 3]]
    bot = np.concatenate([fp.real, fp.imag])[[0, 2, 1, 3]]
    k2 = k * k
    s2 = s * s
    for j in range(v1.size):
        w1 = v1[j] - k2
        w2 = v2[j] - k2
        g11 = 1.0 - (s2 * cc[0][0]) * w1
        g12 = (-s2 * cc[0][1]) * w2
        g21 = (-s2 * cc[1][0]) * w1
        g22 = 1.0 - (s2 * cc[1][1]) * w2
        det = g11 * g22 - g12 * g21
        # columns: per unit F, per unit F'
        q1 = [(w1 / det) * (g22 - g12), (w1 / det) * ((s * c1) * g22 - (s * c2) * g12)]
        q2 = [(w2 / det) * (g11 - g21), (w2 / det) * ((s * c2) * g11 - (s * c1) * g21)]
        d_top = [s2 * (d1 * q1[c] + d2 * q2[c]) for c in range(2)]
        d_bot = [(0.5 * s) * (q1[c] + q2[c]) for c in range(2)]
        change_top = d_top[0] * top + d_top[1] * bot
        change_bot = d_bot[0] * top + d_bot[1] * bot
        change_top = change_top + s * bot
        top = top + change_top
        bot = bot + change_bot
    # rows: Re F(+k), Im F(+k), Re F(-k), Im F(-k)
    return top[0::2] + 1j * top[1::2], bot[0::2] + 1j * bot[1::2]


def test_scalar_steps_equal_the_two_sign_reference():
    # one +k solution, conjugated for -k, gives the same bits as
    # propagating both signs with the same increment algebra
    well = potentials.build_family(
        "random-smooth", matrix_dim=1, seed=3, real_valued=True,
        support_radius=2.0, modes=3, grid_step=0.05,
    )
    k = np.linspace(0.05, 9.0, 37)
    for step in (0.05, 0.013):
        y_top, y_bot, _ = scattering._propagate(well, k, step)
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


def _count_steps(monkeypatch):
    """Patch _steps to add the steps of each call to the returned list."""
    counted = []
    steps = scattering._steps

    def counting(v1, *args):
        counted.append(len(v1))
        return steps(v1, *args)

    monkeypatch.setattr(scattering, "_steps", counting)
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
            counted = _count_steps(patch)
            y_top, y_bot, steps = scattering._propagate(well, k, step)
        assert sum(counted) == steps == (ns + 1) // 2
        with monkeypatch.context() as patch:
            _full_path(patch)
            counted = _count_steps(patch)
            full_top, full_bot, steps = scattering._propagate(well, k, step)
        assert sum(counted) == steps == ns
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
        counted = _count_steps(monkeypatch)
        _, _, steps = scattering._propagate(well, k, step)
        assert sum(counted) == steps == int(math.ceil((b - a) / step))
        monkeypatch.undo()


def _longdouble_matching(potential, k, step_target):
    """A(k) and B(k) of a scalar well from the steps of _propagate, run in np.longdouble.

    Nodes, samples, Butcher coefficients and initial data are the float64
    ones, so only the arithmetic differs.  Each step solves its stage system
    by Cramer's rule and updates F and F' from the stage values directly.
    """
    ld = np.longdouble
    a, b = potential.support
    s, v1, v2 = _step_samples(potential, step_target)
    v1, v2 = v1.astype(ld), v2.astype(ld)
    cc = np.array(scattering._CC, dtype=ld)
    c1, c2, d1, d2 = (ld(c) for c in (scattering._C1, scattering._C2,
                                      scattering._D1, scattering._D2))
    phase = np.exp(1j * k * b)
    f = phase.astype(np.clongdouble)
    fp = (1j * k * phase).astype(np.clongdouble)
    s = ld(s)
    k2 = k.astype(ld) ** 2
    for j in range(v1.size):
        w1 = v1[j] - k2
        w2 = v2[j] - k2
        g11 = 1 - s * s * cc[0, 0] * w1
        g12 = -s * s * cc[0, 1] * w2
        g21 = -s * s * cc[1, 0] * w1
        g22 = 1 - s * s * cc[1, 1] * w2
        det = g11 * g22 - g12 * g21
        r1 = f + c1 * s * fp
        r2 = f + c2 * s * fp
        p1 = w1 * (g22 * r1 - g12 * r2) / det
        p2 = w2 * (g11 * r2 - g21 * r1) / det
        f, fp = f + s * fp + s * s * (d1 * p1 + d2 * p2), fp + s / 2 * (p1 + p2)
    ik = 1j * k.astype(ld)
    e_minus = np.exp(-1j * k * a).astype(np.clongdouble)
    return e_minus * (ik * f + fp) / (2 * ik), np.conj(e_minus) * (ik * f - fp) / (2 * ik)


# well, wavenumbers, refine, bound on the error of A and B relative to |A|;
# each bound is three times what the direct stage-solve algebra of the same
# steps reads in float64 on x86-64 (1.4e-14 and 4.5e-14), and a step matrix
# stored as I + D, with s F' in it, reads 8.0e-14 on the square well
LONGDOUBLE_CASES = {
    "square-well": (
        lambda: potentials.build_family("square-well", depth=3.0, half_width=1.5),
        np.linspace(12.0, 30.0, 19), 2, 4.1e-14,
    ),
    # 8,500 steps
    "poschl-teller-2": (
        lambda: potentials.build_family("poschl-teller", nu=2.0, grid_step=0.0625),
        np.linspace(15.0, 30.0, 16), 1, 1.35e-13,
    ),
}


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("name", LONGDOUBLE_CASES)
def test_scalar_steps_track_a_longdouble_run(monkeypatch, name):
    build, k, refine, bound = LONGDOUBLE_CASES[name]
    well = build()
    step = min(well.grid_step / 2.0, 1.0 / (scattering.OSCILLATION_FRACTION * k.max())) / refine
    a_ref, b_ref = _longdouble_matching(well, k, step)
    scale = np.abs(a_ref)
    for mirror in (True, False):
        with monkeypatch.context() as patch:
            if not mirror:
                _full_path(patch)
            (a_pos, b_pos, *_), _ = scattering._solve_batch(well, k, refine)
        assert np.all(np.abs(a_pos[:, 0, 0] - a_ref) / scale <= bound)
        assert np.all(np.abs(b_pos[:, 0, 0] - b_ref) / scale <= bound)


def test_coupled_steps_match_the_rotated_scalar_wells():
    # U (V_1 + V_2) U* has off-diagonal samples, so it takes the n = 2 path;
    # its A and B are U diag(A_1, A_2) U* with A_i from the scalar path on
    # the same grid and support (V_1 even: mirror path; V_2 lopsided).  The
    # bound is three times what the per-step stage solve of the same steps
    # reads (7.0e-15); a step matrix stored as I + D reads 5.1e-14
    pair = potentials.direct_sum(
        potentials.build_family("square-well", depth=3.0, half_width=1.5),
        potentials.build_family(
            "random-smooth", matrix_dim=1, seed=3, real_valued=True,
            support_radius=2.0, modes=3, grid_step=0.05,
        ),
    )
    theta, phi = 0.7, 0.3
    u = np.array([
        [np.cos(theta), -np.exp(1j * phi) * np.sin(theta)],
        [np.exp(-1j * phi) * np.sin(theta), np.cos(theta)],
    ])

    def part(transform):
        return dataclasses.replace(
            pair,
            values=transform(pair.values),
            evaluator=lambda x: transform(pair.evaluator(x)),
            derivative_evaluator=lambda x: transform(pair.derivative_evaluator(x)),
        )

    rotated = part(lambda m: u @ m @ np.conj(u.T))
    assert np.abs(rotated.values[:, 0, 1]).max() > 1.0
    k = np.linspace(12.0, 30.0, 19)
    coupled, _ = scattering._solve_batch(rotated, k, 2)
    channels = [scattering._solve_batch(part(lambda m: m[:, i:i + 1, i:i + 1]), k, 2)[0]
                for i in range(2)]
    scale = np.abs(coupled[0]).max()
    for got, first, second in zip(coupled, *channels):
        diagonal = np.zeros((k.size, 2, 2), dtype=complex)
        diagonal[:, 0, 0], diagonal[:, 1, 1] = first[:, 0, 0], second[:, 0, 0]
        assert_allclose(got, u @ diagonal @ np.conj(u.T), rtol=0, atol=2.1e-14 * scale)
