import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg
from numpy.testing import assert_allclose
from scipy.sparse.linalg import LinearOperator

from ltlab import potentials, spectral1d


def test_poschl_teller_2_bound_states(pt2):
    # nu = 2 well binds exactly two states at -4 and -1
    box = spectral1d.default_box(pt2)
    spec = spectral1d.refined_negative_spectrum(pt2, box, 800)
    assert spec.count == 2
    assert_allclose(spec.energies, [4.0, 1.0], atol=1e-5)


def test_square_well_transcendental_oracle():
    # roots of q tan(qa) = sqrt(V0 - q^2) and q cot(qa) = -sqrt(V0 - q^2)
    # for V0 = 3, a = 1.5, solved independently by bisection to 1e-14
    oracle = np.array([2.438925967752, 0.926401891943])
    well = potentials.build_family("square-well", depth=3.0, half_width=1.5)
    box = spectral1d.default_box(well)
    spec = spectral1d.refined_negative_spectrum(well, box, 1200)
    assert spec.count == 2
    # jump edges limit the scheme order, so the tolerance is looser here
    assert_allclose(spec.energies, oracle, atol=5e-3)


def test_richardson_pair_formula():
    def mk(energies, m):
        return spectral1d.NegativeSpectrum(
            energies=np.asarray(energies, dtype=float), num_interior=m
        )

    coarse = mk([4.03, 1.02], 400)
    fine = mk([4.01, 1.01, 0.2], 801)
    out = spectral1d.richardson_pair(coarse, fine)
    assert_allclose(out.energies[:2], [4.01 - 0.02 / 3.0, 1.01 - 0.01 / 3.0])
    assert_allclose(out.energies[2], 0.2)
    assert out.num_interior == 801
    assert_allclose(out.error_estimates, [0.02 / 3.0, 0.01 / 3.0, 0.2])
    # levels extrapolating below the threshold are dropped
    trimmed = spectral1d.richardson_pair(mk([1.0], 400), mk([1.0, 5e-9], 801))
    assert trimmed.count == 1


def _grid_levels(exact, c2, c4, step, count=None, solver_error=0.0):
    """Levels exact + c2 h^2 + c4 h^4, the first count of them."""
    levels = np.asarray(exact) + np.asarray(c2) * step**2 + np.asarray(c4) * step**4
    return spectral1d.NegativeSpectrum(
        energies=levels[:count], num_interior=100, solver_error=solver_error
    )


def test_three_grid_budget_and_its_fallbacks():
    exact, c2, c4 = [9.0, 4.0, 1.0], [-0.5, -0.3, -0.2], [0.4, -0.2, 0.1]
    h = 0.1
    grids = [_grid_levels(exact, c2, c4, s, solver_error=e)
             for s, e in ((4 * h, 1e-14), (2 * h, 4e-14), (h, 1.6e-13))]
    coarsest, coarse, fine = grids
    two_grid = spectral1d.richardson_pair(coarse, fine)
    three = spectral1d.richardson_pair(coarse, fine, coarsest)
    assert_allclose(three.energies, two_grid.energies, rtol=0)
    # R(h) = E - 4 c4 h^4 and R(2h) = E - 64 c4 h^4, so |R(h) - R(2h)|/15
    # is the reported level's own error; the budget is SAFETY times it plus
    # the solver errors (4 * 1.6e-13 + 4e-14)/3
    error = 4.0 * np.abs(c4) * h**4
    assert_allclose(np.abs(three.energies - exact), error, rtol=1e-9)
    expected = spectral1d.RICHARDSON_SAFETY * error + 2.2666666666666667e-13
    assert_allclose(three.error_estimates, expected, rtol=1e-9)

    def fallback(coarsest):
        out = spectral1d.richardson_pair(coarse, fine, coarsest)
        return out.error_estimates

    # an observed order outside the window: the middle level's difference
    # grows eightfold from the fine pair to the coarse pair, p = 3
    off = coarsest.energies.copy()
    off[1] = coarse.energies[1] + 8.0 * (coarse.energies[1] - fine.energies[1])
    kept = fallback(dataclasses.replace(coarsest, energies=off))
    assert_allclose(kept[[0, 2]], three.error_estimates[[0, 2]], rtol=0)
    assert kept[1] == two_grid.error_estimates[1]
    # a level count that differs between grids: every level keeps |E_f - E_c|/3
    short = _grid_levels(exact, c2, c4, 4 * h, count=2)
    assert (fallback(short) == two_grid.error_estimates).all()
    # a fine-only level (unpaired) keeps its own magnitude, the rest /3
    deep = _grid_levels(exact + [0.25], c2 + [0.0], c4 + [0.0], h)
    out = spectral1d.richardson_pair(coarse, deep, coarsest)
    assert out.error_estimates[-1] == 0.25
    assert (out.error_estimates[:-1] == two_grid.error_estimates).all()


def test_riesz_mean_error_is_exact_below_gamma_one():
    spec = spectral1d.NegativeSpectrum(
        energies=np.array([0.04, 0.01]), num_interior=100,
        error_estimates=np.array([1e-3, 0.02]),
    )
    # E^gamma - (E - d)_+^gamma is the larger side for gamma < 1, and a level
    # within its error of 0 may lose all of E^gamma
    assert_allclose(spec.riesz_mean_error(0.5), (0.2 - math.sqrt(0.039)) + 0.1, rtol=1e-14)
    # the first-order propagation undercounts both levels
    assert spec.riesz_mean_error(0.5) > (0.5 * spec.energies**-0.5 * spec.error_estimates).sum()
    # gamma > 1: the upper side, (E + d)^gamma - E^gamma
    assert_allclose(
        spec.riesz_mean_error(1.5), (0.041**1.5 - 0.04**1.5) + (0.03**1.5 - 0.01**1.5),
        rtol=1e-13,
    )


def test_negative_spectrum_validation_and_moments():
    with pytest.raises(ValueError, match="descending"):
        spectral1d.NegativeSpectrum(energies=np.array([1.0, 2.0]), num_interior=100)
    spec = spectral1d.NegativeSpectrum(
        energies=np.array([4.0, 1.0]),
        num_interior=100,
        error_estimates=np.array([1e-3, 1e-4]),
    )
    assert spec.riesz_mean(0.0) == spec.riesz_mean(0) == spec.count == 2
    assert_allclose(spec.riesz_mean(1.5), 8.0 + 1.0)
    assert_allclose(spec.riesz_mean_error(1.0), 1.1e-3)
    with pytest.raises(ValueError):
        spec.riesz_mean(-0.5)
    empty = spectral1d.NegativeSpectrum(
        energies=np.empty(0), num_interior=100, error_estimates=np.empty(0)
    )
    for gamma in (0, 0.5, 1.5):
        assert empty.riesz_mean(gamma) == 0.0 and empty.riesz_mean_error(gamma) == 0.0
        assert type(empty.riesz_mean(gamma)) is float


def _count_solver_calls(monkeypatch):
    calls = {"tridiagonal": 0, "eigsh": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        spectral1d, "eigh_tridiagonal", counted("tridiagonal", spectral1d.eigh_tridiagonal)
    )
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted("eigsh", scipy.sparse.linalg.eigsh))
    return calls


def test_direct_sum_spectrum_is_union(pt1, pt2, monkeypatch):
    # block-diagonal potential: the discrete operator is permutation-similar
    # to the two scalar problems, and the channel split solves exactly those
    box = 26.0
    m = 2049
    both = potentials.direct_sum(pt1, pt2)
    op = spectral1d.discretize(both, box, m)
    calls = _count_solver_calls(monkeypatch)
    joint = spectral1d.negative_spectrum(op)
    assert calls == {"tridiagonal": 2, "eigsh": 0}
    single = [
        spectral1d.negative_spectrum(spectral1d.discretize(p, box, m))
        for p in (pt1, pt2)
    ]
    union = np.sort(np.concatenate([s.energies for s in single]))[::-1]
    assert joint.count == 3
    assert_allclose(joint.energies, union, atol=1e-12)


def test_shift_invert_matches_dense_solve(random_2x2, monkeypatch):
    op = spectral1d.discretize(random_2x2, random_2x2.support_radius + 4.0, 200)
    calls = _count_solver_calls(monkeypatch)
    spec = spectral1d.negative_spectrum(op)
    assert calls["tridiagonal"] == 0 and calls["eigsh"] >= 1
    full = np.linalg.eigvalsh(op.to_sparse().toarray())
    dense = np.sort(-full[full <= -spec.threshold])[::-1]
    assert spec.count == dense.size >= 1
    assert_allclose(spec.energies, dense, rtol=0.0, atol=1e-12 * np.abs(full).max())


def test_channel_split_matches_full_solve(random_2x2, monkeypatch):
    # a complex projector direction makes U a complex unitary, not the identity
    narrow = potentials.build_family(
        "rank-one-narrow", integral=2.0, width=0.1, matrix_dim=3,
        direction=[[0.6, 0.2], [0.3, -0.7], [-0.1, 0.4]],
    )
    op = spectral1d.discretize(narrow, 6.0, 300)
    calls = _count_solver_calls(monkeypatch)
    spec = spectral1d.negative_spectrum(op)
    assert calls == {"tridiagonal": 3, "eigsh": 0}
    full = np.linalg.eigvalsh(op.to_sparse().toarray())
    dense = np.sort(-full[full <= -spec.threshold])[::-1]
    assert spec.count == dense.size >= 1
    assert_allclose(spec.energies, dense, rtol=0.0, atol=1e-10)
    # a coupled well is not split
    coupled = spectral1d.discretize(random_2x2, random_2x2.support_radius + 4.0, 200)
    calls.update(tridiagonal=0, eigsh=0)
    spectral1d.negative_spectrum(coupled)
    assert calls["tridiagonal"] == 0 and calls["eigsh"] >= 1


def test_spectrum_shift_sits_below_ground_level(pt2):
    op = spectral1d.discretize(pt2, 20.0, 400)
    assert op.spectrum_shift() < -4.0
    # deep narrow well: pointwise floor is far below the ground state but the
    # half-moment bound keeps the shift near the physical scale
    narrow = potentials.build_family("rank-one-narrow", integral=2.0, width=1e-2)
    opn = spectral1d.discretize(narrow, 9.0, 1024)
    shift = opn.spectrum_shift()
    assert shift < -1.0
    assert shift > -10.0


def _ldlt_count(mat, threshold):
    """The level count below -cut of mat's L D L^T, and the cut, as the solve takes them."""
    guard = spectral1d._pivot_guard(mat)
    return spectral1d._stable_count(
        spectral1d._ldlt(mat, guard), threshold, guard, mat.shape[0]
    )


def _shallow_coupled_well():
    """A 2x2 coupled well whose levels sit far above the half-moment floor."""
    well = potentials.build_family("random-smooth", matrix_dim=2, seed=0, amplitude=0.5)
    return spectral1d.discretize(well, well.support_radius + 12.0, 300)


def test_placed_shift_is_certified_one_bracket_width_below_the_ground_level():
    op = _shallow_coupled_well()
    mat = op.to_sparse()
    ground = np.linalg.eigvalsh(mat.toarray())[0]
    factor_at = spectral1d._ldlt(mat, spectral1d._pivot_guard(mat))
    count, cut = _ldlt_count(mat, spectral1d.ENERGY_EDGE_THRESHOLD)
    floor = op.spectrum_shift()
    sigma, solve = spectral1d._placed_shift(factor_at, floor, cut)
    assert count >= 1 and factor_at(-sigma)[0] == 0
    # the final bracket is (-cut - floor) / 2^halvings wide, and the floor is
    # far below this well's levels, so the halving moves the shift up
    assert floor < sigma <= ground - (-cut - floor) / 2.0**spectral1d.SHIFT_HALVINGS
    # the returned factor solves with mat - sigma
    x = np.random.default_rng(2).standard_normal(mat.shape[0])
    assert_allclose(solve(mat @ x - sigma * x), x, rtol=0, atol=1e-10)


def test_levels_from_the_placed_shift_match_the_dense_solve():
    # within 2 eps ||A||_1: the shift-invert levels of this well miss the
    # dense ones by 1.5 eps ||A||_1 from the placed shift and by 1.4 from the
    # floor, and the dense reference itself moves by 1.0 eps ||A||_1 when
    # solved as its real symmetric embedding instead
    op = _shallow_coupled_well()
    mat = op.to_sparse()
    full = np.linalg.eigvalsh(mat.toarray())
    levels = spectral1d._sparse_levels(
        mat, op.spectrum_shift(), spectral1d.ENERGY_EDGE_THRESHOLD
    )
    expected = full[full <= -spectral1d.ENERGY_EDGE_THRESHOLD]
    assert levels.size == expected.size == 2
    assert_allclose(levels, expected, rtol=0, atol=2 * spectral1d._pivot_guard(mat))


def test_placed_shift_takes_fewer_operator_applications_than_the_floor():
    # the 3x3 random well of the benchmark's spectra workload, seed 0, on its
    # 4,200-row grid: levels -0.088 and -0.0067 against a floor of -1.50
    well = potentials.build_family("random-smooth", matrix_dim=3, seed=1155653964)
    op = spectral1d.discretize(well, 25.0, 1400)
    mat = op.to_sparse()
    assert mat.shape[0] == 4200
    guard = spectral1d._pivot_guard(mat)
    factor_at = spectral1d._ldlt(mat, guard)
    count, cut = _ldlt_count(mat, spectral1d.ENERGY_EDGE_THRESHOLD)
    floor = op.spectrum_shift()

    def solve(sigma, inverse):
        applied = []

        def apply(x):
            applied.append(1)
            return inverse(x)

        opinv = LinearOperator(mat.shape, matvec=apply, dtype=mat.dtype)
        return spectral1d._eigsh_below(mat, sigma, count, cut, guard, opinv), len(applied)

    at_floor, from_floor = solve(floor, factor_at(-floor)[1])
    placed, from_placed = solve(*spectral1d._placed_shift(factor_at, floor, cut))
    assert count == 2
    assert_allclose(placed, at_floor, rtol=0, atol=guard)
    assert from_placed < from_floor


def test_discretize_rejects_support_outside_box(pt1):
    with pytest.raises(ValueError, match="inside the box"):
        spectral1d.discretize(pt1, 0.5 * pt1.support_radius, 200)


def test_operator_validation():
    with pytest.raises(ValueError, match="interior points"):
        spectral1d.DiscretizedOperator1D(
            box_radius=5.0, num_interior=8, potential_blocks=np.zeros((8, 1, 1))
        )
    with pytest.raises(ValueError, match="shape"):
        spectral1d.DiscretizedOperator1D(
            box_radius=5.0, num_interior=20, potential_blocks=np.zeros((19, 1, 1))
        )


def test_default_box_scales_with_binding_energy(pt1):
    box = spectral1d.default_box(pt1)
    # shallowest level of the nu = 1 well sits at -1, so the margin is ~8
    assert box == pytest.approx(pt1.support_radius + 8.0, rel=1e-3)
    spec = spectral1d.negative_spectrum(spectral1d.discretize(pt1, box, 900))
    assert spec.count == 1


def _dense_count(mat, threshold):
    return int((np.linalg.eigvalsh(mat.toarray()) <= -threshold).sum())


def test_inertia_count_matches_dense_count(random_2x2):
    op = spectral1d.discretize(random_2x2, random_2x2.support_radius + 4.0, 300)
    mat = op.to_sparse()
    assert np.iscomplexobj(mat.data)
    for threshold in (spectral1d.ENERGY_EDGE_THRESHOLD, 0.05):
        count, cut = _ldlt_count(mat, threshold)
        assert cut == threshold
        assert count == _dense_count(mat, threshold) >= 1


def test_tiny_pivots_move_the_cut():
    # every diagonal entry of mat + threshold*I is (nearly) zero, so the first
    # pivot of any symmetric ordering is below the guard; the tridiagonal part
    # has eigenvalues 2 cos(j pi / 41), none near zero, so the count survives
    # the move of the cut
    import scipy.sparse as sp

    size, threshold = 40, 1e-8
    hop = np.ones(size - 1)
    for diagonal in (1e-18 - threshold, -threshold):
        mat = sp.diags([hop, np.full(size, diagonal), hop], [-1, 0, 1], format="csc")
        count, cut = _ldlt_count(mat, threshold)
        assert cut > threshold
        assert count == _dense_count(mat, threshold) == size // 2


def _eigsh_ks(monkeypatch, drop_calls=0):
    """Record each eigsh k; the first drop_calls calls lose their lowest level.

    A lost level comes back as a value above the spectrum's negative part,
    the way Lanczos returns the next level up when it misses a copy.
    """
    ks = []
    real = scipy.sparse.linalg.eigsh

    def patched(mat, k, **kwargs):
        ks.append(k)
        vals = real(mat, k=k, **kwargs)
        if len(ks) > drop_calls:
            return vals
        return np.append(np.sort(vals)[1:], 1.0)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", patched)
    return ks


def test_a_missed_level_grows_k_or_raises(random_2x2, monkeypatch):
    op = spectral1d.discretize(random_2x2, random_2x2.support_radius + 4.0, 60)
    full = np.linalg.eigvalsh(op.to_sparse().toarray())
    dense = np.sort(-full[full <= -spectral1d.ENERGY_EDGE_THRESHOLD])[::-1]
    count = dense.size
    # one miss: k doubles once and the solve recovers every level
    ks = _eigsh_ks(monkeypatch, drop_calls=1)
    spec = spectral1d.negative_spectrum(op)
    assert ks == [count, 2 * count]
    assert_allclose(spec.energies, dense, rtol=0.0, atol=1e-10)
    # a level missed at every k never meets the count: no undercount comes back
    ks = _eigsh_ks(monkeypatch, drop_calls=10**6)
    with pytest.raises(RuntimeError, match="inertia"):
        spectral1d.negative_spectrum(op)
    assert ks[-1] == op.size - 2


def test_odd_level_of_a_symmetric_coupled_well_in_one_solve(monkeypatch):
    # an even, real, coupled 2x2 well: its odd levels are orthogonal to any
    # even start vector, so only the random start vector puts them in the
    # Krylov space from the first step rather than through roundoff
    m = 401
    h = 16.0 / (m + 1)
    x = -8.0 + h * (1 + np.arange(m))
    a, b, c = 3.0 * np.exp(-(x**2)), 0.8 * np.exp(-(x**2) / 2), 2.0 * np.exp(-2 * x**2)
    blocks = -np.stack([np.stack([a, b], -1), np.stack([b, c], -1)], -2)
    op = spectral1d.DiscretizedOperator1D(box_radius=8.0, num_interior=m, potential_blocks=blocks)
    assert spectral1d._constant_channels(op.potential_blocks) is None
    vals, vecs = np.linalg.eigh(op.to_sparse().toarray())
    below = vals <= -spectral1d.ENERGY_EDGE_THRESHOLD
    modes = vecs[:, below].reshape(m, 2, -1)
    odd = np.abs(modes + modes[::-1]).max(axis=(0, 1)) < 1e-8
    assert odd.any() and not odd.all()
    ks = _eigsh_ks(monkeypatch)
    spec = spectral1d.negative_spectrum(op)
    assert ks == [below.sum()]
    assert_allclose(spec.energies, np.sort(-vals[below])[::-1], rtol=0.0, atol=1e-10)


def _block_diag_reference(op):
    """The operator assembled block by block, as sparse block_diag + kron."""
    import scipy.sparse as sp

    m, n = op.num_interior, op.matrix_dim
    inv_h2 = 1.0 / op.grid_step**2
    main = sp.block_diag(list(op.potential_blocks + 2.0 * inv_h2 * np.eye(n)), format="csc")
    ones = np.ones(m - 1)
    hop = sp.kron(sp.diags([ones, ones], [-1, 1]), -inv_h2 * sp.identity(n))
    return (main + hop).tocsc()


def test_to_sparse_matches_block_diag_reference(pt2, random_2x2):
    rotated = potentials.build_family(
        "rank-one-narrow", integral=2.0, width=0.1, matrix_dim=3,
        direction=[[0.6, 0.2], [0.3, -0.7], [-0.1, 0.4]],
    )
    ops = [
        spectral1d.discretize(pt2, 20.0, 401),
        spectral1d.discretize(random_2x2, random_2x2.support_radius + 4.0, 300),
        spectral1d.discretize(rotated, 6.0, 301),
        spectral1d.DiscretizedOperator1D(
            box_radius=3.0, num_interior=20, potential_blocks=np.zeros((20, 2, 2))
        ),
    ]
    for op in ops:
        got, want = op.to_sparse(), _block_diag_reference(op)
        assert got.format == "csc" and got.shape == want.shape
        assert got.data.dtype == want.data.dtype
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("size", [17, 18])
def test_mirror_halves_have_the_full_spectrum(size):
    rng = np.random.default_rng(3)
    half = rng.standard_normal((size + 1) // 2)
    diagonal = np.concatenate([half, half[: size // 2][::-1]])
    off = -2.5
    full = np.diag(diagonal) + off * (np.eye(size, k=1) + np.eye(size, k=-1))
    d, e = spectral1d._mirror_halves(diagonal, off)
    assert d.size == size and e.size == size - 1
    assert e[(size + 1) // 2 - 1] == 0.0
    split = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert_allclose(np.linalg.eigvalsh(split), np.linalg.eigvalsh(full), rtol=0.0, atol=1e-13)


def _record_tridiagonal(monkeypatch):
    """Each eigh_tridiagonal call's diagonal and off-diagonal, in order."""
    seen = []
    real = spectral1d.eigh_tridiagonal

    def recording(d, e, **kwargs):
        seen.append((np.array(d), np.array(e)))
        return real(d, e, **kwargs)

    monkeypatch.setattr(spectral1d, "eigh_tridiagonal", recording)
    return seen


def _unsplit_levels(op, threshold=spectral1d.ENERGY_EDGE_THRESHOLD):
    """Every channel through one unsplit bisection, and eps * max ||T||_1."""
    from scipy.linalg import eigh_tridiagonal

    channels = spectral1d._constant_channels(op.potential_blocks)
    inv_h2 = 1.0 / op.grid_step**2
    lower = min(float(channels.min()), 0.0) - 1.0
    levels = [
        eigh_tridiagonal(
            c + 2.0 * inv_h2, np.full(c.size - 1, -inv_h2), eigvals_only=True,
            select="v", select_range=(lower, -threshold),
        )
        for c in channels
    ]
    norm = np.abs(channels + 2.0 * inv_h2).max() + 2.0 * inv_h2
    return np.sort(np.concatenate(levels)), np.finfo(float).eps * norm


@pytest.mark.parametrize("well", ["pt2", "gaussian", "square-well", "pt1+pt2"])
@pytest.mark.parametrize("num_interior", [801, 800])
def test_even_wells_split_into_even_and_odd_halves(pt1, pt2, monkeypatch, well, num_interior):
    potential = {
        "pt2": pt2,
        "gaussian": potentials.build_family("gaussian", depth=3.0, width=1.0),
        "square-well": potentials.build_family("square-well", depth=3.0, half_width=1.5),
        "pt1+pt2": potentials.direct_sum(pt1, pt2),
    }[well]
    op = spectral1d.discretize(potential, spectral1d.default_box(potential), num_interior)
    calls = _count_solver_calls(monkeypatch)
    seen = _record_tridiagonal(monkeypatch)
    levels = np.sort(spectral1d._negative_eigenvalues(op, spectral1d.ENERGY_EDGE_THRESHOLD))
    # one length-N call per channel, each with the exact zero between the halves
    assert calls == {"tridiagonal": op.matrix_dim, "eigsh": 0}
    half = (num_interior + 1) // 2
    for d, e in seen:
        assert d.size == num_interior
        assert e[half - 1] == 0.0 and np.count_nonzero(e == 0.0) == 1
    unsplit, roundoff = _unsplit_levels(op)
    assert levels.size == unsplit.size >= 2
    assert_allclose(levels, unsplit, rtol=0.0, atol=roundoff)


def test_lopsided_channels_go_through_unsplit(monkeypatch):
    narrow = potentials.build_family("rank-one-narrow", integral=2.0, width=0.1, matrix_dim=1)
    smooth = potentials.build_family("random-smooth", matrix_dim=1, seed=2, real_valued=True)
    for potential in (narrow, smooth):
        op = spectral1d.discretize(potential, potential.support_radius + 6.0, 301)
        seen = _record_tridiagonal(monkeypatch)
        levels = np.sort(spectral1d._negative_eigenvalues(op, spectral1d.ENERGY_EDGE_THRESHOLD))
        assert len(seen) == 1 and np.count_nonzero(seen[0][1] == 0.0) == 0
        unsplit, _ = _unsplit_levels(op)
        assert levels.size >= 1
        assert np.array_equal(levels, unsplit)
