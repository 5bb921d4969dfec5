"""Dirichlet finite-difference spectra for -d^2/dx^2 + V on a symmetric box."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .potentials import SampledPotential

CHANNEL_SPLIT_TOL = 1e-13
CUT_MOVES = 8
CUT_STEP = 1e3
# _placed_shift: this many halvings of [floor, -cut] place the shift
SHIFT_HALVINGS = 3
ENERGY_EDGE_THRESHOLD = 1e-8
MIN_INTERIOR_POINTS = 16
# default_box: binding energies below the floor are treated as the floor, and
# the shallowest state must decay by exp(-BOX_MARGIN) inside the box
BOX_ENERGY_FLOOR = 0.04
BOX_MARGIN = 8.0
BOX_PROBE_INTERIOR = 600
# richardson_pair's three-grid budget: a level whose observed order lies
# within ORDER_WINDOW of 2 is budgeted at RICHARDSON_SAFETY times the
# fourth-order estimate |R(h) - R(2h)|/15
ORDER_WINDOW = 0.25
RICHARDSON_SAFETY = 2.0


@dataclass(frozen=True)
class DiscretizedOperator1D:
    """Second-order 3-point scheme with Dirichlet walls at x = +-box_radius.

    Interior nodes x_i = -box_radius + grid_step*(i+1), i = 0..num_interior-1,
    grid_step = 2*box_radius/(num_interior+1).  potential_blocks holds V(x_i).
    """

    box_radius: float
    num_interior: int
    potential_blocks: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.potential_blocks)
        # a real well stays real: ARPACK then runs symmetric Lanczos, not
        # the complex Arnoldi it runs for every complex matrix
        v = v.astype(complex if np.iscomplexobj(v) else float)
        object.__setattr__(self, "potential_blocks", v)
        if v.ndim != 3 or v.shape[0] != self.num_interior or v.shape[1] != v.shape[2]:
            raise ValueError("potential_blocks must have shape (num_interior, n, n)")
        if self.num_interior < MIN_INTERIOR_POINTS:
            raise ValueError(f"need at least {MIN_INTERIOR_POINTS} interior points")

    @property
    def grid_step(self) -> float:
        return 2.0 * self.box_radius / (self.num_interior + 1)

    @property
    def matrix_dim(self) -> int:
        return self.potential_blocks.shape[1]

    @property
    def size(self) -> int:
        return self.num_interior * self.matrix_dim

    def solver_error(self) -> float:
        """eps times a bound on ||A||_1: the largest column sum of a block, plus both hops."""
        inv_h2 = 1.0 / self.grid_step**2
        shifted = self.potential_blocks + 2.0 * inv_h2 * np.eye(self.matrix_dim)
        return float(np.finfo(float).eps * (np.abs(shifted).sum(axis=1).max() + 2.0 * inv_h2))

    def spectrum_shift(self) -> float:
        """A point strictly below the lowest eigenvalue but near its scale.

        Uses the tighter of the pointwise floor and the square of the
        half-moment bound sum(sqrt(E_j)) <= (1/2) int tr V_minus, which keeps
        the floor near the ground level even for deep narrow wells whose
        pointwise depth is orders of magnitude below it.  It is the bottom of
        the bracket _placed_shift halves for the shift-invert shift.
        """
        mu = np.linalg.eigvalsh(self.potential_blocks)
        floor = float(min(mu.min(), 0.0))
        mass = self.grid_step * float(np.maximum(-mu, 0.0).sum())
        moment_floor = -((0.5 * mass) ** 2)
        tight = max(floor, moment_floor)
        return 1.15 * tight - 0.05

    def to_sparse(self) -> sp.csc_matrix:
        """The operator as 2n + 1 diagonals, offsets n down to -n, in canonical CSC.

        Offset d, |d| < n, holds V(x_i)[a, a + d] + 2/h^2 [d = 0] in row
        i*n + a, and zero where a + d leaves the block; offsets +-n hold the
        hops.  The conversion drops zero entries.
        """
        n, inv_h2 = self.matrix_dim, 1.0 / self.grid_step**2
        shifted = self.potential_blocks + 2.0 * inv_h2 * np.eye(n)
        offsets = np.arange(n, -n - 1, -1)
        a = np.arange(n)[:, None]
        padded = np.pad(shifted, ((0, 0), (0, 0), (n, n)))
        bands = padded[:, a, a + n + offsets].reshape(self.size, offsets.size)
        bands[:, [0, -1]] = -inv_h2
        # diagonal d >= 0 starts in row 0, diagonal d < 0 in row -d
        diagonals = [bands[max(-d, 0): self.size - max(d, 0), k] for k, d in enumerate(offsets)]
        return sp.diags(diagonals, offsets, format="csc")


@dataclass(frozen=True)
class NegativeSpectrum:
    """Magnitudes E_j > 0 of the negative eigenvalues, sorted descending.

    solver_error is how far the eigensolver may move a level, eps ||A||_1
    for a 1D operator (DiscretizedOperator1D.solver_error), 0 where unset.
    """

    energies: np.ndarray
    num_interior: int
    threshold: float = ENERGY_EDGE_THRESHOLD
    error_estimates: np.ndarray | None = None
    solver_error: float = 0.0

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        object.__setattr__(self, "energies", e)
        if e.size and (np.diff(e) > 1e-12).any():
            raise ValueError("energies must be sorted descending")
        if self.error_estimates is not None:
            object.__setattr__(
                self, "error_estimates", np.asarray(self.error_estimates, dtype=float)
            )

    @property
    def count(self) -> int:
        return self.energies.size

    def riesz_mean(self, gamma: float) -> float:
        if gamma < 0:
            raise ValueError("gamma must be nonnegative")
        return float((self.energies**gamma).sum())

    def riesz_mean_error(self, gamma: float) -> float:
        """The per-level error estimates d_j propagated exactly into the Riesz mean.

        Each level contributes max((E + d)^gamma - E^gamma, E^gamma - (E - d)_+^gamma),
        the larger move of E^gamma over [E - d, E + d].  A first-order
        gamma E^(gamma - 1) d undercounts the lower side for gamma < 1 and
        the upper side for gamma > 1.
        """
        if self.error_estimates is None:
            return 0.0
        e, d = self.energies, self.error_estimates
        up = (e + d) ** gamma - e**gamma
        down = e**gamma - np.maximum(e - d, 0.0) ** gamma
        return float(np.maximum(up, down).sum())


def discretize(
    potential: SampledPotential, box_radius: float, num_interior: int
) -> DiscretizedOperator1D:
    a, b = potential.support
    if a <= -box_radius or b >= box_radius:
        raise ValueError("support must lie strictly inside the box")
    h = 2.0 * box_radius / (num_interior + 1)
    x = -box_radius + h * (1 + np.arange(num_interior))
    blocks = potential.sample_at(x)
    blocks = 0.5 * (blocks + np.conj(np.swapaxes(blocks, 1, 2)))
    return DiscretizedOperator1D(
        box_radius=box_radius, num_interior=num_interior, potential_blocks=blocks
    )


def _constant_channels(blocks: np.ndarray) -> np.ndarray | None:
    """Channel samples v_k(x_i), shape (n, m), when blocks[i] = U diag(v_k(x_i)) U*.

    blocks holds m Hermitian n x n samples.  U diagonalizes one fixed
    weighted sum of them.  The split is accepted when no rotated block keeps
    an off-diagonal part above CHANNEL_SPLIT_TOL * max|V|; dropping that part
    moves no eigenvalue of an operator built blockwise from the samples by
    more than its norm (Weyl).  Returns None for a coupled well.
    """
    m, n, _ = blocks.shape
    weights = 1.0 + np.arange(m) / m
    _, u = np.linalg.eigh(np.tensordot(weights, blocks, axes=1))
    rotated = np.conj(u.T) @ blocks @ u
    channels = np.diagonal(rotated, axis1=1, axis2=2)
    coupling = rotated - channels[:, :, None] * np.eye(n)
    if np.linalg.norm(coupling, axis=(1, 2)).max() > CHANNEL_SPLIT_TOL * np.abs(blocks).max():
        return None
    return channels.real.T


def mirror_symmetric(samples: np.ndarray) -> bool:
    """Whether samples equal samples[::-1] to CHANNEL_SPLIT_TOL * max|samples|."""
    return bool(
        np.abs(samples - samples[::-1]).max() <= CHANNEL_SPLIT_TOL * np.abs(samples).max()
    )


def _mirror_halves(diagonal: np.ndarray, off: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of tridiag(off, diagonal, off) as even (+) odd halves.

    For a mirror-symmetric diagonal the reflection i -> N-1-i commutes with
    the matrix.  In the basis (e_i +- e_{N-1-i})/sqrt(2) (and e_c, the
    centre, for odd N) it is the direct sum of the even and the odd half,
    returned as one length-N tridiagonal with an exact 0 between them, where
    bisection splits it.  Odd N = 2c+1: the even half is rows 0..c with its
    last coupling times sqrt(2), the odd half rows 0..c-1.  Even N = 2c: both
    are rows 0..c-1, with off added to the even half's last diagonal entry
    and subtracted from the odd half's.
    """
    size = diagonal.size
    c = size // 2
    even = diagonal[: c + size % 2].copy()
    odd = diagonal[:c].copy()
    even_off = np.full(even.size - 1, off)
    if size % 2:
        even_off[-1] *= math.sqrt(2.0)
    else:
        even[-1] += off
        odd[-1] -= off
    return (
        np.concatenate([even, odd]),
        np.concatenate([even_off, [0.0], np.full(c - 1, off)]),
    )


def _channel_levels(channel: np.ndarray, inv_h2: float, lower: float, threshold: float):
    """Levels of -d^2/dx^2 + channel in [lower, -threshold] by tridiagonal bisection.

    A channel mirror-symmetric to CHANNEL_SPLIT_TOL * max|channel| (the
    sample grid is symmetric about 0, so an even well is, to roundoff) is
    symmetrized, which by Weyl moves no level by more than that, and solved
    as even (+) odd halves: each level then costs N/2 Sturm steps, not N.
    """
    diagonal = channel + 2.0 * inv_h2
    if mirror_symmetric(channel):
        diagonal, off_diagonal = _mirror_halves(0.5 * (diagonal + diagonal[::-1]), -inv_h2)
    else:
        off_diagonal = np.full(channel.size - 1, -inv_h2)
    return eigh_tridiagonal(
        diagonal, off_diagonal, eigvals_only=True,
        select="v", select_range=(lower, -threshold),
    )


def _negative_eigenvalues(op: DiscretizedOperator1D, threshold: float) -> np.ndarray:
    """Tridiagonal bisection per channel, else shift-invert on the coupled well.

    A mirror-symmetric channel goes to the bisection as even (+) odd halves
    (_channel_levels).
    """
    channels = _constant_channels(op.potential_blocks)
    if channels is not None:
        inv_h2 = 1.0 / op.grid_step**2
        lower = min(float(channels.min()), 0.0) - 1.0
        return np.concatenate(
            [_channel_levels(c, inv_h2, lower, threshold) for c in channels]
        )
    return _sparse_levels(op.to_sparse(), op.spectrum_shift(), threshold)


def _pivot_guard(mat) -> float:
    """eps * ||mat||_1: the size below which a pivot or a Ritz gap is roundoff."""
    return float(np.finfo(float).eps * spla.norm(mat, 1))


def _ldlt(mat, guard: float):
    """factor_at(shift) for a sparse Hermitian mat: a count, and the solve of mat + shift*I.

    mat + shift*I is factored as L D L^T: a symmetric fill-reducing ordering,
    no row exchanges, so the negative pivots count the eigenvalues below
    -shift exactly.  A pivot at or below the guard, a row exchange (SuperLU
    makes one on a vanishing diagonal) or an exactly singular matrix voids
    the count, which is then None.
    """
    eye = sp.identity(mat.shape[0], format="csc")

    def factor_at(shift):
        try:
            lu = spla.splu(
                (mat + shift * eye).tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError:  # an exactly singular factor
            return None, None
        pivots = lu.U.diagonal()
        if (lu.perm_r == lu.perm_c).all() and np.abs(pivots).min() > guard:
            return int((pivots.real < 0).sum()), lu.solve
        return None, lu.solve

    return factor_at


def _stable_count(factor_at, threshold: float, guard: float, size: int) -> tuple[int, float]:
    """The count of factor_at(cut) at the first cut whose factor it trusts, and that cut.

    factor_at voids its count (None) when its factor has a pivot at roundoff
    level.  The cut starts at threshold and then moves deeper by 1e3, 4e3,
    ... guards (guard = eps * ||A||_1), so a level within that distance of
    the edge may be left out, never miscounted.
    """
    cut = threshold
    for move in range(CUT_MOVES):
        count = factor_at(cut)[0]
        if count is not None:
            return count, cut
        cut = threshold + CUT_STEP * 4.0**move * guard
    raise RuntimeError(f"no stable LDL^T factor of a {size}-row operator near {-threshold:.3e}")


def _certified(factor_at, sigma: float):
    """The solve of A - sigma, once its factor counts 0 eigenvalues below sigma; else raise."""
    count, solve = factor_at(-sigma)
    if count != 0:
        raise RuntimeError(f"the shift {sigma:.3e} is not certified below the spectrum")
    return solve


def _placed_shift(factor_at, floor: float, cut: float):
    """A shift certified below the spectrum near the ground level, and its solve.

    floor lies below the spectrum by construction, and the inertia count
    puts the ground level below -cut.  SHIFT_HALVINGS bisection steps on
    [floor, -cut] count at the midpoint: a count of 0 certifies it below
    the spectrum and makes it the bottom, any other count (or a voided one)
    makes it the top.  The ground level lies above the final bottom, and
    sigma is one final bracket width below that bottom, so at least that far
    below the ground level, and ||(A - sigma)^{-1}|| is at most
    2^SHIFT_HALVINGS times its value at the floor.  When the last step
    certified, sigma is the bottom before it, whose factor is the one spare
    kept; otherwise sigma is factored anew and goes through _certified, so a
    floor that is not below the spectrum raises.
    """
    bottom, top = floor, -cut
    spare = None  # the factor at bottom, once a midpoint has certified
    for step in range(1, SHIFT_HALVINGS + 1):
        mid = 0.5 * (bottom + top)
        count, probe = factor_at(-mid)
        if count != 0:
            top = mid
        elif step == SHIFT_HALVINGS and spare is not None:
            return bottom, spare
        else:
            bottom, spare = mid, probe
        probe = None  # only the spare lives on while the next factor is made
    sigma = 2.0 * bottom - top
    spare = None  # release it before factoring sigma
    return sigma, _certified(factor_at, sigma)


def _eigsh_below(mat, sigma: float, count: int, cut: float, guard: float, OPinv) -> np.ndarray:
    """The count lowest eigenvalues of mat, which an inertia count puts below -cut.

    sigma is certified below the spectrum (_certified), so the k eigenvalues
    nearest to it are the k lowest, and shift-invert Lanczos is asked for
    exactly the certified count.  OPinv applies (mat - sigma)^{-1} with the
    factor that certified sigma, so ARPACK factors nothing itself.
    Single-vector Lanczos can miss a copy of a repeated eigenvalue and
    converge to the next level up instead; only then does k grow.  The count
    lowest Ritz values must sit below the cut, to within CUT_STEP guards of
    Ritz roundoff; a solve that never gets there raises.  The start vector
    is seeded normal noise: an even one would leave the odd states of a
    symmetric well to roundoff.
    """
    size = mat.shape[0]
    v0 = np.random.default_rng(0).standard_normal(size)
    edge = -cut + CUT_STEP * guard
    k = count
    while k <= size - 2:
        vals = spla.eigsh(
            mat, k=k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv,
            return_eigenvectors=False,
        )
        vals = np.sort(vals)
        if vals[count - 1] <= edge:
            return vals[:count]
        if k == size - 2:
            break
        k = min(2 * k, size - 2)
    raise RuntimeError(
        f"shift-invert found fewer than the {count} levels below {-cut:.3e} "
        f"that the inertia of a {size}-row operator counts"
    )


def _shift_invert_levels(mat, factor_at, guard: float, threshold: float, shift_for) -> np.ndarray:
    """Eigenvalues of mat at or below -threshold, as many as its inertia counts.

    The level solve of every coupled, planar and periodic operator.
    factor_at(shift) is (count below -shift or None, solve of mat + shift),
    as _ldlt returns it; guard is eps * ||mat||_1.  shift_for(cut) gives a
    sigma certified below the spectrum (_certified) and the solve of
    mat - sigma, the one choice an operator makes: sparse ones place it
    (_placed_shift), the periodic one keeps its floor.
    """
    count, cut = _stable_count(factor_at, threshold, guard, mat.shape[0])
    if count == 0:
        return np.empty(0)
    sigma, solve = shift_for(cut)
    opinv = spla.LinearOperator(mat.shape, matvec=solve, dtype=mat.dtype)
    return _eigsh_below(mat, sigma, count, cut, guard, opinv)


def _sparse_levels(mat, floor: float, threshold: float) -> np.ndarray:
    """_shift_invert_levels of a sparse mat, with _ldlt's factors and the placed shift.

    floor lies below the spectrum; _placed_shift halves [floor, -cut] for
    the shift.
    """
    guard = _pivot_guard(mat)
    factor_at = _ldlt(mat, guard)
    return _shift_invert_levels(
        mat, factor_at, guard, threshold, lambda cut: _placed_shift(factor_at, floor, cut)
    )


def negative_spectrum(
    op: DiscretizedOperator1D, threshold: float = ENERGY_EDGE_THRESHOLD
) -> NegativeSpectrum:
    vals = _negative_eigenvalues(op, threshold)
    energies = np.sort(-vals)[::-1]
    return NegativeSpectrum(
        energies=energies, num_interior=op.num_interior, threshold=threshold,
        solver_error=op.solver_error(),
    )


def richardson_pair(
    coarse: NegativeSpectrum,
    fine: NegativeSpectrum,
    coarsest: NegativeSpectrum | None = None,
) -> NegativeSpectrum:
    """Extrapolate spectra whose grid steps differ by exactly a factor 2.

    The second-order scheme extrapolates as R(h) = E_f + (E_f - E_c)/3,
    budgeted at |E_f - E_c|/3, the error of E_f itself.  Levels are paired
    in descending order; fine-grid levels without a coarse partner are kept
    as-is with their own magnitude as the error bar.

    coarsest, the spectrum on the grid of step 4h (levels E_q), sharpens
    the budget.  When all three grids count the same levels, each level
    whose observed order p = log2(|E_c - E_q| / |E_f - E_c|) lies within
    ORDER_WINDOW of 2 is budgeted at RICHARDSON_SAFETY |R(h) - R(2h)|/15,
    the size of the h^4 term R(h) leaves, plus (4 s_f + s_c)/3 for the
    solver errors s of the two grids R(h) combines.  Every other level
    keeps |E_f - E_c|/3.
    This covers discretization and the solver only: a level the box loses
    or shifts is outside it.
    """
    threshold = fine.threshold
    paired = min(coarse.count, fine.count)
    e_c = coarse.energies[:paired]
    e_f = fine.energies[:paired]
    extrap = e_f + (e_f - e_c) / 3.0
    err = np.abs(e_f - e_c) / 3.0
    if coarsest is not None:
        agree = coarsest.count == coarse.count == fine.count
        e_q = coarsest.energies if agree else np.full(paired, np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            order = np.log2(np.abs(e_c - e_q) / np.abs(e_f - e_c))
        estimate = np.abs(extrap - (e_c + (e_c - e_q) / 3.0)) / 15.0
        solver = (4.0 * fine.solver_error + coarse.solver_error) / 3.0
        err = np.where(
            np.abs(order - 2.0) <= ORDER_WINDOW, RICHARDSON_SAFETY * estimate + solver, err
        )
    extra = fine.energies[paired:]
    energies = np.concatenate([extrap, extra])
    errors = np.concatenate([err, extra.copy()])
    keep = energies >= threshold
    energies, errors = energies[keep], errors[keep]
    order = np.argsort(energies)[::-1]
    return NegativeSpectrum(
        energies=energies[order],
        num_interior=fine.num_interior,
        threshold=threshold,
        error_estimates=errors[order],
    )


def refined_negative_spectrum(
    potential: SampledPotential, box_radius: float, num_interior: int
) -> NegativeSpectrum:
    """Richardson pairing of the num_interior and 2*num_interior+1 grids.

    Doubling the interior count this way exactly halves the grid step.
    """
    coarse = negative_spectrum(discretize(potential, box_radius, num_interior))
    fine = negative_spectrum(discretize(potential, box_radius, 2 * num_interior + 1))
    return richardson_pair(coarse, fine)


def default_box(potential: SampledPotential) -> float:
    """Box radius so the shallowest bound state decays by exp(-BOX_MARGIN) inside.

    A coarse pre-solve locates the smallest binding energy; BOX_ENERGY_FLOOR
    caps the box growth when states sit arbitrarily close to the edge.
    """
    radius = potential.support_radius
    probe = radius + BOX_MARGIN / math.sqrt(BOX_ENERGY_FLOOR)
    spec = negative_spectrum(
        discretize(potential, probe, BOX_PROBE_INTERIOR),
        threshold=BOX_ENERGY_FLOOR / 10.0,
    )
    if spec.count == 0:
        return probe
    e_min = max(float(spec.energies.min()), BOX_ENERGY_FLOOR)
    return radius + BOX_MARGIN / math.sqrt(e_min)
