"""Fractional-dispersion operators |p|^beta + V and comparison densities.

The comparison density is the symmetric stable law with characteristic
function exp(-scale*|x|^alpha).  A whole momentum grid is tabulated in one
vectorized pass of the Ooura-Mori double-exponential cosine rule
(potentials.fourier_integral, exp-sinh at p = 0), and each value carries the
rule's error estimate, |I_h - I_{h/2}| plus the rounding of its sum.  Its
certified majorization constant turns the density into an upper bound for
the resolvent weight (|p|^beta + 1)^{-1}, which in turn caps the spectral
sum Sum E_j^{(beta-1)/beta} of the periodic operator by a multiple of the
potential's mass.

For the power-law density family the rearrangement monotonicity needed in
the energy parameter holds identically (it is the sign of
E^{alpha/beta} - E'^{alpha/beta}), so no runtime check is performed.

The periodic operator A = C + V is never assembled: C, the circulant of
the symbol |p|^beta, is diagonal under np.fft, and V is the samples.  With
B = sqrt|V| and W = -sign V on the m samples where V is nonzero, and
K(t) = B^T (C + t)^{-1} B, the Haynsworth inertia formula for the block
matrix [[C + t, B], [B^T, W]] gives the Birman-Schwinger count
n_-(A + t) = n_-(W - K(t)) - n_-(W) for t > 0 (W = I for a well, where it
reads n_-(I - K(t))).  One L D L^T of the m x m matrix W - K(t) counts the
levels below -t and, by Woodbury, solves (A + t) x = y.  That is the
factor_at contract of spectral1d._ldlt, so the periodic levels come from
the same count, certified shift and shift-invert Lanczos
(spectral1d._shift_invert_levels) as the coupled and planar ones; only
the shift differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials, spectral1d
from .potentials import SampledPotential
from .reports import BoundReport, BoundSpec, comparison_report

DENSITY_ERROR_CAP = 1e-9
# absolute error target of each quadrature before the 1/pi of the density
DENSITY_TARGET = 1e-12
MASS_TOLERANCE = 1e-10
POINTWISE_SLACK = 1e-9
DRIFT_BUDGET = 1e-6
REFINEMENT_TOLERANCE = 1e-4
# total_mass integrates the density by tanh-sinh on [0, MASS_EDGE], by Fubini beyond
MASS_EDGE = 60.0
# characteristic_function_check inverts the tabulation rule at these x
CHARACTERISTIC_POINTS = (0.5, 1.0, 2.0)
# c0_search narrows the argmax of the ratio to this width, Brent's default xatol
ARGMAX_WIDTH = 1e-5


def _density(stability_index: float, scale: float, momenta) -> tuple[np.ndarray, np.ndarray]:
    """The stable density at |momenta| and the quadrature error estimates.

    Each value is (1/pi) int_0^inf exp(-scale x^alpha) cos(p x) dx by the
    double-exponential rule of potentials.fourier_integral; a value depends
    on its own momentum only, so a refined grid repeats the coarse values
    to the bit.
    """
    p = np.abs(np.asarray(momenta, dtype=float))
    values, errors = potentials.fourier_integral(
        lambda x: np.exp(-scale * x**stability_index), p.ravel(), "cos", DENSITY_TARGET
    )
    return (values / math.pi).reshape(p.shape), (errors / math.pi).reshape(p.shape)


def _check_momentum_grid(grid: np.ndarray) -> None:
    """Raise unless grid is 1d, increasing and nonnegative, with at least 16 points."""
    if grid.ndim != 1 or grid.size < 16:
        raise ValueError("momentum grid must be 1d with at least 16 points")
    if (np.diff(grid) <= 0).any() or grid[0] < 0:
        raise ValueError("momentum grid must be increasing and nonnegative")


def _check_stable_parameters(stability_index: float, scale: float) -> None:
    """Raise unless 0 < stability_index < 2 and scale > 0."""
    if not 0.0 < stability_index < 2.0:
        raise ValueError("stability index must lie in (0, 2)")
    if scale <= 0.0:
        raise ValueError("scale must be positive")


@dataclass(frozen=True)
class ComparisonDensity:
    """Symmetric stable density tabulated on a nonnegative momentum grid."""

    stability_index: float
    scale: float
    momentum_grid: np.ndarray
    density_values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.momentum_grid, dtype=float)
        values = np.asarray(self.density_values, dtype=float)
        object.__setattr__(self, "momentum_grid", grid)
        object.__setattr__(self, "density_values", values)
        _check_momentum_grid(grid)
        if values.shape != grid.shape:
            raise ValueError("density values must match the grid")
        if values.min() < -POINTWISE_SLACK:
            raise ValueError("density must be nonnegative up to quadrature slack")

    def evaluate(self, momenta) -> np.ndarray:
        """The density at an array of momenta, by the tabulation rule."""
        return _density(self.stability_index, self.scale, momenta)[0]

    def total_mass(self) -> float:
        """Integral over the whole line: tanh-sinh on [0, P] of the density
        evaluated by the tabulation rule (potentials.finite_integral), plus
        the exact remainder beyond P = MASS_EDGE, which Fubini turns into one
        integral of (exp(-scale*x^alpha) - 1)/x against sin(Px) over
        [0, inf), taken by the Ooura-Mori sine rule."""
        half, _ = potentials.finite_integral(self.evaluate, 0.0, MASS_EDGE, DENSITY_TARGET)
        remainder, _ = potentials.fourier_integral(
            lambda x: np.expm1(-self.scale * x**self.stability_index) / x,
            [MASS_EDGE],
            "sin",
            DENSITY_TARGET,
        )
        return 2.0 * (half - float(remainder[0]) / math.pi)


def stable_density(stability_index: float, scale: float, momentum_grid: np.ndarray) -> ComparisonDensity:
    """Tabulate the stable density and verify it against two exact anchors.

    The value at zero must reproduce the Gamma-integral closed form and the
    total mass must come out as 1; both are rejected outside tight margins
    because every later certificate leans on these tabulated values.
    """
    _check_stable_parameters(stability_index, scale)
    grid = np.asarray(momentum_grid, dtype=float)
    values, errors = _density(stability_index, scale, grid)
    worst_err = float(errors.max())
    if worst_err > DENSITY_ERROR_CAP:
        raise ValueError(
            f"density quadrature error {worst_err:.2e} exceeds {DENSITY_ERROR_CAP}"
        )
    density = ComparisonDensity(
        stability_index=stability_index,
        scale=scale,
        momentum_grid=grid,
        density_values=values,
    )
    at_zero = float(density.evaluate(0.0))
    closed_form = (
        math.gamma(1.0 + 1.0 / stability_index)
        * scale ** (-1.0 / stability_index)
        / math.pi
    )
    if abs(at_zero - closed_form) > 1e-9:
        raise ValueError("density value at zero misses the Gamma closed form")
    mass = density.total_mass()
    if abs(mass - 1.0) > MASS_TOLERANCE:
        raise ValueError(f"density mass {mass} is not 1 within {MASS_TOLERANCE}")
    return density


def c0_search(operator_exponent: float, density: ComparisonDensity) -> float:
    """Smallest constant making c0 * density majorize (|p|^beta + 1)^{-1}.

    The supremum of the ratio is taken over the tabulated grid, polished by
    a zoomed search around the grid's argmax (33 points across the bracket,
    then the bracket of the best of them, down to ARGMAX_WIDTH), and
    certified beyond the grid by sampling the ratio at geometrically spaced
    points past the cutoff: the density tail decays like |p|^{-(1+alpha)}
    while the weight decays like |p|^{-beta}, so once beta >= alpha + 1 and
    the samples decrease, the grid cutoff dominates everything beyond it.
    """
    beta = operator_exponent
    alpha = density.stability_index
    if beta < alpha + 1.0:
        raise ValueError("need operator exponent >= stability index + 1")
    grid = density.momentum_grid
    values = density.density_values
    positive = values > 0
    ratio = np.empty_like(values)
    ratio[positive] = 1.0 / ((grid[positive] ** beta + 1.0) * values[positive])
    ratio[~positive] = np.inf
    if not np.isfinite(ratio).all():
        raise ValueError("density vanishes on the grid; ratio unbounded")
    peak = int(np.argmax(ratio))
    best = float(ratio[peak])

    def searched(p):
        return 1.0 / ((p**beta + 1.0) * density.evaluate(p))

    lo = grid[max(peak - 1, 0)]
    hi = grid[min(peak + 1, grid.size - 1)]
    while hi - lo > ARGMAX_WIDTH:
        p = np.linspace(lo, hi, 33)
        sampled = searched(p)
        top = int(np.argmax(sampled))
        best = max(best, float(sampled[top]))
        lo, hi = p[max(top - 1, 0)], p[min(top + 1, p.size - 1)]
    cutoff = float(grid[-1])
    samples = searched(cutoff * np.array([1.0, 1.5, 2.0, 3.0, 4.0]))
    slack = 1e-9
    if (samples[1:] > samples[:-1] * (1.0 + slack)).any():
        raise ValueError("ratio grows past the grid cutoff; enlarge grid")
    if samples[0] > best * (1.0 + slack):
        raise ValueError("ratio peaks beyond the grid cutoff; enlarge grid")
    return best


def c0_reference_audit(
    operator_exponent: float,
    density: ComparisonDensity,
    reference: float | None = None,
    refined: ComparisonDensity | None = None,
    base_tolerance: float = 1e-6,
) -> list[BoundReport]:
    """Compare the searched constant against an exact value, a finer grid,
    or both."""
    constant = c0_search(operator_exponent, density)
    reports = []
    if reference is not None:
        reports.append(
            comparison_report(
                "stable-c0",
                "identity",
                constant,
                reference,
                base_tolerance=base_tolerance,
                provenance={
                    "operator_exponent": operator_exponent,
                    "stability_index": density.stability_index,
                },
            )
        )
    if refined is not None:
        again = c0_search(operator_exponent, refined)
        reports.append(
            comparison_report(
                "stable-c0-refined",
                "identity",
                constant,
                again,
                base_tolerance=REFINEMENT_TOLERANCE,
                provenance={
                    "operator_exponent": operator_exponent,
                    "grid_points": int(density.momentum_grid.size),
                    "refined_points": int(refined.momentum_grid.size),
                },
            )
        )
    if not reports:
        raise ValueError("nothing to audit: give a reference or a refined grid")
    return reports


def characteristic_function_check(
    density: ComparisonDensity, tolerance: float = 1e-8
) -> BoundReport:
    """Fourier-invert the tabulation rule back to exp(-scale*|x|^alpha).

    The outer cosine integral of the density runs through the same
    Ooura-Mori rule, with the density evaluated at its nodes by that rule.
    """
    x = np.array(CHARACTERISTIC_POINTS)
    values, _ = potentials.fourier_integral(density.evaluate, x, "cos", DENSITY_TARGET)
    target = np.exp(-density.scale * x**density.stability_index)
    worst = float(np.abs(2.0 * values - target).max())
    return BoundReport(
        audit_tag="characteristic-roundtrip",
        lhs=worst,
        rhs=0.0,
        tolerance=tolerance,
        passed=worst <= tolerance,
        residual=worst,
        provenance={"points": list(CHARACTERISTIC_POINTS)},
    )


@dataclass(frozen=True)
class PeriodicOperator:
    """|p|^beta + V on the periodic grid of the box [-L, L), never assembled.

    The kinetic part C is the symmetric circulant with first column
    `column`, the inverse transform of the symbol |p|^beta at the discrete
    momenta; np.fft diagonalizes it with eigenvalues `symbol`.  `samples`
    holds V(x_j).
    """

    symbol: np.ndarray
    column: np.ndarray
    samples: np.ndarray

    @classmethod
    def on_box(
        cls,
        potential: SampledPotential,
        operator_exponent: float,
        box_radius: float,
        num_points: int,
    ) -> PeriodicOperator:
        step = 2.0 * box_radius / num_points
        x = -box_radius + step * np.arange(num_points)
        momenta = 2.0 * math.pi * np.fft.fftfreq(num_points, d=step)
        symbol = np.abs(momenta) ** operator_exponent
        column = np.fft.ifft(symbol).real
        # the symbol is even, so C is symmetric: make its column even to the bit
        column = 0.5 * (column + column[-np.arange(num_points)])
        return cls(symbol, column, potential.sample_at(x)[:, 0, 0].real)

    @property
    def size(self) -> int:
        return self.samples.size

    def norm_1(self) -> float:
        """||A||_1 = max_j (sum_{d != 0} |c_d| + |c_0 + v_j|), read off the column."""
        off_diagonal = np.abs(self.column[1:]).sum()
        return float(off_diagonal + np.abs(self.column[0] + self.samples).max())

    @property
    def _half_symbol(self) -> np.ndarray:
        """The symbol at the momenta np.fft.rfft keeps; the rest mirror them."""
        return self.symbol[: self.size // 2 + 1]

    def _circulant(self, x: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
        """The circulant with eigenvalues f(symbol), given on the rfft half, applied to x."""
        return np.fft.irfft(np.fft.rfft(x) * eigenvalues, self.size)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._circulant(x, self._half_symbol) + self.samples * x

    def _factor_at(self, shift: float):
        """n_-(A + shift) and the solve of A + shift, from one L D L^T of W - K(shift).

        (C + shift)^{-1} = G is circulant, so K(shift) is gathered from its
        first column.  A pivot at or below eps * ||W - K||_1, the backward
        error of the factorization, voids the count (None), as a pivot below
        eps * ||A||_1 does in spectral1d._ldlt.  The solve is Woodbury's:
        (A + shift)^{-1} = G + G B (W - K)^{-1} B^T G, with G applied by FFT.
        """
        from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs

        support = np.flatnonzero(self.samples)
        values = self.samples[support]
        weights = np.sqrt(np.abs(values))
        green = 1.0 / (self._half_symbol + shift)
        resolvent = np.fft.irfft(green, self.size)
        gap = (support[:, None] - support[None, :]) % self.size
        matrix = np.diag(-np.sign(values)) - weights[:, None] * resolvent[gap] * weights
        guard = float(np.finfo(float).eps * np.abs(matrix).sum(axis=0).max())
        lwork = int(dsytrf_lwork(support.size, lower=1)[0])
        ldu, ipiv, info = dsytrf(matrix, lower=1, lwork=lwork, overwrite_a=1)
        if info < 0:
            raise np.linalg.LinAlgError(f"dsytrf failed with info = {info}")
        # Sylvester: D has the inertia of the matrix; a 2 x 2 block of D
        # (ipiv < 0 on both its rows) counts by its two eigenvalues
        pivots = np.diagonal(ldu).copy()
        k = 0
        while k < support.size:
            if ipiv[k] < 0:
                mid = 0.5 * (pivots[k] + pivots[k + 1])
                radius = math.hypot(0.5 * (pivots[k] - pivots[k + 1]), ldu[k + 1, k])
                pivots[k : k + 2] = mid - radius, mid + radius
                k += 2
            else:
                k += 1
        count = None
        if np.abs(pivots).min() > guard:
            # n_-(W): the samples with V > 0
            count = int((pivots < 0).sum()) - int((values > 0).sum())

        def solve(x):
            y = self._circulant(x, green)
            s, _ = dsytrs(ldu, ipiv, weights * y[support], lower=1)
            z = np.zeros(self.size)
            z[support] = weights * s
            return y + self._circulant(z, green)

        return count, solve

    def negative_levels(self) -> np.ndarray:
        """Binding energies |E| below -ENERGY_EDGE_THRESHOLD, deepest first.

        spectral1d._shift_invert_levels solves from the floor sigma =
        1.15 min V - 0.05 < min V <= A, not from spectral1d._placed_shift:
        each certifying factor is a dense m x m one, dearer than the
        applications a closer shift saves.  A zero V has no level to factor.
        """
        from scipy.sparse.linalg import LinearOperator

        if not self.samples.any():
            return np.empty(0)
        sigma = 1.15 * float(self.samples.min()) - 0.05
        vals = spectral1d._shift_invert_levels(
            LinearOperator((self.size, self.size), matvec=self.matvec, dtype=float),
            self._factor_at,
            np.finfo(float).eps * self.norm_1(),
            spectral1d.ENERGY_EDGE_THRESHOLD,
            lambda cut: (sigma, spectral1d._certified(self._factor_at, sigma)),
        )
        return np.sort(-vals)[::-1]


def fractional_moment_audit(
    potential: SampledPotential,
    operator_exponent: float,
    comparison_constant: float,
    box_margin: float = 10.0,
    num_points: int = 1024,
    base_tolerance: float = 1e-6,
) -> BoundReport:
    """Sum of E_j^{(beta-1)/beta} against (c0/2pi) * integral of V_-.

    The spectrum is computed twice, on boxes of radius L and 2L at the same
    grid step; retained levels must agree within the drift budget or the box
    is rejected as too small for the dispersion's spatial decay.
    """
    beta = operator_exponent
    if beta <= 1.0:
        raise ValueError("operator exponent must exceed 1")
    if potential.matrix_dim != 1:
        raise ValueError("audit takes scalar potentials")
    potentials.require_nonpositive(potential)
    box_radius = potential.support_radius + box_margin
    small = PeriodicOperator.on_box(potential, beta, box_radius, num_points).negative_levels()
    operator = PeriodicOperator.on_box(potential, beta, 2.0 * box_radius, 2 * num_points)
    levels = operator.negative_levels()
    paired = min(small.size, levels.size)
    drift = float(np.abs(levels[:paired] - small[:paired]).max(initial=0.0))
    extra = levels[paired:]
    if drift > DRIFT_BUDGET or (extra > 10.0 * DRIFT_BUDGET).any():
        raise ValueError(
            f"box too small: eigenvalue drift {drift:.2e} under box doubling"
        )
    power = (beta - 1.0) / beta
    lhs = float((levels**power).sum())
    # a backward-stable solve moves each level by up to eps * ||A||_2 <= eps * ||A||_1,
    # and the matrix-free levels stay within that of a dense solve of A
    uncertainty = drift + np.finfo(float).eps * operator.norm_1()
    safe = levels > 2.0 * uncertainty
    lhs_error = float(
        (power * (levels[safe] - uncertainty) ** (power - 1.0) * uncertainty).sum()
        + 2.0 * uncertainty**power * (~safe).sum()
    )
    rhs = (
        comparison_constant
        / (2.0 * math.pi)
        * potentials.trace_power_integral(potential, "minus", 1.0)
    )
    moment_spec = (
        BoundSpec(power, 1, "upper", 1.0, "bound:fractional-moment")
        if power >= 0.5
        else None
    )
    return comparison_report(
        "fractional-moment",
        "upper",
        lhs,
        rhs,
        spec=moment_spec,
        base_tolerance=base_tolerance,
        lhs_error=lhs_error,
        provenance={
            "operator_exponent": beta,
            "comparison_constant": comparison_constant,
            "box_radius": box_radius,
            "num_points": num_points,
            "drift": drift,
            "levels": int(levels.size),
        },
    )
