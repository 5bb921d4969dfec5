"""Fractional-dispersion operators |p|^beta + V and comparison densities.

The comparison density is the symmetric stable law with characteristic
function exp(-scale*|x|^alpha), evaluated by oscillatory quadrature.  Its
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

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytrs
from scipy.sparse.linalg import LinearOperator

from . import potentials, spectral1d
from .potentials import SampledPotential, simpson_weights
from .reports import BoundReport, BoundSpec, comparison_report

DENSITY_QUAD_LIMIT = 400
DENSITY_ERROR_CAP = 1e-9
MASS_TOLERANCE = 1e-6
POINTWISE_SLACK = 1e-9
DRIFT_BUDGET = 1e-6
REFINEMENT_TOLERANCE = 1e-4
MASS_SEGMENTS = ((0.0, 2.0, 401), (2.0, 10.0, 161), (10.0, 60.0, 201))
# characteristic_function_check inverts the tabulation rule at these x
CHARACTERISTIC_POINTS = (0.5, 1.0, 2.0)
# a tabulation with its refinement and checks evaluates about 3,000 points;
# the bound keeps ten of those, a few MB, for the life of the process
DENSITY_CACHE_POINTS = 1 << 15


@functools.lru_cache(maxsize=DENSITY_CACHE_POINTS)
def _density_value(stability_index: float, scale: float, momentum: float):
    """One point of the stable density, with the quadrature error estimate.

    Cached for the process: a refined grid whose even points are the coarse
    grid, and the mass check of a second tabulation, repeat no quadrature.
    """
    from scipy.integrate import quad

    p = abs(momentum)

    def envelope(x):
        return math.exp(-scale * x**stability_index)

    if p == 0.0:
        value, err = quad(
            envelope,
            0.0,
            np.inf,
            epsabs=1e-12,
            epsrel=1e-12,
            limit=DENSITY_QUAD_LIMIT,
        )
    else:
        value, err = quad(
            envelope,
            0.0,
            np.inf,
            weight="cos",
            wvar=p,
            epsabs=1e-12,
            limit=DENSITY_QUAD_LIMIT,
        )
    return value / math.pi, err / math.pi


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
        if grid.ndim != 1 or grid.size < 16:
            raise ValueError("momentum grid must be 1d with at least 16 points")
        if (np.diff(grid) <= 0).any() or grid[0] < 0:
            raise ValueError("momentum grid must be increasing and nonnegative")
        if values.shape != grid.shape:
            raise ValueError("density values must match the grid")
        if values.min() < -POINTWISE_SLACK:
            raise ValueError("density must be nonnegative up to quadrature slack")

    def evaluate(self, momentum: float) -> float:
        return _density_value(self.stability_index, self.scale, momentum)[0]

    def total_mass(self) -> float:
        """Integral over the whole line: segment Simpson sums plus the exact
        remainder, which Fubini turns into one oscillatory integral of
        (exp(-scale*x^alpha) - 1)/x against sin(Px)."""
        from scipy.integrate import quad

        half = 0.0
        for lo, hi, count in MASS_SEGMENTS:
            x = np.linspace(lo, hi, count)
            y = np.array([self.evaluate(p) for p in x])
            half += float(simpson_weights(count, x[1] - x[0]) @ y)
        edge = MASS_SEGMENTS[-1][1]

        def centered(x):
            return (math.exp(-self.scale * x**self.stability_index) - 1.0) / x

        def near_origin(x):
            if x == 0.0:
                return 0.0
            return centered(x) * math.sin(edge * x)

        inner, _ = quad(
            near_origin, 0.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=DENSITY_QUAD_LIMIT
        )
        outer, _ = quad(
            centered,
            1.0,
            np.inf,
            weight="sin",
            wvar=edge,
            epsabs=1e-12,
            limit=DENSITY_QUAD_LIMIT,
        )
        tail = -(inner + outer) / math.pi
        return 2.0 * (half + tail)


def default_momentum_grid(cutoff: float = 40.0, count: int = 801) -> np.ndarray:
    return np.linspace(0.0, cutoff, count)


def stable_density(
    stability_index: float, scale: float, momentum_grid=None
) -> ComparisonDensity:
    """Tabulate the stable density and verify it against two exact anchors.

    The value at zero must reproduce the Gamma-integral closed form and the
    total mass must come out as 1; both are rejected outside tight margins
    because every later certificate leans on these tabulated values.
    """
    if not 0.0 < stability_index < 2.0:
        raise ValueError("stability index must lie in (0, 2)")
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if momentum_grid is None:
        momentum_grid = default_momentum_grid()
    grid = np.asarray(momentum_grid, dtype=float)
    values = np.empty_like(grid)
    worst_err = 0.0
    for i, p in enumerate(grid):
        values[i], err = _density_value(stability_index, scale, p)
        worst_err = max(worst_err, err)
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
    at_zero = density.evaluate(0.0)
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
    a bounded scalar search, and certified beyond the grid by sampling the
    ratio at geometrically spaced points past the cutoff: the density tail
    decays like |p|^{-(1+alpha)} while the weight decays like |p|^{-beta},
    so once beta >= alpha + 1 and the samples decrease, the grid cutoff
    dominates everything beyond it.
    """
    from scipy.optimize import minimize_scalar

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

    def negated(p):
        phi = density.evaluate(p)
        return -1.0 / ((p**beta + 1.0) * phi)

    lo = grid[max(peak - 1, 0)]
    hi = grid[min(peak + 1, grid.size - 1)]
    if hi > lo:
        polished = minimize_scalar(negated, bounds=(lo, hi), method="bounded")
        best = max(best, float(-polished.fun))
    cutoff = float(grid[-1])
    samples = [-negated(cutoff * f) for f in (1.0, 1.5, 2.0, 3.0, 4.0)]
    slack = 1e-9
    if any(b > a * (1.0 + slack) for a, b in zip(samples, samples[1:])):
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
    """Fourier-invert the tabulation rule back to exp(-scale*|x|^alpha)."""
    from scipy.integrate import quad

    worst = 0.0
    for x in CHARACTERISTIC_POINTS:
        value, _ = quad(
            density.evaluate,
            0.0,
            np.inf,
            weight="cos",
            wvar=float(x),
            limit=DENSITY_QUAD_LIMIT,
        )
        target = math.exp(-density.scale * abs(x) ** density.stability_index)
        worst = max(worst, abs(2.0 * value - target))
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

    def negative_levels(self, threshold: float) -> np.ndarray:
        """Binding energies |E| of the eigenvalues below -threshold, deepest first.

        spectral1d._shift_invert_levels solves from the floor sigma =
        1.15 min V - 0.05 < min V <= A, not from spectral1d._placed_shift:
        each certifying factor is a dense m x m one, dearer than the
        applications a closer shift saves.  A zero V has no level to factor.
        """
        if not self.samples.any():
            return np.empty(0)
        sigma = 1.15 * float(self.samples.min()) - 0.05
        vals = spectral1d._shift_invert_levels(
            LinearOperator((self.size, self.size), matvec=self.matvec, dtype=float),
            self._factor_at,
            np.finfo(float).eps * self.norm_1(),
            threshold,
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
    small = PeriodicOperator.on_box(
        potential, beta, box_radius, num_points
    ).negative_levels(spectral1d.ENERGY_EDGE_THRESHOLD)
    operator = PeriodicOperator.on_box(potential, beta, 2.0 * box_radius, 2 * num_points)
    levels = operator.negative_levels(spectral1d.ENERGY_EDGE_THRESHOLD)
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
