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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import circulant
from scipy.linalg.lapack import dlamch, dsyevr
from scipy.special import gamma as gamma_function

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


def _density_value(stability_index: float, scale: float, momentum: float):
    """One point of the stable density, with the quadrature error estimate."""
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
        gamma_function(1.0 + 1.0 / stability_index)
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
    density: ComparisonDensity, points=(0.5, 1.0, 2.0), tolerance: float = 1e-8
) -> BoundReport:
    """Fourier-invert the tabulation rule back to exp(-scale*|x|^alpha)."""
    from scipy.integrate import quad

    worst = 0.0
    for x in points:
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
        provenance={"points": list(points)},
    )


def periodic_operator(
    potential: SampledPotential,
    operator_exponent: float,
    box_radius: float,
    num_points: int,
) -> np.ndarray:
    """Dense |p|^beta + V on the periodic grid of the box [-L, L).

    The multiplier is diagonal in the discrete frequency basis; conjugating
    back to position space gives a symmetric circulant, assembled from the
    inverse transform of the symbol.
    """
    step = 2.0 * box_radius / num_points
    x = -box_radius + step * np.arange(num_points)
    momenta = 2.0 * math.pi * np.fft.fftfreq(num_points, d=step)
    symbol = np.abs(momenta) ** operator_exponent
    kernel = np.fft.ifft(symbol).real
    kinetic = circulant(kernel)
    kinetic = 0.5 * (kinetic + kinetic.T)
    v = potential.sample_at(x)[:, 0, 0].real
    return kinetic + np.diag(v)


def _negative_levels(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Binding energies |E| of the eigenvalues E <= -threshold, deepest first.

    Only the eigenvalues in the half-open (-inf, -threshold] are computed, by
    bisection on the tridiagonal form.  ABSTOL at the safe minimum (LAPACK's
    advice for high accuracy) runs each bisection to convergence instead of
    stopping at a width of eps * ||T||, which is about 1e-9 for the |p|^4
    operator of the bundled suite.
    """
    vals, _, count, _, info = dsyevr(
        matrix, compute_v=0, lower=1, range="V", vl=-np.inf, vu=-threshold,
        abstol=dlamch("S"),
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info = {info}")
    return np.sort(-vals[:count])[::-1]


def fractional_moment_audit(
    potential: SampledPotential,
    operator_exponent: float,
    comparison_constant: float,
    box_margin: float = 10.0,
    num_points: int = 1024,
    base_tolerance: float = 1e-6,
    threshold: float = spectral1d.ENERGY_EDGE_THRESHOLD,
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
    if potentials.part_eigenvalues(potential, "plus").max(initial=0.0) > 1e-12:
        raise ValueError("potential must be nonpositive")
    box_radius = potential.support_radius + box_margin
    small = _negative_levels(
        periodic_operator(potential, beta, box_radius, num_points), threshold
    )
    matrix = periodic_operator(potential, beta, 2.0 * box_radius, 2 * num_points)
    levels = _negative_levels(matrix, threshold)
    paired = min(small.size, levels.size)
    drift = float(np.abs(levels[:paired] - small[:paired]).max(initial=0.0))
    extra = levels[paired:]
    if drift > DRIFT_BUDGET or (extra > 10.0 * DRIFT_BUDGET).any():
        raise ValueError(
            f"box too small: eigenvalue drift {drift:.2e} under box doubling"
        )
    power = (beta - 1.0) / beta
    lhs = float((levels**power).sum())
    # a backward-stable solve moves each level by up to eps * ||A||_2 <= eps * ||A||_1
    uncertainty = drift + np.finfo(float).eps * float(np.linalg.norm(matrix, 1))
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
