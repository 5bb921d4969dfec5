"""Planar grid operators, plain and magnetic, and the dimension-lifting audit.

The operator lives on the interior of (-L, L)^2 with Dirichlet walls and a
5-point kinetic stencil.  A vector potential enters as link phases: each
hopping term picks up the line integral of the field along its edge,
evaluated by the midpoint rule, which keeps the discrete gauge transform
exact for any quadratic gauge function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, orth

from . import spectral1d
from .bounds import classical_constant, constant_factor
from .potentials import simpson_weights
from .reports import BoundReport, BoundSpec, comparison_report
from .spectral1d import DiscretizedOperator1D, NegativeSpectrum

GRID_CAP = 160
PLANE_QUAD_POINTS = 801


@dataclass(frozen=True)
class GridOperator2D:
    """Dirichlet 5-point operator with optional Peierls link phases.

    Interior nodes x_i = -L + h*(i+1) on both axes, flattened row-major as
    index = i*M + j for (x_i, y_j).  theta_x[i, j] holds the line integral
    of the vector potential along the edge (i, j) -> (i+1, j); theta_y the
    same for (i, j) -> (i, j+1).  Both None means no field and a real
    symmetric matrix.
    """

    box_radius: float
    num_interior: int
    potential_values: np.ndarray
    theta_x: np.ndarray | None = None
    theta_y: np.ndarray | None = None

    def __post_init__(self):
        m = self.num_interior
        _nodes(self.box_radius, m)  # raises on a count outside [8, GRID_CAP]
        v = np.asarray(self.potential_values, dtype=float)
        object.__setattr__(self, "potential_values", v)
        if v.shape != (m, m):
            raise ValueError("potential_values must be (num_interior, num_interior)")
        if self.theta_x is not None:
            tx = np.asarray(self.theta_x, dtype=float)
            ty = np.asarray(self.theta_y, dtype=float)
            if tx.shape != (m - 1, m) or ty.shape != (m, m - 1):
                raise ValueError("link phase arrays have wrong shape")
            object.__setattr__(self, "theta_x", tx)
            object.__setattr__(self, "theta_y", ty)

    @property
    def grid_step(self) -> float:
        return _nodes(self.box_radius, self.num_interior)[1]

    @property
    def is_magnetic(self) -> bool:
        return self.theta_x is not None

    @property
    def size(self) -> int:
        return self.num_interior**2

    def to_sparse(self) -> sp.csc_matrix:
        """The 5-point stencil as five diagonals: offsets 0, +-1 (y hops), +-M (x hops).

        The y hop out of the last node of a grid row, (i, M-1) -> (i+1, 0),
        joins no edge, so the +-1 diagonals hold a zero there.
        """
        m = self.num_interior
        inv_h2 = 1.0 / self.grid_step**2
        links = (np.ones((m - 1, m)), np.ones((m, m - 1)))
        if self.is_magnetic:
            links = (np.exp(-1j * self.theta_x), np.exp(-1j * self.theta_y))
        hop_x = -inv_h2 * links[0].ravel()
        hop_y = np.zeros((m, m), dtype=links[1].dtype)
        hop_y[:, :-1] = -inv_h2 * links[1]
        hop_y = hop_y.ravel()[:-1]
        main = 4.0 * inv_h2 + self.potential_values.ravel()
        return sp.diags(
            [main, hop_y, np.conj(hop_y), hop_x, np.conj(hop_x)],
            [0, 1, -1, m, -m],
            format="csc",
        )

    def to_dense(self) -> np.ndarray:
        return self.to_sparse().toarray()


def _nodes(box_radius: float, num_interior: int) -> tuple[np.ndarray, float]:
    """Nodes -L + h*(i+1) inside (-L, L) and h = 2L/(M+1); M outside [8, GRID_CAP] raises."""
    if num_interior < 8:
        raise ValueError("need at least 8 interior points per side")
    if num_interior > GRID_CAP:
        raise ValueError(f"grid cap {GRID_CAP} per side exceeded")
    h = 2.0 * box_radius / (num_interior + 1)
    return -box_radius + h * (1 + np.arange(num_interior)), h


def build_operator_2d(
    potential,
    box_radius: float,
    num_interior: int,
    vector_potential=None,
) -> GridOperator2D:
    """Sample a scalar field (and optional vector field) onto the grid.

    potential maps meshgrid arrays (X, Y) to values; vector_potential maps
    midpoint meshes to the pair (a_x, a_y).  An identically vanishing field
    is dropped so the assembled matrix stays real.
    """
    x, h = _nodes(box_radius, num_interior)
    X, Y = np.meshgrid(x, x, indexing="ij")
    values = np.asarray(potential(X, Y), dtype=float)
    theta_x = theta_y = None
    if vector_potential is not None:
        ax_mid, _ = vector_potential(X[:-1, :] + 0.5 * h, Y[:-1, :])
        _, ay_mid = vector_potential(X[:, :-1], Y[:, :-1] + 0.5 * h)
        theta_x = h * np.asarray(ax_mid, dtype=float)
        theta_y = h * np.asarray(ay_mid, dtype=float)
        if not theta_x.any() and not theta_y.any():
            theta_x = theta_y = None
    return GridOperator2D(
        box_radius=box_radius,
        num_interior=num_interior,
        potential_values=values,
        theta_x=theta_x,
        theta_y=theta_y,
    )


def constant_field(strength: float):
    """Vector potential (-B y, 0) of a uniform field B in the Landau gauge."""
    return lambda X, Y: (-strength * Y, np.zeros_like(X))


def negative_spectrum_2d(op: GridOperator2D) -> NegativeSpectrum:
    """All eigenvalues below -ENERGY_EDGE_THRESHOLD: inertia count, then shift-invert Lanczos.

    The kinetic form stays nonnegative with or without link phases, so the
    bottom of the spectrum lies above min(V), and min(V) - 0.1 is the floor
    from which spectral1d._placed_shift places the shift.
    """
    floor = float(op.potential_values.min()) - 0.1
    vals = spectral1d._sparse_levels(
        op.to_sparse(), floor, spectral1d.ENERGY_EDGE_THRESHOLD
    )
    return NegativeSpectrum(energies=np.sort(-vals)[::-1], num_interior=op.num_interior)


def plane_moment_integral(potential, box_radius: float, gamma: float) -> float:
    """Tensor Simpson quadrature of max(-V, 0)^(gamma+1) over the box."""
    x = np.linspace(-box_radius, box_radius, PLANE_QUAD_POINTS)
    w = simpson_weights(PLANE_QUAD_POINTS, x[1] - x[0])
    X, Y = np.meshgrid(x, x, indexing="ij")
    neg = np.maximum(-np.asarray(potential(X, Y), dtype=float), 0.0)
    return float(w @ (neg ** (gamma + 1.0)) @ w)


def lt_audit_2d(
    potential,
    spectrum: NegativeSpectrum,
    gamma: float,
    box_radius: float,
    magnetic: bool = False,
    base_tolerance: float = 1e-3,
) -> BoundReport:
    """Planar Riesz mean against factor * L^cl_{gamma,2} * integral V_-^(gamma+1).

    The factor-1 magnetic variant needs gamma >= 3/2; no claim is made that
    the link-phase discretization preserves the sharp constants, so the
    certified eigenvalue budget rides on top of base_tolerance.
    """
    if not 0.5 <= gamma <= 2.5:
        raise ValueError("gamma must lie in [1/2, 5/2]")
    if magnetic and gamma < 1.5:
        raise ValueError("the magnetic factor-1 bound needs gamma >= 3/2")
    factor = 1.0 if magnetic else constant_factor(gamma, 2)
    lhs = spectrum.riesz_mean(gamma)
    rhs = factor * classical_constant(gamma, 2) * plane_moment_integral(
        potential, box_radius, gamma
    )
    tag = "lt-2d-magnetic" if magnetic else "lt-2d"
    citation = "bound:plane-moment-magnetic" if magnetic else "bound:plane-moment"
    return comparison_report(
        tag,
        "upper",
        lhs,
        rhs,
        spec=BoundSpec(gamma, 2, "upper", factor, citation),
        base_tolerance=base_tolerance,
        lhs_error=spectrum.riesz_mean_error(gamma),
        provenance={
            "gamma": gamma,
            "magnetic": magnetic,
            "levels": spectrum.count,
            "grid": spectrum.num_interior,
        },
    )


def _quadratic_gauge(coefficients):
    """chi = c1 x + c2 y + c3 x^2 + c4 x y + c5 y^2."""
    c1, c2, c3, c4, c5 = coefficients
    return lambda X, Y: c1 * X + c2 * Y + c3 * X**2 + c4 * X * Y + c5 * Y**2


def _quadratic_gauge_shift(base, coefficients):
    """base + grad chi for the quadratic gauge function chi of coefficients."""
    c1, c2, c3, c4, c5 = coefficients

    def shifted(X, Y):
        ax, ay = base(X, Y)
        return (
            ax + c1 + 2.0 * c3 * X + c4 * Y,
            ay + c2 + c4 * X + 2.0 * c5 * Y,
        )

    return shifted


def gauge_invariance_check(
    potential,
    box_radius: float,
    num_interior: int,
    field_strength: float = 1.0,
    seed: int = 5,
    tolerance: float = 1e-8,
) -> list[BoundReport]:
    """Gauge shifts must conjugate the operator; zero field must be real.

    The midpoint rule integrates the gradient of any quadratic gauge
    function chi exactly along each edge, so H_(A + grad chi) = G H_A G*
    with G = diag(exp(i chi)) holds entry by entry up to roundoff.  The lhs
    is the largest row sum of |H_(A + grad chi) - G H_A G*|, which bounds
    how far any eigenvalue can move (Weyl).  Three seeded quadratic shifts
    and the Landau-to-symmetric change of gauge, chi = B x y / 2, are
    checked.
    """
    landau = constant_field(field_strength)
    base_op = build_operator_2d(potential, box_radius, num_interior, landau)
    base = base_op.to_sparse()
    x, _ = _nodes(box_radius, num_interior)
    X, Y = np.meshgrid(x, x, indexing="ij")
    rng = np.random.default_rng(seed)
    gauges = [(0.0, 0.0, 0.0, 0.5 * field_strength, 0.0)]
    gauges += [rng.uniform(-1.0, 1.0, 5) for _ in range(3)]
    worst = 0.0
    for coefficients in gauges:
        field = _quadratic_gauge_shift(landau, coefficients)
        op = build_operator_2d(potential, box_radius, num_interior, field)
        g = sp.diags(np.exp(1j * _quadratic_gauge(coefficients)(X, Y)).ravel())
        gap = op.to_sparse() - g @ base @ g.conj()
        worst = max(worst, float(abs(gap).sum(axis=1).max()))
    invariance = BoundReport(
        audit_tag="gauge-invariance",
        lhs=worst,
        rhs=0.0,
        tolerance=tolerance,
        passed=worst <= tolerance,
        residual=worst,
        provenance={
            "shifts": len(gauges),
            "field": field_strength,
            "grid": num_interior,
        },
    )
    plain = build_operator_2d(potential, box_radius, num_interior).to_sparse()
    zero_field = build_operator_2d(
        potential,
        box_radius,
        num_interior,
        lambda X, Y: (np.zeros_like(X), np.zeros_like(Y)),
    ).to_sparse()
    gap = (plain - zero_field).count_nonzero()
    same_dtype = plain.dtype == zero_field.dtype
    reduction = BoundReport(
        audit_tag="gauge-zero-field",
        lhs=float(gap),
        rhs=0.0,
        tolerance=0.0,
        passed=gap == 0 and same_dtype,
        residual=float(gap),
        provenance={"same_dtype": same_dtype},
    )
    return [invariance, reduction]


def diamagnetic_trend_check(
    plain: NegativeSpectrum,
    magnetic: NegativeSpectrum,
    gamma: float = 1.5,
    field_strength: float = 1.0,
) -> BoundReport:
    """Field-on Riesz mean against field-off, at gamma >= 3/2.

    plain and magnetic are the solved spectra of one well on one grid,
    without and with the field.  This is corpus-level evidence, not a
    theorem; a violation is reported as inconclusive so it never gates a run.
    """
    lhs = magnetic.riesz_mean(gamma)
    rhs = plain.riesz_mean(gamma)
    holds = lhs <= rhs * (1.0 + 1e-9) + 1e-12
    return BoundReport(
        audit_tag="diamagnetic-trend",
        lhs=lhs,
        rhs=rhs,
        tolerance=1e-9,
        passed=holds,
        inconclusive=not holds,
        spec=BoundSpec(gamma, 2, "upper", 1.0, "trend:diamagnetic"),
        residual=rhs - lhs,
        provenance={"field": field_strength, "gamma": gamma},
    )


def lifting_inequality_audit(
    potential,
    box_radius: float,
    num_interior: int,
    gamma: float,
    spectrum_2d: NegativeSpectrum,
    base_tolerance: float = 1e-9,
) -> BoundReport:
    """Planar Riesz mean against the operator-valued 1D comparison problem.

    Per slice y_j the transverse operator W(y_j) = -d^2/dx^2 + V(., y_j)
    gives its negative eigenpairs by tridiagonal bisection.  The planar
    operator lies above T_y (x) I - (+)_j W_-(y_j).  Every W_-(y_j)
    vanishes off the span S of all slices' negative eigenvectors, so that
    comparison is nonnegative on S^perp and its negative spectrum is exactly
    that of its compression to S, which the 1D solver takes as a dim S
    channel well.  spectrum_2d is the solved planar spectrum on the same grid.
    """
    if gamma < 0.5:
        raise ValueError("need gamma >= 1/2")
    op = build_operator_2d(potential, box_radius, num_interior)
    m = op.num_interior
    h = op.grid_step
    lhs = spectrum_2d.riesz_mean(gamma)

    slices = []
    for column in op.potential_values.T:
        mu, vecs = eigh_tridiagonal(
            2.0 / h**2 + column, np.full(m - 1, -1.0 / h**2),
            select="v", select_range=(-np.inf, 0.0),
        )
        slices.append((-mu, vecs))
    negative = np.hstack([vecs for _, vecs in slices])
    basis = orth(negative) if negative.size else negative
    levels = np.empty(0)
    if basis.shape[1]:
        blocks = np.empty((m, basis.shape[1], basis.shape[1]))
        for j, (depth, vecs) in enumerate(slices):
            coords = basis.T @ vecs
            blocks[j] = -(coords * depth) @ coords.T
        levels = spectral1d.negative_spectrum(
            DiscretizedOperator1D(
                box_radius=box_radius, num_interior=m, potential_blocks=blocks
            )
        ).energies
    rhs = float((levels**gamma).sum())
    return comparison_report(
        "lifting-2d",
        "upper",
        lhs,
        rhs,
        spec=BoundSpec(gamma, 2, "upper", 1.0, "identity:dimension-lifting"),
        base_tolerance=base_tolerance,
        provenance={
            "channels": basis.shape[1],
            "levels_2d": spectrum_2d.count,
            "levels_1d": levels.size,
            "grid": m,
        },
    )


def gaussian_well_2d(depth: float, width: float):
    def v(X, Y):
        return -depth * np.exp(-(X**2 + Y**2) / width**2)

    return v


def separable_well_2d(base):
    """V(x, y) = v(x) + v(y) from a scalar 1D sampled potential."""
    if base.matrix_dim != 1:
        raise ValueError("separable construction needs a scalar 1D potential")

    def v(X, Y):
        vx = base.sample_at(X.ravel())[:, 0, 0].real.reshape(X.shape)
        vy = base.sample_at(Y.ravel())[:, 0, 0].real.reshape(Y.shape)
        return vx + vy

    return v
