"""Compactly supported Hermitian matrix potentials sampled on uniform grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

SUPPORT_THRESHOLD = 1e-14
HERMITICITY_TOL = 1e-12
NONPOSITIVITY_TOL = 1e-12
POINTS_PER_FEATURE = 8


def simpson_weights(num_points: int, step: float) -> np.ndarray:
    """Composite-Simpson weights on an odd number of at least 3 points."""
    if num_points < 3 or num_points % 2 == 0:
        raise ValueError("Simpson needs an odd number of points >= 3")
    w = np.full(num_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (step / 3.0)


# Double-exponential quadrature.  Each rule is a trapezoid sum whose step
# halves from one level to the next; a value is taken at the finer of two
# levels, with |I_h - I_{h/2}| plus the rounding bound of its sum as its error.
DE_LEVELS = 4
# the block of integrands evaluated at once keeps every temporary near 2 MB
DE_BLOCK_BYTES = 1 << 21
# first-order rounding of a pairwise sum of a few thousand terms, each good
# to a few ulps, relative to the sum of their magnitudes
DE_ROUNDOFF = 16.0 * np.finfo(float).eps


def _ooura_mori(kind: str, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x_k and weights w_k with int_0^inf f(x) trig(w x) dx ~ (pi/w) sum_k w_k f(x_k/w).

    Ooura and Mori (1999): x = M phi(t) / w with phi(t) = t / (1 - e^{-u(t)}),
    u(t) = 2t + a (1 - e^{-t}) + b (e^t - 1), b = 1/4 and a = b / sqrt(1 +
    M log(1 + M) / 4 pi), on the trapezoid t = k h (sine) or (k - 1/2) h
    (cosine) of step h = pi / M, M = 40 * 2^level.  M phi(t) approaches the
    zeros of the factor double-exponentially as t grows, and phi(t) -> 0 as t
    falls.  For t > 0 the factor is +-sin(M (t - phi)), so no large argument
    is reduced.  Nodes whose weight or phi underflows are dropped.
    """
    m = 40 * 2**level
    h = math.pi / m
    b = 0.25
    a = b / math.sqrt(1.0 + m * math.log1p(m) / (4.0 * math.pi))
    k = np.arange(-int(12.0 / h), int(9.0 / h) + 1)
    t = (k - 0.5) * h if kind == "cos" else k * h
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = 2.0 * t - a * np.expm1(-t) + b * np.expm1(t)
        du = 2.0 + a * np.exp(-t) + b * np.exp(t)
        d = -np.expm1(-u)
        phi = t / d
        dphi = (1.0 - t * du / np.expm1(u)) / d
        # M phi = M t - M (t - phi), and M t is an odd multiple of pi/2 (cosine) or a multiple of pi
        near_zero = np.where(k % 2 == 0, 1.0, -1.0) * np.sin(m * t * np.exp(-u) / d)
        if kind == "cos":
            trig = np.where(t <= 0, np.cos(m * phi), near_zero)
        else:
            trig = np.where(t <= 0, np.sin(m * phi), near_zero)
            # t = 0: phi and phi' by their limits, from u = u1 t + u2 t^2 + ...
            u1, u2 = 2.0 + a + b, 0.5 * (b - a)
            phi[k == 0], dphi[k == 0] = 1.0 / u1, 0.5 - u2 / u1**2
            trig[k == 0] = math.sin(m / u1)
        weights = trig * dphi
    keep = (phi > 1e-300) & (np.abs(weights) > 1e-300)
    return m * phi[keep], weights[keep]


def _exp_sinh(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (0, inf): x = exp(pi/2 sinh t), t = k h, h = 2^-(level+1)."""
    h = 0.5**(level + 1)
    t = h * np.arange(-int(6.0 / h), int(6.0 / h) + 1)
    x = np.exp(0.5 * math.pi * np.sinh(t))
    return x, h * 0.5 * math.pi * np.cosh(t) * x


def _tanh_sinh(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on (-1, 1): x = tanh(pi/2 sinh t), t = k h, h = 2^-(level+1).

    Nodes that round to an endpoint are dropped.
    """
    h = 0.5**(level + 1)
    t = h * np.arange(-int(3.5 / h), int(3.5 / h) + 1)
    s = 0.5 * math.pi * np.sinh(t)
    x = np.tanh(s)
    weights = h * 0.5 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    keep = np.abs(x) < 1.0
    return x[keep], weights[keep]


def _rule_sums(nodes, weights, integrand, rows):
    """sum_k w_k g_i(x_k) and sum_k |w_k g_i(x_k)| for the integrands i in rows.

    integrand(rows, x) is g_i(x) for those rows at the nodes, one row each;
    rows go a block at a time, and a row's sum does not depend on its block.
    """
    block = max(1, DE_BLOCK_BYTES // (8 * nodes.size))
    total = np.empty(rows.size)
    size = np.empty(rows.size)
    for lo in range(0, rows.size, block):
        # far nodes overflow some integrands to their limit, as exp(-inf) = 0
        with np.errstate(over="ignore"):
            terms = integrand(rows[lo : lo + block], nodes) * weights
        total[lo : lo + block] = terms.sum(axis=1)
        size[lo : lo + block] = np.abs(terms).sum(axis=1)
    return total, size


def _doubled(rule, integrand, scale, target, first=0, last=DE_LEVELS):
    """scale_i times the rule's sum for each integrand i, at the first level meeting target.

    The driver of fourier_integral, finite_integral and the scattering
    k-moments.  Each integrand doubles its level, from `first` to at most
    `last`, until its error estimate meets target; integrand(rows, x) is
    asked only for the rows still doubling.  Returns the values, their
    error estimates and the magnitude scale_i * sum |terms| at the last level
    each reached.
    """
    rows = np.arange(scale.size)
    value = _rule_sums(*rule(first), integrand, rows)[0] * scale
    error = np.empty(scale.size)
    size = np.empty(scale.size)
    for level in range(first + 1, last + 1):
        fine, magnitude = _rule_sums(*rule(level), integrand, rows)
        fine *= scale[rows]
        size[rows] = magnitude * np.abs(scale[rows])
        error[rows] = np.abs(fine - value[rows]) + DE_ROUNDOFF * size[rows]
        value[rows] = fine
        rows = rows[error[rows] > target]
        if not rows.size:
            break
    return value, error, size


def fourier_integral(f, omegas, kind: str, target: float) -> tuple[np.ndarray, np.ndarray]:
    """int_0^inf f(x) cos(w x) dx (kind "cos") or sin(w x) ("sin") for each w >= 0.

    f maps an array of x > 0 to f(x) elementwise.  Every w > 0 starts on the
    Ooura-Mori rule at levels 0 and 1.  w = 0, and any w whose estimate
    misses target or whose terms all vanish (w so small that every node lies
    beyond where f lives), goes through exp-sinh on f(x) trig(w x), which
    resolves a slow factor at any scale.  A w > 0 that still misses target
    then doubles the Ooura-Mori level from 1 on.  Each w keeps its smallest
    estimate.  Returns values and error estimates.
    """
    omegas = np.asarray(omegas, dtype=float)
    trig = {"cos": np.cos, "sin": np.sin}[kind]
    value = np.zeros(omegas.size)
    error = np.full(omegas.size, np.inf)

    def keep_better(rows, again, again_error):
        better = again_error < error[rows]
        value[rows[better]] = again[better]
        error[rows[better]] = again_error[better]

    def ooura_mori(rows, first, last):
        w = omegas[rows]
        again, again_error, size = _doubled(
            lambda level: _ooura_mori(kind, level),
            lambda block, x: f(x / w[block, None]),
            math.pi / w,
            target,
            first,
            last,
        )
        again_error[size == 0.0] = np.inf
        keep_better(rows, again, again_error)

    ooura_mori(np.flatnonzero(omegas > 0.0), 0, 1)
    retry = np.flatnonzero(error > target)
    if retry.size:
        w = omegas[retry]
        again, again_error, _ = _doubled(
            _exp_sinh, lambda block, x: f(x) * trig(w[block, None] * x), np.ones(retry.size), target
        )
        keep_better(retry, again, again_error)
    retry = np.flatnonzero((error > target) & (omegas > 0.0))
    if retry.size:
        ooura_mori(retry, 1, DE_LEVELS)
    return value, error


def finite_integral(f, lo: float, hi: float, target: float) -> tuple[float, float]:
    """int_lo^hi f(x) dx by tanh-sinh, with its error estimate; f is elementwise."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    value, error, _ = _doubled(
        _tanh_sinh, lambda rows, x: f(mid + half * x[None, :]), np.array([half]), target
    )
    return float(value[0]), float(error[0])


@dataclass(frozen=True)
class SampledPotential:
    """Hermitian n x n potential sampled at grid_start + i*grid_step.

    The declared support must lie inside the sampled window; samples outside
    the support stay below SUPPORT_THRESHOLD in max-entry norm.  evaluator
    and derivative_evaluator give V and dV/dx at arbitrary points, shape
    (len(x), n, n), so operators on other grids resample exactly; a V with
    jumps has no derivative_evaluator (None).
    """

    grid_start: float
    grid_step: float
    values: np.ndarray
    support: tuple[float, float]
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False, compare=False)
    derivative_evaluator: Callable[[np.ndarray], np.ndarray] | None = field(
        repr=False, compare=False
    )

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise ValueError("values must have shape (N, n, n)")
        if v.shape[0] < 3:
            raise ValueError("need at least 3 samples")
        if not (self.grid_step > 0.0):
            raise ValueError("grid_step must be positive")
        a, b = self.support
        if not (a < b):
            raise ValueError("support must be a nonempty interval")
        x = self.grid
        if a < x[0] - 1e-12 or b > x[-1] + 1e-12:
            raise ValueError("support must lie inside the sampled window")
        herm = np.abs(v - np.conj(np.swapaxes(v, 1, 2))).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"samples not Hermitian: max deviation {herm:.3e}")
        outside = (x < a - 1e-12) | (x > b + 1e-12)
        if outside.any():
            leak = np.abs(v[outside]).max()
            if leak > SUPPORT_THRESHOLD:
                raise ValueError(
                    f"samples outside the support reach {leak:.3e} "
                    f"(> {SUPPORT_THRESHOLD})"
                )

    @property
    def grid(self) -> np.ndarray:
        return self.grid_start + self.grid_step * np.arange(self.values.shape[0])

    @property
    def matrix_dim(self) -> int:
        return self.values.shape[1]

    @property
    def num_points(self) -> int:
        return self.values.shape[0]

    @property
    def support_radius(self) -> float:
        return max(abs(self.support[0]), abs(self.support[1]))

    def sample_at(self, x: np.ndarray) -> np.ndarray:
        """Values at arbitrary points from the analytic evaluator."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.asarray(self.evaluator(x), dtype=complex)
        if out.shape != (x.size, self.matrix_dim, self.matrix_dim):
            raise ValueError("evaluator returned wrong shape")
        return out

    def derivative_samples(self) -> np.ndarray:
        """dV/dx on the stored grid; raises for a V with jumps."""
        if self.derivative_evaluator is None:
            raise ValueError("V has jumps, so it has no derivative dV/dx")
        return self.derivative_evaluator(self.grid)


def _hermitian_apply(blocks: np.ndarray, f) -> np.ndarray:
    """f(blocks[x]) for each Hermitian block: f of its eigenvalues, symmetrized."""
    mu, u = np.linalg.eigh(blocks)
    out = np.einsum("xij,xj,xkj->xik", u, f(mu), np.conj(u))
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _part_sign(part: str) -> float:
    """1 for "plus", -1 for "minus"; any other part raises."""
    if part not in ("plus", "minus"):
        raise ValueError("part must be 'plus' or 'minus'")
    return 1.0 if part == "plus" else -1.0


def part_values(potential: SampledPotential, part: str) -> np.ndarray:
    """V_plus or V_minus at each sample, shape (N, n, n), from the pointwise
    eigendecomposition: V = V_plus - V_minus with commuting PSD parts."""
    sign = _part_sign(part)
    return _hermitian_apply(potential.values, lambda mu: np.maximum(sign * mu, 0.0))


def part_eigenvalues(potential: SampledPotential, part: str) -> np.ndarray:
    """Eigenvalues of V_plus or V_minus at each sample, shape (N, n), >= 0."""
    return np.maximum(_part_sign(part) * np.linalg.eigvalsh(potential.values), 0.0)


def require_nonpositive(potential: SampledPotential) -> None:
    """Raise unless every eigenvalue of V(x) is at most NONPOSITIVITY_TOL."""
    peak = float(part_eigenvalues(potential, "plus").max(initial=0.0))
    if peak > NONPOSITIVITY_TOL:
        raise ValueError(
            f"potential has a positive part (max eigenvalue {peak:.3e}); "
            "this audit requires a nonpositive matrix function"
        )


def _simpson(potential: SampledPotential, integrand: np.ndarray) -> float:
    """Composite Simpson of integrand, given at the stored samples, over the sampled window."""
    return float(simpson_weights(potential.num_points, potential.grid_step) @ integrand)


def trace_power_integral(potential: SampledPotential, part: str, power: float) -> float:
    """Simpson quadrature of tr(V_part(x)^power) over the sampled window."""
    if power < 0.5:
        raise ValueError("power must be >= 1/2")
    return _simpson(potential, (part_eigenvalues(potential, part) ** power).sum(axis=1))


def signed_trace_power_integral(potential: SampledPotential, power: int) -> float:
    """Simpson quadrature of tr(V(x)^power) for integer power (signed)."""
    if int(power) != power or power < 1:
        raise ValueError("power must be a positive integer")
    return _simpson(potential, (np.linalg.eigvalsh(potential.values) ** int(power)).sum(axis=1))


def derivative_square_integral(potential: SampledPotential) -> float:
    """Simpson quadrature of tr((dV/dx)^2) over the sampled window."""
    return _simpson(potential, (np.abs(potential.derivative_samples()) ** 2).sum(axis=(1, 2)))


def scale(potential: SampledPotential, coupling: float) -> SampledPotential:
    """Coupling-scaled copy alpha*V sharing the same grid and support."""
    c = float(coupling)
    ev = potential.evaluator
    dev = potential.derivative_evaluator
    return replace(
        potential,
        values=c * potential.values,
        evaluator=lambda x: c * ev(x),
        derivative_evaluator=None if dev is None else lambda x: c * dev(x),
    )


# ---------------------------------------------------------------------------
# families


def _sampled(v, dv, support: tuple[float, float], step: float) -> SampledPotential:
    """V and dV/dx on an odd-count grid of the given step over support +- 2 step."""
    start = support[0] - 2 * step
    count = int(math.ceil((support[1] + 2 * step - start) / step)) + 1
    count |= 1
    return SampledPotential(
        grid_start=start,
        grid_step=step,
        values=v(start + step * np.arange(count)),
        support=support,
        evaluator=v,
        derivative_evaluator=dv,
    )


def _check_resolution(step: float, feature: float, tag: str):
    if not step > 0:
        raise ValueError(f"{tag}: grid_step must be positive")
    if step * POINTS_PER_FEATURE > feature * (1 + 1e-12):
        raise ValueError(
            f"{tag}: grid_step {step} does not resolve the narrowest feature "
            f"{feature} with >= {POINTS_PER_FEATURE} points"
        )


def _check_integers(tag: str, least: int, **values):
    """Refuse a value that is not an integer (a bool or a fraction) or is below least."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{tag}: {name} must be an integer of at least {least}, not {value!r}")


def _scalar_family(x_eval, d_eval, support, step):
    a, b = support

    def masked(f):
        # hard zero outside the declared support so couplings cannot push
        # sub-threshold tails past the support check
        def g(xs):
            xs = np.asarray(xs, float)
            out = f(xs)[:, None, None].astype(complex)
            out[(xs < a - 1e-12) | (xs > b + 1e-12)] = 0.0
            return out

        return g

    return _sampled(masked(x_eval), None if d_eval is None else masked(d_eval), support, step)


def _build_square_well(depth: float, half_width: float, grid_step: float | None = None):
    if depth <= 0 or half_width <= 0:
        raise ValueError("square-well needs positive depth and half_width")
    h = half_width / 64.0 if grid_step is None else float(grid_step)
    _check_resolution(h, 2 * half_width, "square-well")
    edge_tol = 1e-12 * max(1.0, half_width)

    def v(x):
        r = np.abs(x)
        out = np.where(r < half_width - edge_tol, -depth, 0.0)
        # jump nodes carry the mean of the one-sided limits
        out = np.where(np.abs(r - half_width) <= edge_tol, -depth / 2.0, out)
        return out

    return _scalar_family(v, None, (-half_width, half_width), h)


def _build_poschl_teller(nu: float, grid_step: float | None = None):
    if nu <= 0:
        raise ValueError("poschl-teller needs nu > 0")
    depth = nu * (nu + 1)
    if depth <= SUPPORT_THRESHOLD:
        raise ValueError(f"poschl-teller: nu must make nu (nu + 1) exceed SUPPORT_THRESHOLD, not {nu!r}")
    h = 0.02 if grid_step is None else float(grid_step)
    _check_resolution(h, 1.0 / max(nu, 1.0), "poschl-teller")
    radius = float(np.arccosh(math.sqrt(depth / SUPPORT_THRESHOLD)))

    def v(x):
        s = 1.0 / np.cosh(x)
        return -depth * s * s

    def dv(x):
        s = 1.0 / np.cosh(x)
        return 2.0 * depth * s * s * np.tanh(x)

    return _scalar_family(v, dv, (-radius, radius), h)


def _build_gaussian(depth: float, width: float, grid_step: float | None = None):
    if depth <= 0 or width <= 0:
        raise ValueError("gaussian needs positive depth and width")
    if depth <= SUPPORT_THRESHOLD:
        raise ValueError(f"gaussian: depth must exceed SUPPORT_THRESHOLD = {SUPPORT_THRESHOLD}, not {depth!r}")
    h = width / 50.0 if grid_step is None else float(grid_step)
    _check_resolution(h, width, "gaussian")
    radius = width * math.sqrt(math.log(depth / SUPPORT_THRESHOLD))

    def v(x):
        return -depth * np.exp(-((x / width) ** 2))

    def dv(x):
        return depth * (2.0 * x / width**2) * np.exp(-((x / width) ** 2))

    return _scalar_family(v, dv, (-radius, radius), h)


def _build_rank_one_narrow(
    integral: float,
    width: float,
    matrix_dim: int = 2,
    direction: list | None = None,
    grid_step: float | None = None,
):
    """Narrow box well -(c/w) * indicator([0, w]) * P with P a fixed projector."""
    if integral <= 0 or width <= 0:
        raise ValueError("rank-one-narrow needs positive integral and width")
    _check_integers("rank-one-narrow", 1, matrix_dim=matrix_dim)
    n = matrix_dim
    if direction is None:
        theta = math.pi / 5.0
        e = np.zeros(n, dtype=complex)
        if n == 1:
            e[0] = 1.0
        else:
            e[0] = math.cos(theta)
            e[1] = math.sin(theta)
    else:
        e = np.asarray([complex(c[0], c[1]) if isinstance(c, (list, tuple)) else complex(c) for c in direction])
        if e.shape != (n,):
            raise ValueError("direction must have matrix_dim entries")
        e = e / np.linalg.norm(e)
    proj = np.outer(e, np.conj(e))
    depth = integral / width
    h = width / 16.0 if grid_step is None else float(grid_step)
    _check_resolution(h, width, "rank-one-narrow")
    edge_tol = 1e-12 * max(1.0, width)

    def v(x):
        x = np.asarray(x, float)
        inside = (x > edge_tol) & (x < width - edge_tol)
        onedge = (np.abs(x) <= edge_tol) | (np.abs(x - width) <= edge_tol)
        amp = np.where(inside, -depth, 0.0) + np.where(onedge, -depth / 2.0, 0.0)
        return amp[:, None, None] * proj[None, :, :]

    return _sampled(v, None, (0.0, width), h)


def _bump(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0 - 1e-12
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def _bump_derivative(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0 - 1e-12
    ui = u[inside]
    q = 1.0 - ui * ui
    out[inside] = np.exp(1.0 - 1.0 / q) * (-2.0 * ui / (q * q))
    return out


def _build_random_smooth(
    matrix_dim: int,
    seed: int,
    support_radius: float = 3.0,
    modes: int = 6,
    amplitude: float = 1.0,
    decay: float = 0.6,
    depth_offset: float = 0.0,
    real_valued: bool = False,
    grid_step: float | None = None,
):
    """Seeded Hermitized Fourier series under a smooth compactly supported bump.

    Mode m carries coefficient scale amplitude * decay^m; the bump window
    makes the result C-infinity with support [-a, a].
    """
    _check_integers("random-smooth", 1, matrix_dim=matrix_dim)
    _check_integers("random-smooth", 0, seed=seed, modes=modes)
    n = matrix_dim
    a = float(support_radius)
    if not a > 0:
        raise ValueError("random-smooth: support_radius must be positive")
    if not (0 < decay < 1):
        raise ValueError("decay ratio must sit in (0, 1)")
    rng = np.random.default_rng(seed)

    def herm():
        z = rng.standard_normal((n, n))
        if not real_valued:
            z = z + 1j * rng.standard_normal((n, n))
        return 0.5 * (z + np.conj(z.T))

    cos_coeff = []
    sin_coeff = []
    for m in range(1, modes + 1):
        s = amplitude * decay**m
        cos_coeff.append(s * herm())
        sin_coeff.append(s * herm())
    cos_coeff = np.array(cos_coeff)
    sin_coeff = np.array(sin_coeff)
    eye = np.eye(n, dtype=complex)

    def series(x):
        out = np.zeros((x.size, n, n), dtype=complex)
        for m in range(1, len(cos_coeff) + 1):
            th = m * math.pi * x / a
            out += np.cos(th)[:, None, None] * cos_coeff[m - 1]
            out += np.sin(th)[:, None, None] * sin_coeff[m - 1]
        out -= depth_offset * eye
        return out

    def series_derivative(x):
        out = np.zeros((x.size, n, n), dtype=complex)
        for m in range(1, len(cos_coeff) + 1):
            w = m * math.pi / a
            th = w * x
            out += (-w * np.sin(th))[:, None, None] * cos_coeff[m - 1]
            out += (w * np.cos(th))[:, None, None] * sin_coeff[m - 1]
        return out

    def v(x):
        x = np.asarray(x, float)
        return _bump(x / a)[:, None, None] * series(x)

    def dv(x):
        x = np.asarray(x, float)
        w = _bump(x / a)[:, None, None]
        wp = (_bump_derivative(x / a) / a)[:, None, None]
        return wp * series(x) + w * series_derivative(x)

    h = 2 * a / 600.0 if grid_step is None else float(grid_step)
    _check_resolution(h, a / max(modes, 1), "random-smooth")
    return _sampled(v, dv, (-a, a), h)


def direct_sum(first: SampledPotential, second: SampledPotential) -> SampledPotential:
    """Block-diagonal composition on a common refined grid."""
    h = min(first.grid_step, second.grid_step)
    lo = min(first.support[0], second.support[0])
    hi = max(first.support[1], second.support[1])
    n1, n2 = first.matrix_dim, second.matrix_dim
    n = n1 + n2

    def v(xs):
        xs = np.asarray(xs, float)
        out = np.zeros((xs.size, n, n), dtype=complex)
        out[:, :n1, :n1] = first.sample_at(xs)
        out[:, n1:, n1:] = second.sample_at(xs)
        return out

    def dv(xs):
        xs = np.asarray(xs, float)
        out = np.zeros((xs.size, n, n), dtype=complex)
        out[:, :n1, :n1] = first.derivative_evaluator(xs)
        out[:, n1:, n1:] = second.derivative_evaluator(xs)
        return out

    return _sampled(v, dv if first.derivative_evaluator and second.derivative_evaluator else None, (lo, hi), h)


FAMILY_BUILDERS = {
    "square-well": _build_square_well,
    "poschl-teller": _build_poschl_teller,
    "gaussian": _build_gaussian,
    "rank-one-narrow": _build_rank_one_narrow,
    "random-smooth": _build_random_smooth,
}
FAMILIES = (*sorted(FAMILY_BUILDERS), "direct-sum", "scaled")


def build_family(family: str, **parameters) -> SampledPotential:
    """Construct a named family member; see FAMILY_BUILDERS for tags.

    direct-sum takes blocks=[spec, spec] and scaled takes base=spec and
    coupling, each spec a {"family", "parameters"} dict built by build.
    """
    if family == "direct-sum":
        first, second = parameters["blocks"]
        return direct_sum(build(first), build(second))
    if family == "scaled":
        return scale(build(parameters["base"]), parameters["coupling"])
    builder = FAMILY_BUILDERS.get(family)
    if builder is None:
        raise ValueError(f"unknown family {family!r}; known: {list(FAMILIES)}")
    return builder(**parameters)


def build(spec: dict) -> SampledPotential:
    """The potential a {"family", "parameters"} spec names."""
    return build_family(spec["family"], **spec.get("parameters", {}))
