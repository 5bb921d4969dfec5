"""Compactly supported Hermitian matrix potentials sampled on uniform grids."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

SUPPORT_THRESHOLD = 1e-14
HERMITICITY_TOL = 1e-12
POINTS_PER_FEATURE = 8

RECORD_SCHEMA = "ltlab.potential/1"


def simpson_weights(num_points: int, step: float) -> np.ndarray:
    """Composite-Simpson weights; trapezoid fallback for even point counts."""
    if num_points < 3 or num_points % 2 == 0:
        w = np.full(num_points, step)
        w[0] = w[-1] = step / 2.0
        return w
    w = np.full(num_points, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (step / 3.0)


def _hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + np.conj(np.swapaxes(a, -1, -2)))


@dataclass(frozen=True)
class SampledPotential:
    """Hermitian n x n potential sampled at grid_start + i*grid_step.

    The declared support must lie inside the sampled window; samples outside
    the support stay below SUPPORT_THRESHOLD in max-entry norm.  Families
    built by build_family carry analytic evaluators so operators on other
    grids can resample exactly.
    """

    grid_start: float
    grid_step: float
    values: np.ndarray
    support: tuple[float, float]
    family_tag: str
    parameters: dict = field(default_factory=dict)
    analytic_derivative: np.ndarray | None = None
    evaluator: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )
    derivative_evaluator: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
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
        if self.analytic_derivative is not None:
            d = np.asarray(self.analytic_derivative, dtype=complex)
            if d.shape != v.shape:
                raise ValueError("analytic_derivative shape mismatch")
            object.__setattr__(self, "analytic_derivative", d)

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
        """Values at arbitrary points: analytic when possible, else interpolated."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.evaluator is not None:
            out = np.asarray(self.evaluator(x), dtype=complex)
            if out.shape != (x.size, self.matrix_dim, self.matrix_dim):
                raise ValueError("evaluator returned wrong shape")
            return out
        return self._interpolate(x)

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        g = self.grid
        n = self.matrix_dim
        out = np.zeros((x.size, n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                col = self.values[:, i, j]
                out[:, i, j] = np.interp(x, g, col.real, left=0.0, right=0.0)
                out[:, i, j] += 1j * np.interp(x, g, col.imag, left=0.0, right=0.0)
        return out

    def derivative_samples(self) -> np.ndarray:
        """dV/dx on the stored grid: analytic if available, else 4th-order FD."""
        if self.analytic_derivative is not None:
            return self.analytic_derivative
        v = self.values
        h = self.grid_step
        pad = np.zeros((2,) + v.shape[1:], dtype=complex)
        ext = np.concatenate([pad, v, pad], axis=0)
        i = np.arange(v.shape[0]) + 2
        d = (-ext[i + 2] + 8 * ext[i + 1] - 8 * ext[i - 1] + ext[i - 2]) / (12 * h)
        return d


@dataclass(frozen=True)
class MatrixFunctionSplit:
    """Pointwise spectral split V = positive_part - negative_part."""

    positive_part: SampledPotential
    negative_part: SampledPotential

    @property
    def matrix_dim(self) -> int:
        return self.negative_part.matrix_dim


def _eig_split(blocks: np.ndarray, sign: int) -> np.ndarray:
    mu, u = np.linalg.eigh(blocks)
    kept = np.maximum(sign * mu, 0.0)
    out = np.einsum("xij,xj,xkj->xik", u, kept, np.conj(u))
    return _hermitize(out)


def split_parts(potential: SampledPotential) -> MatrixFunctionSplit:
    """Split into commuting PSD parts via the pointwise eigendecomposition."""
    ev = potential.evaluator

    def part_eval(sign):
        if ev is None:
            return None

        def f(x):
            return _eig_split(np.asarray(ev(x), dtype=complex), sign)

        return f

    parts = []
    for sign, label in ((1, "plus"), (-1, "minus")):
        vals = _eig_split(potential.values, sign)
        parts.append(
            SampledPotential(
                grid_start=potential.grid_start,
                grid_step=potential.grid_step,
                values=vals,
                support=potential.support,
                family_tag=f"{potential.family_tag}:{label}",
                parameters={},
                evaluator=part_eval(sign),
            )
        )
    return MatrixFunctionSplit(positive_part=parts[0], negative_part=parts[1])


def part_eigenvalues(potential: SampledPotential, part: str) -> np.ndarray:
    """Eigenvalues of V_plus or V_minus at each sample, shape (N, n), >= 0."""
    if part not in ("plus", "minus"):
        raise ValueError("part must be 'plus' or 'minus'")
    mu = np.linalg.eigvalsh(potential.values)
    return np.maximum(mu if part == "plus" else -mu, 0.0)


def trace_power_integral(potential: SampledPotential, part: str, power: float) -> float:
    """Simpson quadrature of tr(V_part(x)^power) over the sampled window."""
    if power < 0.5:
        raise ValueError("power must be >= 1/2")
    mu = part_eigenvalues(potential, part)
    integrand = (mu**power).sum(axis=1)
    w = simpson_weights(potential.num_points, potential.grid_step)
    return float(w @ integrand)


def signed_trace_power_integral(potential: SampledPotential, power: int) -> float:
    """Simpson quadrature of tr(V(x)^power) for integer power (signed)."""
    if int(power) != power or power < 1:
        raise ValueError("power must be a positive integer")
    mu = np.linalg.eigvalsh(potential.values)
    integrand = (mu ** int(power)).sum(axis=1)
    w = simpson_weights(potential.num_points, potential.grid_step)
    return float(w @ integrand)


def derivative_square_integral(potential: SampledPotential) -> float:
    """Simpson quadrature of tr((dV/dx)^2) over the sampled window."""
    d = potential.derivative_samples()
    integrand = (np.abs(d) ** 2).sum(axis=(1, 2))
    w = simpson_weights(potential.num_points, potential.grid_step)
    return float(w @ integrand)


def scale(potential: SampledPotential, coupling: float) -> SampledPotential:
    """Coupling-scaled copy alpha*V sharing the same grid and support."""
    c = float(coupling)
    ev = potential.evaluator
    dev = potential.derivative_evaluator
    return replace(
        potential,
        values=c * potential.values,
        analytic_derivative=(
            None
            if potential.analytic_derivative is None
            else c * potential.analytic_derivative
        ),
        family_tag="scaled",
        parameters={"coupling": c, "base": to_record(potential)},
        evaluator=(None if ev is None else (lambda x: c * ev(x))),
        derivative_evaluator=(None if dev is None else (lambda x: c * dev(x))),
    )


# ---------------------------------------------------------------------------
# families


def _grid_for(window: tuple[float, float], step: float) -> tuple[float, int]:
    a, b = window
    count = int(math.ceil((b - a) / step)) + 1
    if count % 2 == 0:
        count += 1
    return a, count


def _check_resolution(step: float, feature: float, tag: str):
    if step * POINTS_PER_FEATURE > feature * (1 + 1e-12):
        raise ValueError(
            f"{tag}: grid_step {step} does not resolve the narrowest feature "
            f"{feature} with >= {POINTS_PER_FEATURE} points"
        )


def _scalar_family(x_eval, d_eval, window, step, support, tag, params):
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

    v_eval = masked(x_eval)
    dv_eval = masked(d_eval)
    start, count = _grid_for(window, step)
    x = start + step * np.arange(count)
    return SampledPotential(
        grid_start=start,
        grid_step=step,
        values=v_eval(x),
        support=support,
        family_tag=tag,
        parameters=params,
        analytic_derivative=dv_eval(x),
        evaluator=v_eval,
        derivative_evaluator=dv_eval,
    )


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

    def dv(x):
        return np.zeros_like(np.asarray(x, float))

    window = (-half_width - 2 * h, half_width + 2 * h)
    return _scalar_family(
        v,
        dv,
        window,
        h,
        (-half_width, half_width),
        "square-well",
        {"depth": depth, "half_width": half_width, "grid_step": h},
    )


def _build_poschl_teller(nu: float, grid_step: float | None = None):
    if nu <= 0:
        raise ValueError("poschl-teller needs nu > 0")
    depth = nu * (nu + 1)
    h = 0.02 if grid_step is None else float(grid_step)
    _check_resolution(h, 1.0 / max(nu, 1.0), "poschl-teller")
    radius = float(np.arccosh(math.sqrt(depth / SUPPORT_THRESHOLD)))

    def v(x):
        s = 1.0 / np.cosh(x)
        return -depth * s * s

    def dv(x):
        s = 1.0 / np.cosh(x)
        return 2.0 * depth * s * s * np.tanh(x)

    window = (-radius - 2 * h, radius + 2 * h)
    return _scalar_family(
        v,
        dv,
        window,
        h,
        (-radius, radius),
        "poschl-teller",
        {"nu": nu, "grid_step": h},
    )


def _build_gaussian(depth: float, width: float, grid_step: float | None = None):
    if depth <= 0 or width <= 0:
        raise ValueError("gaussian needs positive depth and width")
    h = width / 50.0 if grid_step is None else float(grid_step)
    _check_resolution(h, width, "gaussian")
    radius = width * math.sqrt(math.log(depth / SUPPORT_THRESHOLD))

    def v(x):
        return -depth * np.exp(-((x / width) ** 2))

    def dv(x):
        return depth * (2.0 * x / width**2) * np.exp(-((x / width) ** 2))

    window = (-radius - 2 * h, radius + 2 * h)
    return _scalar_family(
        v,
        dv,
        window,
        h,
        (-radius, radius),
        "gaussian",
        {"depth": depth, "width": width, "grid_step": h},
    )


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
    n = int(matrix_dim)
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

    def dv(x):
        x = np.asarray(x, float)
        return np.zeros((x.size, n, n), dtype=complex)

    window = (-2 * h, width + 2 * h)
    start, count = _grid_for(window, h)
    x = start + h * np.arange(count)
    dir_param = [[float(c.real), float(c.imag)] for c in e]
    return SampledPotential(
        grid_start=start,
        grid_step=h,
        values=v(x),
        support=(0.0, width),
        family_tag="rank-one-narrow",
        parameters={
            "integral": integral,
            "width": width,
            "matrix_dim": n,
            "direction": dir_param,
            "grid_step": h,
        },
        analytic_derivative=dv(x),
        evaluator=v,
        derivative_evaluator=dv,
    )


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
    n = int(matrix_dim)
    a = float(support_radius)
    if not (0 < decay < 1):
        raise ValueError("decay ratio must sit in (0, 1)")
    rng = np.random.default_rng(int(seed))

    def herm(m):
        z = rng.standard_normal((n, n))
        if not real_valued:
            z = z + 1j * rng.standard_normal((n, n))
        return 0.5 * (z + np.conj(z.T))

    cos_coeff = []
    sin_coeff = []
    for m in range(1, modes + 1):
        s = amplitude * decay**m
        cos_coeff.append(s * herm(m))
        sin_coeff.append(s * herm(m))
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
    window = (-a - 2 * h, a + 2 * h)
    start, count = _grid_for(window, h)
    x = start + h * np.arange(count)
    return SampledPotential(
        grid_start=start,
        grid_step=h,
        values=v(x),
        support=(-a, a),
        family_tag="random-smooth",
        parameters={
            "matrix_dim": n,
            "seed": int(seed),
            "support_radius": a,
            "modes": modes,
            "amplitude": amplitude,
            "decay": decay,
            "depth_offset": depth_offset,
            "real_valued": bool(real_valued),
            "grid_step": h,
        },
        analytic_derivative=dv(x),
        evaluator=v,
        derivative_evaluator=dv,
    )


def direct_sum(first: SampledPotential, second: SampledPotential) -> SampledPotential:
    """Block-diagonal composition on a common refined grid."""
    h = min(first.grid_step, second.grid_step)
    lo = min(first.support[0], second.support[0])
    hi = max(first.support[1], second.support[1])
    window = (lo - 2 * h, hi + 2 * h)
    start, count = _grid_for(window, h)
    x = start + h * np.arange(count)
    n1, n2 = first.matrix_dim, second.matrix_dim
    n = n1 + n2

    def v(xs):
        xs = np.asarray(xs, float)
        out = np.zeros((xs.size, n, n), dtype=complex)
        out[:, :n1, :n1] = first.sample_at(xs)
        out[:, n1:, n1:] = second.sample_at(xs)
        return out

    have_der = True
    for p in (first, second):
        if p.evaluator is not None and p.derivative_evaluator is None:
            have_der = False

    def dv(xs):
        xs = np.asarray(xs, float)
        out = np.zeros((xs.size, n, n), dtype=complex)
        for pot, sl in ((first, slice(0, n1)), (second, slice(n1, n))):
            if pot.derivative_evaluator is not None:
                out[:, sl, sl] = pot.derivative_evaluator(xs)
            else:
                tmp = replace(pot, evaluator=None)
                dsamp = pot.derivative_samples()
                hold = replace(tmp, values=dsamp, analytic_derivative=None)
                out[:, sl, sl] = hold._interpolate(xs)
        return out

    return SampledPotential(
        grid_start=start,
        grid_step=h,
        values=v(x),
        support=(lo, hi),
        family_tag="direct-sum",
        parameters={
            "blocks": [to_record(first), to_record(second)],
        },
        analytic_derivative=dv(x) if have_der else None,
        evaluator=v,
        derivative_evaluator=dv if have_der else None,
    )


_FAMILY_BUILDERS = {
    "square-well": _build_square_well,
    "poschl-teller": _build_poschl_teller,
    "gaussian": _build_gaussian,
    "rank-one-narrow": _build_rank_one_narrow,
    "random-smooth": _build_random_smooth,
}


def build_family(family_tag: str, **parameters) -> SampledPotential:
    """Construct a named family member; see _FAMILY_BUILDERS for tags."""
    if family_tag == "direct-sum":
        blocks = parameters.get("blocks")
        if not blocks or len(blocks) != 2:
            raise ValueError("direct-sum needs a 'blocks' list with two entries")
        built = [b if isinstance(b, SampledPotential) else from_record(b) for b in blocks]
        return direct_sum(built[0], built[1])
    if family_tag == "scaled":
        base = parameters.get("base")
        if base is None or "coupling" not in parameters:
            raise ValueError("scaled needs 'base' record and 'coupling'")
        inner = base if isinstance(base, SampledPotential) else from_record(base)
        return scale(inner, parameters["coupling"])
    builder = _FAMILY_BUILDERS.get(family_tag)
    if builder is None:
        known = sorted(_FAMILY_BUILDERS) + ["direct-sum", "scaled"]
        raise ValueError(f"unknown family {family_tag!r}; known: {known}")
    return builder(**parameters)


# ---------------------------------------------------------------------------
# serialization


def _matrix_to_lists(v: np.ndarray):
    return {"real": v.real.tolist(), "imag": v.imag.tolist()}


def _lists_to_matrix(rec) -> np.ndarray:
    return np.asarray(rec["real"], dtype=float) + 1j * np.asarray(
        rec["imag"], dtype=float
    )


def to_record(potential: SampledPotential, include_samples: bool = False) -> dict:
    rec = {
        "schema": RECORD_SCHEMA,
        "family_tag": potential.family_tag,
        "parameters": potential.parameters,
        "grid": {
            "start": potential.grid_start,
            "step": potential.grid_step,
            "count": potential.num_points,
        },
        "support": [potential.support[0], potential.support[1]],
        "matrix_dim": potential.matrix_dim,
    }
    if include_samples:
        rec["samples"] = _matrix_to_lists(potential.values)
        if potential.analytic_derivative is not None:
            rec["derivative_samples"] = _matrix_to_lists(potential.analytic_derivative)
    return rec


def from_record(record: dict) -> SampledPotential:
    if record.get("schema") != RECORD_SCHEMA:
        raise ValueError(f"unknown potential record schema {record.get('schema')!r}")
    if "samples" in record:
        g = record["grid"]
        der = None
        if "derivative_samples" in record:
            der = _lists_to_matrix(record["derivative_samples"])
        return SampledPotential(
            grid_start=float(g["start"]),
            grid_step=float(g["step"]),
            values=_lists_to_matrix(record["samples"]),
            support=(float(record["support"][0]), float(record["support"][1])),
            family_tag=record["family_tag"],
            parameters=record.get("parameters", {}),
            analytic_derivative=der,
        )
    return build_family(record["family_tag"], **record.get("parameters", {}))
