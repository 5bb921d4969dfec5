"""Matrix Jost scattering on compact support: matching data and k-integrals.

The second-order system -F'' + V F = k^2 F is integrated right to left across
the support with the two-stage Gauss-Legendre collocation scheme.  The scheme
is one-step, fourth order, and preserves quadratic first integrals of the
flow, which keeps |det A| >= 1 and the unitarity relation at roundoff level
instead of drifting with the step size.  For coupled channels (n > 1) both
wavenumber signs ride along as column blocks of one fundamental solution, so
A and B at +k and -k come out of a single pass.

Each step solves a 2n x 2n linear system for the stage values; for n > 1 this
is one batched LAPACK solve per step.  For scalar wells (n = 1) it is solved
in closed form by Cramer's rule, elementwise over the wavenumber batch and in
real arithmetic, and only the +k solution is carried: the sample is real, so
every step applies the same real algebra to the -k solution, which starts as
the complex conjugate of the +k one and so stays its exact conjugate.

A scalar well whose support is centred on the origin and whose node samples
are mirror-symmetric (spectral1d.mirror_symmetric) is propagated over the
first half of the steps only, to the middle.  The step grid maps onto itself
under x -> -x and the scheme is symmetric, so the mirror image of the
discrete +k solution is again a discrete solution; A and B then follow from
two Wronskians at the middle, which the scheme preserves.  This is exact up
to roundoff and halves the cost of the even wells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .potentials import (
    SampledPotential,
    derivative_square_integral,
    signed_trace_power_integral,
)
from .reports import BoundReport, BoundSpec
from .spectral1d import NegativeSpectrum, mirror_symmetric

K_MIN = 1e-3
K_CAP = 60.0
COARSE_CHUNK = 61
FINE_END, FINE_STEP = 3.0, 5e-3
MID_END, MID_STEP = 8.0, 2e-2
COARSE_STEP = 0.1
TAIL_THRESHOLD = 1e-12
TAIL_RUN = 5
OSCILLATION_FRACTION = 8.0

_SQRT3 = math.sqrt(3.0)
_C1, _C2 = 0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0
# A^2 for the Gauss-2 Butcher matrix, and b^T A, used by the condensed
# stage solve (unknowns are the stage positions, not the stage slopes)
_CC = ((1.0 / 24.0, 0.125 - _SQRT3 / 12.0), (0.125 + _SQRT3 / 12.0, 1.0 / 24.0))
_D1, _D2 = 0.25 + _SQRT3 / 12.0, 0.25 - _SQRT3 / 12.0
# size of each per-block coefficient array of the scalar steps (steps x k)
_BLOCK_VALUES = 1 << 13
# |a + b| / (b - a) below which the support [a, b] counts as centred
_CENTRE_TOL = 1e-14


def _propagate(potential: SampledPotential, k_values: np.ndarray, step_target: float):
    """Carry [F; F'] for both +-k from the right support edge to the left one."""
    a, b = potential.support
    n = potential.matrix_dim
    span = b - a
    ns = max(1, int(math.ceil(span / step_target)))
    s = -span / ns
    x_steps = b + s * np.arange(ns)
    nodes = np.empty(2 * ns)
    nodes[0::2] = x_steps + _C1 * s
    nodes[1::2] = x_steps + _C2 * s
    vn = potential.sample_at(nodes)

    k = np.asarray(k_values, dtype=float)
    nk = k.size
    phase = np.exp(1j * k * b)
    if n == 1:
        # a Hermitian 1 x 1 sample is real, so the -k solution, which starts
        # as the conjugate of the +k one, stays its conjugate bit for bit
        vr = vn[:, 0, 0].real
        if abs(a + b) <= _CENTRE_TOL * span and mirror_symmetric(vr):
            vr = 0.5 * (vr + vr[::-1])
            f, fp = _mirror_scalar(vr[0::2], vr[1::2], k, s, phase, a)
        else:
            f, fp = _steps_scalar(vr[0::2], vr[1::2], k * k, s, phase, 1j * k * phase)
        y_top = np.stack([f, np.conj(f)], axis=-1)[:, None, :]
        y_bot = np.stack([fp, np.conj(fp)], axis=-1)[:, None, :]
        return y_top, y_bot

    v1, v2 = vn[0::2], vn[1::2]
    eye = np.eye(n)
    y_top = np.zeros((nk, n, 2 * n), dtype=complex)
    y_bot = np.zeros((nk, n, 2 * n), dtype=complex)
    y_top[:, :, :n] = phase[:, None, None] * eye
    y_top[:, :, n:] = np.conj(phase)[:, None, None] * eye
    y_bot[:, :, :n] = (1j * k * phase)[:, None, None] * eye
    y_bot[:, :, n:] = (-1j * k * np.conj(phase))[:, None, None] * eye
    k2 = (k * k)[:, None, None] * eye
    s2 = s * s
    g = np.empty((nk, 2 * n, 2 * n), dtype=complex)
    rhs = np.empty((nk, 2 * n, 2 * n), dtype=complex)
    for j in range(ns):
        w1 = v1[j][None, :, :] - k2
        w2 = v2[j][None, :, :] - k2
        g[:, :n, :n] = eye - s2 * _CC[0][0] * w1
        g[:, :n, n:] = -s2 * _CC[0][1] * w2
        g[:, n:, :n] = -s2 * _CC[1][0] * w1
        g[:, n:, n:] = eye - s2 * _CC[1][1] * w2
        rhs[:, :n, :] = y_top + (s * _C1) * y_bot
        rhs[:, n:, :] = y_top + (s * _C2) * y_bot
        z = np.linalg.solve(g, rhs)
        p1 = w1 @ z[:, :n, :]
        p2 = w2 @ z[:, n:, :]
        y_top = y_top + s * y_bot + s2 * (_D1 * p1 + _D2 * p2)
        y_bot = y_bot + (0.5 * s) * (p1 + p2)
    return y_top, y_bot


def _steps_scalar(v1, v2, k2, s, f, fp):
    """The steps of _propagate for n = 1 on the +k solution alone.

    Each step's 2 x 2 stage matrix G is real, so the stage solve (Cramer's
    rule) and the update run in real arithmetic on the real and imaginary
    parts of F and F', with one column per wavenumber.  The coefficients that
    depend only on the step and k are formed a block of steps at a time, and
    the state is updated in place.  Returns F and F' at the left edge.
    """
    nk = k2.size
    y = np.stack([[f.real, f.imag], [fp.real, fp.imag]])
    top, bot = y
    s2 = s * s
    coef = np.array([s * _C1, s * _C2, s])[:, None, None]
    weight = np.array([_D1, _D2])[:, None, None]
    # [r1; r2 | s F'; (s/2)(p1 + p2)], with r overwritten by p = w G^-1 r
    x = np.empty((4, 2, nk))
    r, increment = x[:2], x[2:]
    t = np.empty((2, 2, nk))
    u = np.empty((2, nk))
    block = max(1, _BLOCK_VALUES // nk)
    for j0 in range(0, v1.size, block):
        w1 = v1[j0 : j0 + block, None] - k2
        w2 = v2[j0 : j0 + block, None] - k2
        g11 = 1.0 - (s2 * _CC[0][0]) * w1
        g12 = (-s2 * _CC[0][1]) * w2
        g21 = (-s2 * _CC[1][0]) * w1
        g22 = 1.0 - (s2 * _CC[1][1]) * w2
        det = g11 * g22 - g12 * g21
        # p1 = (w1 / det)(g22 r1 - g12 r2) and p2 = (w2 / det)(g11 r2 - g21 r1)
        diag = np.stack([g22, g11], axis=1)[:, :, None, :]
        off = np.stack([g12, g21], axis=1)[:, :, None, :]
        scale = np.stack([w1 / det, w2 / det], axis=1)[:, :, None, :]
        for j in range(diag.shape[0]):
            np.multiply(coef, bot, out=x[:3])
            r += top
            np.multiply(off[j], r[::-1], out=t)
            r *= diag[j]
            r -= t
            r *= scale[j]
            np.add(r[0], r[1], out=x[3])
            x[3] *= 0.5 * s
            np.multiply(weight, r, out=t)
            y += increment
            np.add(t[0], t[1], out=u)
            u *= s2
            top += u
    return _complex_row(top), _complex_row(bot)


def _mirror_scalar(v1, v2, k, s, phase, x_left):
    """F and F' at the left edge of a centred mirror-symmetric scalar well.

    The +k solution f is carried from the right edge over the first half of
    the ns steps only: to x_m after m = ns // 2 steps and, for odd ns, one
    step further, to x_{ns-m} = -x_m.  The samples are even and the step
    grid maps onto itself under x -> -x, and GL2 collocation is a symmetric
    method, so the mirror image h(x) = f(-x) solves the discrete scheme too;
    h = e^{-ikx} left of the support, where f = A e^{ikx} + B e^{-ikx}.  The
    scheme preserves Wronskians, so A = W(h, f) / 2ik and
    B = -W(conj h, f) / 2ik, both read at x_m, where h = f(x_{ns-m}) and
    h' = -f'(x_{ns-m}).
    """
    half = v1.size // 2
    k2 = k * k
    f, fp = _steps_scalar(v1[:half], v2[:half], k2, s, phase, 1j * k * phase)
    # f and f' at x_{ns-m}
    g, gp = f, fp
    if v1.size % 2:
        g, gp = _steps_scalar(v1[half:half + 1], v2[half:half + 1], k2, s, f, fp)
    two_ik = 2j * k
    a_coef = (g * fp + gp * f) / two_ik
    b_coef = -(np.conj(g) * fp + np.conj(gp) * f) / two_ik
    e_left = np.exp(1j * k * x_left)
    incoming, outgoing = a_coef * e_left, b_coef * np.conj(e_left)
    return incoming + outgoing, 1j * k * (incoming - outgoing)


def _complex_row(parts):
    out = np.empty(parts.shape[1], dtype=complex)
    out.real, out.imag = parts
    return out


def _match(y_top, y_bot, k: np.ndarray, x_left: float, n: int):
    """Plane-wave matching at the left support edge for both signs of k."""
    f_p, fp_p = y_top[:, :, :n], y_bot[:, :, :n]
    f_m, fp_m = y_top[:, :, n:], y_bot[:, :, n:]
    two_ik = (2j * k)[:, None, None]
    ik = (1j * k)[:, None, None]
    e_minus = np.exp(-1j * k * x_left)[:, None, None]
    e_plus = np.conj(e_minus)
    a_pos = e_minus * (ik * f_p + fp_p) / two_ik
    b_pos = e_plus * (ik * f_p - fp_p) / two_ik
    a_neg = e_plus * (ik * f_m - fp_m) / two_ik
    b_neg = e_minus * (ik * f_m + fp_m) / two_ik
    return a_pos, b_pos, a_neg, b_neg


def _solve_batch(potential: SampledPotential, k_values: np.ndarray, refine: int = 1):
    k = np.asarray(k_values, dtype=float)
    step = min(
        potential.grid_step / 2.0, 1.0 / (OSCILLATION_FRACTION * np.abs(k).max())
    )
    y_top, y_bot = _propagate(potential, np.abs(k), step / refine)
    a_pos, b_pos, a_neg, b_neg = _match(
        y_top, y_bot, np.abs(k), potential.support[0], potential.matrix_dim
    )
    return a_pos, b_pos, a_neg, b_neg


def jost_solve(potential: SampledPotential, k: float, refine: int = 1):
    """Matching matrices (A, B) at one real wavenumber."""
    if abs(k) < K_MIN:
        raise ValueError(f"|k| must be at least {K_MIN} (matching divides by k)")
    a_pos, b_pos, a_neg, b_neg = _solve_batch(potential, np.array([abs(k)]), refine)
    if k > 0:
        return a_pos[0], b_pos[0]
    return a_neg[0], b_neg[0]


@dataclass
class ScatteringData:
    """Matching data on an ascending k grid plus the moment integrals."""

    k_grid: np.ndarray
    a_pos: np.ndarray
    b_pos: np.ndarray
    a_neg: np.ndarray
    b_neg: np.ndarray
    logdet: np.ndarray
    unitarity_residual: np.ndarray
    segments: list
    i0: float
    i2: float
    i4: float
    integral_details: dict
    diagnostics: dict = field(default_factory=dict)

    @property
    def matrix_dim(self) -> int:
        return self.a_pos.shape[1]


def _segment_plan(k_min: float, cap: float, refine: int):
    steps = [
        (FINE_END, FINE_STEP / refine),
        (MID_END, MID_STEP / refine),
        (cap, COARSE_STEP / refine),
    ]
    plan = []
    start = k_min
    for nominal_end, step in steps:
        end = min(nominal_end, cap)
        if end <= start + step / 2.0:
            continue
        intervals = int(math.ceil((end - start) / step))
        if intervals % 2:
            intervals += 1
        plan.append({"start": start, "step": step, "points": intervals + 1})
        start = start + intervals * step
    if not plan:
        raise ValueError("empty wavenumber grid; raise the cap above k_min")
    return plan


def _uniform_simpson(y: np.ndarray, step: float) -> float:
    if y.size % 2 == 0 or y.size < 3:
        raise ValueError("Simpson needs an odd number of points >= 3")
    return float(step / 3.0 * (y[0] + y[-1] + 4.0 * y[1::2].sum() + 2.0 * y[2:-2:2].sum()))


def _segment_quadrature(y: np.ndarray, step: float):
    """Simpson value plus a stride-2 self-comparison error estimate."""
    value = _uniform_simpson(y, step)
    count = y.size
    sub = count if count % 4 == 1 else count - 2
    if sub >= 5:
        coarse = _uniform_simpson(y[:sub:2], 2.0 * step)
        finer = _uniform_simpson(y[:sub], step)
        err = abs(finer - coarse) / 15.0 * (count / sub)
    else:
        err = 0.0
    return value, err


def _gap_fit(k: np.ndarray, logdet: np.ndarray):
    """Even quadratic c0 + c2 k^2 through the smallest-k samples."""
    m = min(8, k.size)
    basis = np.stack([np.ones(m), k[:m] ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(basis, logdet[:m], rcond=None)
    c0, c2 = float(coef[0]), float(coef[1])
    clamped = c0 < 0.0
    c0 = max(c0, 0.0)
    curvature_heavy = abs(c2) * k[m - 1] ** 2 > 0.5 * max(c0, 1e-15)
    return c0, c2, (clamped or curvature_heavy)


def _gap_moment(c0: float, c2: float, km: float, j: int) -> float:
    return c0 * km ** (j + 1) / (j + 1) + c2 * km ** (j + 3) / (j + 3)


def _tail_bound(k: np.ndarray, logdet: np.ndarray, j: int) -> float:
    """Exponential-fit bound on the dropped integral beyond the last sample."""
    kk = k[-1]
    valid = logdet > 1e-16
    if valid.sum() >= 3:
        ks = k[valid][-10:]
        ys = np.log(logdet[valid][-10:])
        slope = np.polyfit(ks, ys, 1)[0]
        beta = float(np.clip(-slope, 0.3, 50.0))
    else:
        beta = 0.5
    amp = max(float(logdet[-1]), 1e-15)
    total = 0.0
    for m in range(j + 1):
        total += math.comb(j, m) * math.factorial(m) * kk ** (j - m) / beta ** (m + 1)
    return amp * total


def _spectral_integrals(k, logdet, segments, mode):
    values, errors, gaps, tails = {}, {}, {}, {}
    c0, c2, flagged = _gap_fit(k, logdet)
    km = float(k[0])
    for j in (0, 2, 4):
        total, err = 0.0, 0.0
        for seg in segments:
            sl = slice(seg["first"], seg["last"] + 1)
            y = (k[sl] ** j) * logdet[sl]
            v, e = _segment_quadrature(y, seg["step"])
            total += v
            err += e
        gap = _gap_moment(c0, c2, km, j)
        tail = _tail_bound(k, logdet, j) if mode == "adaptive" else 0.0
        values[j] = (total + gap) / math.pi
        errors[j] = (err + gap + tail) / math.pi
        gaps[j] = gap / math.pi
        tails[j] = tail / math.pi
    return {
        "values": values,
        "errors": errors,
        "gap": gaps,
        "tail": tails,
        "gap_coefficients": [c0, c2],
        "gap_fit_flagged": bool(flagged),
    }


def compute_scattering(
    potential: SampledPotential, k_max: float | None = None, refine: int = 1
) -> ScatteringData:
    """Matching data over the standard segmented grid with adaptive tail stop.

    Without k_max the grid is cut where log|det A| stays below 1e-12 for 5
    consecutive samples past the fine segment; a potential whose determinant
    has not decayed by the cap raises (insufficient decay).  With k_max the
    grid is simply truncated there and no tail certificate is attached.
    """
    mode = "adaptive" if k_max is None else "truncated"
    cap = K_CAP if k_max is None else float(k_max)
    plan = _segment_plan(K_MIN, cap, refine)

    segments = []
    k_parts = []
    total = 0
    for i, seg in enumerate(plan):
        pts = seg["start"] + seg["step"] * np.arange(seg["points"])
        if i == 0:
            first = 0
            k_parts.append(pts)
            total = seg["points"]
        else:
            first = total - 1
            k_parts.append(pts[1:])
            total += seg["points"] - 1
        segments.append({"first": first, "last": total - 1, "step": seg["step"]})
    k_grid = np.concatenate(k_parts)

    chunks = []
    for seg in segments:
        lo = seg["first"] + (0 if seg is segments[0] else 1)
        hi = seg["last"]
        if seg["step"] < COARSE_STEP / refine * 0.999:
            chunks.append((lo, hi))
        else:
            pos = lo
            while pos <= hi:
                chunks.append((pos, min(pos + COARSE_CHUNK - 1, hi)))
                pos += COARSE_CHUNK
    min_stop = segments[0]["last"]

    n = potential.matrix_dim
    a_pos = np.empty((k_grid.size, n, n), dtype=complex)
    b_pos = np.empty_like(a_pos)
    a_neg = np.empty_like(a_pos)
    b_neg = np.empty_like(a_pos)
    logdet = np.empty(k_grid.size)

    done = 0
    stop = None
    for lo, hi in chunks:
        ks = k_grid[lo : hi + 1]
        ap, bp, an, bn = _solve_batch(potential, ks, refine)
        a_pos[lo : hi + 1] = ap
        b_pos[lo : hi + 1] = bp
        a_neg[lo : hi + 1] = an
        b_neg[lo : hi + 1] = bn
        logdet[lo : hi + 1] = np.linalg.slogdet(ap)[1]
        done = hi + 1
        if mode == "adaptive":
            below = logdet[:done] < TAIL_THRESHOLD
            run = 0
            for t in range(done):
                run = run + 1 if below[t] else 0
                if run >= TAIL_RUN and t >= min_stop:
                    stop = t
                    break
            if stop is not None:
                break
    if mode == "adaptive" and stop is None:
        raise ValueError(
            "insufficient decay: log|det A| stayed above "
            f"{TAIL_THRESHOLD} up to k = {k_grid[done - 1]:.3f}; "
            "pass an explicit k_max to integrate a truncated range"
        )

    keep = done if stop is None else stop + 1
    k_grid = k_grid[:keep]
    a_pos, b_pos = a_pos[:keep], b_pos[:keep]
    a_neg, b_neg = a_neg[:keep], b_neg[:keep]
    logdet = logdet[:keep]

    used_segments = []
    for seg in segments:
        if seg["first"] >= keep - 1:
            continue
        last = min(seg["last"], keep - 1)
        count = last - seg["first"] + 1
        if count % 2 == 0:
            last -= 1
            count -= 1
        if count >= 3:
            used_segments.append(
                {"first": seg["first"], "last": last, "step": seg["step"]}
            )

    residual = a_pos @ np.conj(np.swapaxes(a_pos, 1, 2)) - np.eye(n)
    residual -= b_neg @ np.conj(np.swapaxes(b_neg, 1, 2))
    unitarity = np.abs(np.linalg.eigvalsh(
        0.5 * (residual + np.conj(np.swapaxes(residual, 1, 2)))
    )).max(axis=1)

    details = _spectral_integrals(k_grid, logdet, used_segments, mode)
    diagnostics = {
        "mode": mode,
        "k_stop": float(k_grid[-1]),
        "refine": refine,
        "min_logdet": float(logdet.min()),
        "gap_fit_flagged": details["gap_fit_flagged"],
    }
    return ScatteringData(
        k_grid=k_grid,
        a_pos=a_pos,
        b_pos=b_pos,
        a_neg=a_neg,
        b_neg=b_neg,
        logdet=logdet,
        unitarity_residual=unitarity,
        segments=used_segments,
        i0=details["values"][0],
        i2=details["values"][2],
        i4=details["values"][4],
        integral_details=details,
        diagnostics=diagnostics,
    )


def unitarity_audit(data: ScatteringData, tolerance: float = 1e-7) -> BoundReport:
    """Worst-k residual of A A* = 1 + B(-k) B(-k)*."""
    worst = float(data.unitarity_residual.max())
    at = int(np.argmax(data.unitarity_residual))
    return BoundReport(
        audit_tag="unitarity",
        lhs=worst,
        rhs=tolerance,
        tolerance=tolerance,
        passed=worst <= tolerance,
        provenance={"k_at_worst": float(data.k_grid[at]), "k_count": data.k_grid.size},
    )


def positivity_audit(data: ScatteringData) -> list[BoundReport]:
    """|det A| >= 1 pointwise and I_j >= 0, both up to roundoff slack."""
    logdet_floor = -1e-10
    min_logdet = float(data.logdet.min())
    integral_floor = -1e-9
    min_integral = min(data.i0, data.i2, data.i4)
    return [
        BoundReport(
            audit_tag="logdet-floor",
            lhs=min_logdet,
            rhs=logdet_floor,
            tolerance=1e-10,
            passed=min_logdet >= logdet_floor,
            provenance={"k_count": data.k_grid.size},
        ),
        BoundReport(
            audit_tag="spectral-positivity",
            lhs=float(min_integral),
            rhs=integral_floor,
            tolerance=1e-9,
            passed=min_integral >= integral_floor,
            provenance={"i0": data.i0, "i2": data.i2, "i4": data.i4},
        ),
    ]


def conjugation_symmetry_check(
    potential: SampledPotential, data: ScatteringData, tolerance: float = 1e-7
) -> BoundReport | None:
    """A(-k) vs conj(A(k)), applicable only to transpose-symmetric potentials.

    Conjugating the differential equation transposes the potential, so for a
    Hermitian V with complex entries the +-k data are genuinely independent
    and this check is skipped (returns None).  For scalar wells the -k data
    are the conjugate of the propagated +k data, so lhs is 0 by construction
    (as it was bit for bit when both signs were propagated); the check
    measures something only on coupled wells, whose two signs are solved
    independently.
    """
    asym = np.abs(data_values_transpose_gap(potential)).max()
    if asym > 1e-12:
        return None
    dev = max(
        float(np.abs(data.a_neg - np.conj(data.a_pos)).max()),
        float(np.abs(data.b_neg - np.conj(data.b_pos)).max()),
    )
    return BoundReport(
        audit_tag="conjugation-symmetry",
        lhs=dev,
        rhs=tolerance,
        tolerance=tolerance,
        passed=dev <= tolerance,
        provenance={"k_count": data.k_grid.size},
    )


def data_values_transpose_gap(potential: SampledPotential) -> np.ndarray:
    return potential.values - np.swapaxes(potential.values, 1, 2)


_IDENTITY_TERMS = (
    {"gamma": 0.5, "tag": "trace-identity-1", "citation": "identity:half-moment"},
    {"gamma": 1.5, "tag": "trace-identity-2", "citation": "identity:three-half-moment"},
    {"gamma": 2.5, "tag": "trace-identity-3", "citation": "identity:five-half-moment"},
)


def trace_identity_audit(
    potential: SampledPotential,
    spectrum: NegativeSpectrum,
    data: ScatteringData,
    tolerance: float = 1e-3,
) -> list[BoundReport]:
    """The three moment identities tying V-integrals to spectra and I_j.

    lhs is built from potential integrals, rhs from the bound-state sums and
    the k-integrals; the residual must sit inside the scenario tolerance and
    the per-run error budget is recorded alongside.
    """
    int_v1 = signed_trace_power_integral(potential, 1)
    int_v2 = signed_trace_power_integral(potential, 2)
    int_v3 = signed_trace_power_integral(potential, 3)
    int_dv2 = derivative_square_integral(potential)
    err = data.integral_details["errors"]

    lhs_all = (
        0.25 * int_v1,
        (3.0 / 16.0) * int_v2,
        (5.0 / 32.0) * int_v3 + (5.0 / 64.0) * int_dv2,
    )
    rhs_all = (
        data.i0 - spectrum.riesz_mean(0.5),
        3.0 * data.i2 + spectrum.riesz_mean(1.5),
        5.0 * data.i4 - spectrum.riesz_mean(2.5),
    )
    budgets = (
        spectrum.riesz_mean_error(0.5) + err[0] + 1e-6,
        spectrum.riesz_mean_error(1.5) + 3.0 * err[2] + 1e-6,
        spectrum.riesz_mean_error(2.5) + 5.0 * err[4] + 1e-6,
    )
    reports = []
    for term, lhs, rhs, budget in zip(_IDENTITY_TERMS, lhs_all, rhs_all, budgets):
        residual = abs(lhs - rhs)
        reports.append(
            BoundReport(
                audit_tag=term["tag"],
                lhs=float(lhs),
                rhs=float(rhs),
                tolerance=tolerance,
                passed=residual <= tolerance,
                spec=BoundSpec(
                    gamma=term["gamma"],
                    d=1,
                    side="identity",
                    factor=1.0,
                    citation=term["citation"],
                ),
                residual=float(residual),
                provenance={
                    "budget": float(budget),
                    "certified": bool(residual <= budget),
                    "spectrum_levels": spectrum.count,
                    "k_stop": data.diagnostics["k_stop"],
                },
            )
        )
    return reports
