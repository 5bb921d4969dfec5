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
from dataclasses import dataclass

import numpy as np

from .potentials import (
    SampledPotential,
    derivative_square_integral,
    signed_trace_power_integral,
    simpson_weights,
)
from .reports import BoundReport, BoundSpec, limit_report
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


def _solve_batch(potential: SampledPotential, k: np.ndarray, refine: int):
    """A(k), B(k), A(-k), B(-k) at positive k, stepped to resolve the largest k."""
    step = min(potential.grid_step / 2.0, 1.0 / (OSCILLATION_FRACTION * k.max()))
    y_top, y_bot = _propagate(potential, k, step / refine)
    return _match(y_top, y_bot, k, potential.support[0], potential.matrix_dim)


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
    i0: float
    i2: float
    i4: float
    integral_details: dict


def _k_plan(cap: float, refine: int):
    """The k grid from K_MIN to about cap and its (first, last, step, chunk) segments.

    The fine, mid and coarse segments each span an even number of intervals
    of their step divided by refine, and each starts on the last point of the
    one before.  chunk is the number of points solved per batch: a whole fine
    or mid segment, COARSE_CHUNK points of the coarse one.  A batch's step is
    set by its largest k, so the batches are part of the grid's definition.
    """
    parts, segments = [np.array([K_MIN])], []
    start, first = K_MIN, 0
    for nominal_end, nominal_step in (
        (FINE_END, FINE_STEP), (MID_END, MID_STEP), (cap, COARSE_STEP)
    ):
        step = nominal_step / refine
        end = min(nominal_end, cap)
        if end <= start + step / 2.0:
            continue
        intervals = int(math.ceil((end - start) / step))
        intervals += intervals % 2
        parts.append(start + step * np.arange(1, intervals + 1))
        chunk = COARSE_CHUNK if nominal_step == COARSE_STEP else intervals + 1
        segments.append((first, first + intervals, step, chunk))
        start, first = start + intervals * step, first + intervals
    if not segments:
        raise ValueError("empty wavenumber grid; raise the cap above k_min")
    return np.concatenate(parts), segments


def _tail_stop(logdet: np.ndarray, earliest: int) -> int | None:
    """First index >= earliest that ends TAIL_RUN samples below TAIL_THRESHOLD."""
    below = np.concatenate([[0], np.cumsum(logdet < TAIL_THRESHOLD)])
    ends = np.flatnonzero(below[TAIL_RUN:] - below[:-TAIL_RUN] == TAIL_RUN) + TAIL_RUN - 1
    ends = ends[ends >= earliest]
    return int(ends[0]) if ends.size else None


def _segment_quadrature(y: np.ndarray, step: float):
    """Simpson value plus a stride-2 self-comparison error estimate."""
    count = y.size
    value = float(simpson_weights(count, step) @ y)
    sub = count if count % 4 == 1 else count - 2
    if sub >= 5:
        coarse = float(simpson_weights(sub // 2 + 1, 2.0 * step) @ y[:sub:2])
        finer = float(simpson_weights(sub, step) @ y[:sub])
        err = abs(finer - coarse) / 15.0 * (count / sub)
    else:
        err = 0.0
    return value, err


def _gap_fit(k: np.ndarray, logdet: np.ndarray):
    """Even quadratic c0 + c2 k^2 through the smallest-k samples, c0 clamped at 0."""
    m = min(8, k.size)
    basis = np.stack([np.ones(m), k[:m] ** 2], axis=1)
    coef, *_ = np.linalg.lstsq(basis, logdet[:m], rcond=None)
    return max(float(coef[0]), 0.0), float(coef[1])


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


def _spectral_integrals(k, logdet, segments, adaptive):
    values, errors, gaps, tails = {}, {}, {}, {}
    c0, c2 = _gap_fit(k, logdet)
    km = float(k[0])
    for j in (0, 2, 4):
        total, err = 0.0, 0.0
        for first, last, step, _ in segments:
            # the kept grid ends on an even interval count of its last segment
            last = min(last, k.size - 1)
            if last - first < 2:
                continue
            sl = slice(first, last + 1)
            v, e = _segment_quadrature((k[sl] ** j) * logdet[sl], step)
            total += v
            err += e
        gap = _gap_moment(c0, c2, km, j)
        tail = _tail_bound(k, logdet, j) if adaptive else 0.0
        values[j] = (total + gap) / math.pi
        errors[j] = (err + gap + tail) / math.pi
        gaps[j] = gap / math.pi
        tails[j] = tail / math.pi
    return {"values": values, "errors": errors, "gap": gaps, "tail": tails}


def compute_scattering(
    potential: SampledPotential, k_max: float | None = None, refine: int = 1
) -> ScatteringData:
    """Matching data over the standard segmented grid with adaptive tail stop.

    Without k_max the grid is cut where log|det A| stays below 1e-12 for 5
    consecutive samples past the fine segment, less one sample when that
    leaves its segment an odd interval count, so the tail bound starts where
    the Simpson integral ends; a potential whose determinant has not decayed
    by the cap raises (insufficient decay).  With k_max the
    grid is simply truncated there and no tail certificate is attached.
    """
    adaptive = k_max is None
    k_grid, segments = _k_plan(K_CAP if adaptive else float(k_max), refine)
    n = potential.matrix_dim
    # A(k), B(k), A(-k), B(-k)
    jost = np.empty((4, k_grid.size, n, n), dtype=complex)
    logdet = np.empty(k_grid.size)
    keep = k_grid.size
    # every segment after the first starts on the point that ends the one before
    batches = [
        (first, lo, min(lo + chunk, last + 1))
        for first, last, _, chunk in segments
        for lo in range(first + (first > 0), last + 1, chunk)
    ]
    for first, lo, hi in batches:
        jost[:, lo:hi] = _solve_batch(potential, k_grid[lo:hi], refine)
        logdet[lo:hi] = np.linalg.slogdet(jost[0, lo:hi])[1]
        stop = _tail_stop(logdet[:hi], segments[0][1]) if adaptive else None
        if stop is not None:
            # the stop lies in this batch's segment; keep the grid to the end
            # of its last even run of intervals, where Simpson and the tail
            # bound meet
            keep = stop - (stop - first) % 2 + 1
            break
    else:
        if adaptive:
            raise ValueError(
                "insufficient decay: log|det A| stayed above "
                f"{TAIL_THRESHOLD} up to k = {k_grid[-1]:.3f}; "
                "pass an explicit k_max to integrate a truncated range"
            )

    k_grid, logdet = k_grid[:keep], logdet[:keep]
    a_pos, b_pos, a_neg, b_neg = jost[:, :keep]
    residual = a_pos @ np.conj(np.swapaxes(a_pos, 1, 2)) - np.eye(n)
    residual -= b_neg @ np.conj(np.swapaxes(b_neg, 1, 2))
    unitarity = np.abs(np.linalg.eigvalsh(
        0.5 * (residual + np.conj(np.swapaxes(residual, 1, 2)))
    )).max(axis=1)

    details = _spectral_integrals(k_grid, logdet, segments, adaptive)
    return ScatteringData(
        k_grid=k_grid,
        a_pos=a_pos,
        b_pos=b_pos,
        a_neg=a_neg,
        b_neg=b_neg,
        logdet=logdet,
        unitarity_residual=unitarity,
        i0=details["values"][0],
        i2=details["values"][2],
        i4=details["values"][4],
        integral_details=details,
    )


def unitarity_audit(data: ScatteringData, tolerance: float = 1e-7) -> BoundReport:
    """Worst-k residual of A A* = 1 + B(-k) B(-k)*."""
    worst = float(data.unitarity_residual.max())
    at = int(np.argmax(data.unitarity_residual))
    return limit_report(
        "unitarity", worst, tolerance,
        {"k_at_worst": float(data.k_grid[at]), "k_count": data.k_grid.size},
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
    asym = np.abs(potential.values - np.swapaxes(potential.values, 1, 2)).max()
    if asym > 1e-12:
        return None
    dev = max(
        float(np.abs(data.a_neg - np.conj(data.a_pos)).max()),
        float(np.abs(data.b_neg - np.conj(data.b_pos)).max()),
    )
    return limit_report("conjugation-symmetry", dev, tolerance, {"k_count": data.k_grid.size})


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
                    "k_stop": float(data.k_grid[-1]),
                },
            )
        )
    return reports
