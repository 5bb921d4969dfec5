"""Matrix Jost scattering on compact support: matching data and k-integrals.

The second-order system -F'' + V F = k^2 F is integrated right to left across
the support with the two-stage Gauss-Legendre collocation scheme.  The scheme
is one-step, fourth order, and preserves quadratic first integrals of the
flow, which keeps |det A| >= 1 and the unitarity relation at roundoff level
instead of drifting with the step size.  For coupled channels (n > 1) both
wavenumber signs ride along as column blocks of one fundamental solution, so
A and B at +k and -k come out of a single pass.

GL2 on this linear system maps each step's [F; F'] = y linearly: y becomes
y + D_j y, with s F' added to F apart from D_j.  The increments D_j are formed
a block of steps at a time, for n > 1 by one batched LAPACK solve of the
2n x 2n stage matrices against a constant right-hand side, for scalar wells
(n = 1) by Cramer's rule on the real 2 x 2 stage matrix, elementwise over the
wavenumber batch; one loop then applies them in order on every path.  Neither
the identity nor s F' goes into a stored D_j: D_j is O(s (V - k^2)) and keeps
its relative precision, whereas a stored 1 + delta rounds the same way at
every step of a flat stretch of V, and those errors add up coherently.  A
scalar well carries only the +k solution, as two real columns (Re, Im): the
sample is real, so every step applies the same real algebra to the -k
solution, which starts as the complex conjugate of the +k one and so stays
its exact conjugate.

A scalar well whose support is centred on the origin and whose node samples
are mirror-symmetric (spectral1d.mirror_symmetric) is propagated over the
first half of the steps only, to the middle.  The step grid maps onto itself
under x -> -x and the scheme is symmetric, so the mirror image of the
discrete +k solution is again a discrete solution; A and B then follow from
two Wronskians at the middle, which the scheme preserves.  This is exact up
to roundoff and halves the cost of the even wells.

The k-integrals I_0, I_2, I_4 of log|det A| that enter the trace identities
run by tanh-sinh on [0, K_SPLIT] and [K_SPLIT, end] through the level-doubling
driver every adaptive integral shares (potentials._doubled): each moment
doubles its level until its own change between levels, plus the rounding of
its sum, meets QUADRATURE_TARGET.  Near k = 0 a generic n x n well has
log|det A| ~ -n log k + c; the rule's nodes crowd towards both ends
double-exponentially, which integrates that singularity with no model of it.

Each batch of wavenumbers is one Jost pass, and a scalar pass costs nearly
the same for 9 k as for 100: the loop over steps dominates.  Each k's data
are computed elementwise at the batch's step, so where two batches would
take the same step (_jost_step) they are solved as one with no value moved;
compute_scattering does so for the first doubling of end probes, and counts
its passes, their GL2 steps and the wavenumbers they solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import (
    SampledPotential,
    _doubled,
    _tanh_sinh,
    derivative_square_integral,
    signed_trace_power_integral,
)
from .reports import BoundReport, BoundSpec, limit_report
from .spectral1d import NegativeSpectrum, mirror_symmetric

K_MIN = 1e-3
K_SPLIT = 3.0
K_CAP = 60.0
FIRST_LEVEL, LAST_LEVEL = 3, 8
QUADRATURE_TARGET = 1e-9
PROBES_PER_DOUBLING = 8
TAIL_THRESHOLD = 1e-12
TAIL_RUN = 5
OSCILLATION_FRACTION = 8.0

_SQRT3 = math.sqrt(3.0)
_C1, _C2 = 0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0
# A^2 for the Gauss-2 Butcher matrix, and b^T A, used by the condensed
# stage solve (unknowns are the stage positions, not the stage slopes)
_CC = ((1.0 / 24.0, 0.125 - _SQRT3 / 12.0), (0.125 + _SQRT3 / 12.0, 1.0 / 24.0))
_D1, _D2 = 0.25 + _SQRT3 / 12.0, 0.25 - _SQRT3 / 12.0
# steps x wavenumbers in each block of increments D_j formed at once
_BLOCK_VALUES = 1 << 13
# |a + b| / (b - a) below which the support [a, b] counts as centred
_CENTRE_TOL = 1e-14


def _stages(potential: SampledPotential, step_target: float):
    """The step s of a pass, right to left, V at its two Gauss nodes per step, interleaved,
    and whether it takes the mirror path: a centred scalar well with mirror-symmetric samples."""
    a, b = potential.support
    span = b - a
    ns = max(1, int(math.ceil(span / step_target)))
    s = -span / ns
    x_steps = b + s * np.arange(ns)
    nodes = np.empty(2 * ns)
    nodes[0::2] = x_steps + _C1 * s
    nodes[1::2] = x_steps + _C2 * s
    vn = potential.sample_at(nodes)
    mirrored = (potential.matrix_dim == 1 and abs(a + b) <= _CENTRE_TOL * span
                and mirror_symmetric(vn[:, 0, 0].real))
    return s, vn, mirrored


def _propagate(potential: SampledPotential, k_values: np.ndarray, step_target: float):
    """Carry [F; F'] for both +-k from the right support edge to the left one.

    Returns F and F' at the left edge and the number of GL2 steps taken:
    the grid's ns, or (ns + 1) // 2 on the mirror path.
    """
    a, b = potential.support
    n = potential.matrix_dim
    s, vn, mirrored = _stages(potential, step_target)
    ns = len(vn) // 2

    k = np.asarray(k_values, dtype=float)
    phase = np.exp(1j * k * b)
    # e^{ikx} and its slope at the right edge
    start = np.stack([phase, 1j * k * phase])
    if n == 1:
        # a Hermitian 1 x 1 sample is real, so the -k solution, which starts
        # as the conjugate of the +k one, stays its conjugate bit for bit;
        # the +k solution rides as two real columns, Re and Im
        vr = vn[:, 0, 0].real
        y = np.stack([start.real, start.imag], axis=1)
        if mirrored:
            vr = 0.5 * (vr + vr[::-1])
            f, fp = _mirror_scalar(vr[0::2], vr[1::2], k, s, y, a)
        else:
            y = _steps(vr[0::2], vr[1::2], k, s, y)
            f, fp = y[:, 0] + 1j * y[:, 1]
        y_top = np.stack([f, np.conj(f)], axis=-1)[:, None, :]
        y_bot = np.stack([fp, np.conj(fp)], axis=-1)[:, None, :]
        return y_top, y_bot, (ns + 1) // 2 if mirrored else ns

    # rows F, F' of each channel; columns e^{ikx}, then e^{-ikx}, per channel
    y = np.zeros((2 * n, 2 * n, k.size), dtype=complex)
    for i in range(n):
        y[i::n, i::n] = np.stack([start, np.conj(start)], axis=1)
    y = _steps(vn[0::2], vn[1::2], k, s, y)
    return np.moveaxis(y[:n], -1, 0), np.moveaxis(y[n:], -1, 0), ns


def _steps(v1, v2, k, s, y):
    """The state y = [F; F'] (k on the last axis) after the steps with stage samples v1, v2.

    Step j applies y <- y + D_j y and adds s F' to F from the same y, with
    D_j = [s^2 (d1 q1 + d2 q2); (s/2)(q1 + q2)] from the stage slopes per
    unit state q_i = W_i (G^-1 R)_i of _scalar_slopes or _coupled_slopes.
    s F' joins D_j y before F does, so F takes one rounding at its own scale
    per step.  Updates y in place and returns it.
    """
    n = y.shape[0] // 2
    slopes = _scalar_slopes if v1.ndim == 1 else _coupled_slopes
    block = max(1, _BLOCK_VALUES // k.size)
    for j0 in range(0, len(v1), block):
        q1, q2 = slopes(v1[j0 : j0 + block], v2[j0 : j0 + block], k * k, s)
        increments = np.concatenate([(s * s) * (_D1 * q1 + _D2 * q2), (0.5 * s) * (q1 + q2)], axis=1)
        for d in increments:
            change = d[:, 0, None] * y[0]
            for i in range(1, 2 * n):
                change += d[:, i, None] * y[i]
            change[:n] += s * y[n:]
            y += change
    return y


def _scalar_slopes(v1, v2, k2, s):
    """q_1, q_2 of a block of scalar steps, shape (steps, 1, 2, k), by Cramer's rule.

    The stage matrix G = 1 - s^2 (c_ij w_j) is real and 2 x 2, so G^-1 R,
    R = [[1, c1 s], [1, c2 s]], is formed elementwise over steps and k.
    """
    s2 = s * s
    w1 = v1[:, None] - k2
    w2 = v2[:, None] - k2
    g11 = 1.0 - (s2 * _CC[0][0]) * w1
    g12 = (-s2 * _CC[0][1]) * w2
    g21 = (-s2 * _CC[1][0]) * w1
    g22 = 1.0 - (s2 * _CC[1][1]) * w2
    det = g11 * g22 - g12 * g21
    q1 = (w1 / det)[:, None] * np.stack([g22 - g12, (s * _C1) * g22 - (s * _C2) * g12], axis=1)
    q2 = (w2 / det)[:, None] * np.stack([g11 - g21, (s * _C2) * g11 - (s * _C1) * g21], axis=1)
    return q1[:, None], q2[:, None]


def _coupled_slopes(v1, v2, k2, s):
    """q_1, q_2 of a block of n x n steps, shape (steps, n, 2n, k), by one batched solve."""
    n = v1.shape[-1]
    eye = np.eye(n)[..., None]
    s2 = s * s
    w1 = v1[..., None] - k2 * eye
    w2 = v2[..., None] - k2 * eye
    g = np.empty((len(v1), 2 * n, 2 * n, k2.size), dtype=complex)
    g[:, :n, :n] = eye - (s2 * _CC[0][0]) * w1
    g[:, :n, n:] = (-s2 * _CC[0][1]) * w2
    g[:, n:, :n] = (-s2 * _CC[1][0]) * w1
    g[:, n:, n:] = eye - (s2 * _CC[1][1]) * w2
    r = np.kron([[1.0, s * _C1], [1.0, s * _C2]], np.eye(n))
    # LAPACK takes k ahead of the matrix axes; the copy makes k contiguous
    # again, as the steps read it
    z = np.moveaxis(np.linalg.solve(np.moveaxis(g, -1, 1), r), 1, -1).copy()
    return (np.einsum("bimk,bmck->bick", w1, z[:, :n]),
            np.einsum("bimk,bmck->bick", w2, z[:, n:]))


def _mirror_scalar(v1, v2, k, s, y, x_left):
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
    y = _steps(v1[:half], v2[:half], k, s, y)
    # f and f' at x_m, then at x_{ns-m}
    f, fp = y[:, 0] + 1j * y[:, 1]
    g, gp = f, fp
    if v1.size % 2:
        y = _steps(v1[half:half + 1], v2[half:half + 1], k, s, y)
        g, gp = y[:, 0] + 1j * y[:, 1]
    two_ik = 2j * k
    a_coef = (g * fp + gp * f) / two_ik
    b_coef = -(np.conj(g) * fp + np.conj(gp) * f) / two_ik
    e_left = np.exp(1j * k * x_left)
    incoming, outgoing = a_coef * e_left, b_coef * np.conj(e_left)
    return incoming + outgoing, 1j * k * (incoming - outgoing)


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


def _jost_step(potential: SampledPotential, k_top: float, refine: int = 1) -> float:
    """The Jost step, divided by refine, of a batch whose largest wavenumber is k_top.

    Half the sample spacing caps it; above k_top = 2 / (OSCILLATION_FRACTION
    grid_step) the rule 1 / (OSCILLATION_FRACTION k_top) is finer and sets
    it.  The step never grows with k_top.
    """
    return min(potential.grid_step / 2.0, 1.0 / (OSCILLATION_FRACTION * k_top)) / refine


def _solve_batch(potential: SampledPotential, k: np.ndarray, refine: int):
    """(A(k), B(k), A(-k), B(-k)) at positive k, stepped to resolve the largest k,
    and the GL2 steps of the pass."""
    y_top, y_bot, steps = _propagate(potential, k, _jost_step(potential, k.max(), refine))
    return _match(y_top, y_bot, k, potential.support[0], potential.matrix_dim), steps


@dataclass
class ScatteringData:
    """Matching data at every solved k >= K_MIN, ascending, plus the moment integrals.

    k_grid holds K_MIN itself, the quadrature nodes at or above it and,
    without k_max, the end probes; the pointwise audits read these.  The
    nodes below K_MIN, down to about 1e-15, enter only i0, i2 and i4: there
    |A|^2 grows like k^-2, so an absolute unitarity residual means nothing.
    integral_details holds the error estimates of I_0, I_2, I_4 keyed by j,
    and the end of the k-integrals.  work counts the Jost passes, their steps and wavenumbers.
    """

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
    work: dict


def _tail_stop(logdet: np.ndarray, earliest: int) -> int | None:
    """First index >= earliest that ends TAIL_RUN samples below TAIL_THRESHOLD."""
    below = np.concatenate([[0], np.cumsum(logdet < TAIL_THRESHOLD)])
    ends = np.flatnonzero(below[TAIL_RUN:] - below[:-TAIL_RUN] == TAIL_RUN) + TAIL_RUN - 1
    ends = ends[ends >= earliest]
    return int(ends[0]) if ends.size else None


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


def _moments(solve, lo: float, hi: float, extra=()):
    """(1/pi) int_lo^hi k^j log|det A| dk for j = 0, 2, 4 by tanh-sinh, with estimates.

    potentials._doubled doubles each moment's level from FIRST_LEVEL - 1 until
    its own estimate meets QUADRATURE_TARGET, or to LAST_LEVEL.  solve(k)
    returns log|det A| at k and solves only the k it has not seen: level l - 1
    nodes are level l nodes, so the FIRST_LEVEL nodes, with the wavenumbers in
    extra, are solved up front in one batch and each later level costs one
    batch of new nodes.
    """
    half = 0.5 * (hi - lo)
    powers = np.array([0, 2, 4])

    def integrand(rows, x):
        k = lo + half * (1.0 + x)
        return solve(k) * k ** powers[rows, None]

    solve(np.append(lo + half * (1.0 + _tanh_sinh(FIRST_LEVEL)[0]), extra))
    return _doubled(
        _tanh_sinh, integrand, np.full(3, half / math.pi), QUADRATURE_TARGET,
        FIRST_LEVEL - 1, LAST_LEVEL,
    )[:2]


def _end_probes() -> np.ndarray:
    """The wavenumbers K_SPLIT * 2^(i / PROBES_PER_DOUBLING) below K_CAP, then K_CAP."""
    count = int(math.ceil(PROBES_PER_DOUBLING * math.log2(K_CAP / K_SPLIT)))
    return np.append(K_SPLIT * 2.0 ** (np.arange(count) / PROBES_PER_DOUBLING), K_CAP)


def _find_end(solve):
    """The end of the k-integrals and the tail bound beyond it, one per moment j = 0, 2, 4.

    The probes (_end_probes) are asked for one doubling of k per call to
    solve: [3, 6], (6, 12], ...; solve skips those it has already solved,
    as it has the first doubling where compute_scattering put it into the
    first batch.  The end is the first probe from which TAIL_RUN probes in
    a row have log|det A| below TAIL_THRESHOLD, so one sample at an isolated
    zero of the reflection cannot stop the search.  An exponential fit to
    the probes up to the end bounds the integrals beyond it.
    """
    probes = _end_probes()
    logdet = np.empty(probes.size)
    edges = [0, *range(PROBES_PER_DOUBLING + 1, probes.size, PROBES_PER_DOUBLING), probes.size]
    for lo, hi in zip(edges, edges[1:]):
        logdet[lo:hi] = solve(probes[lo:hi])
        stop = _tail_stop(logdet[:hi], TAIL_RUN - 1)
        if stop is not None:
            start = stop - TAIL_RUN + 1
            tail = [_tail_bound(probes[: start + 1], logdet[: start + 1], j) for j in (0, 2, 4)]
            return float(probes[start]), np.array(tail) / math.pi
    raise ValueError(
        "insufficient decay: log|det A| stayed above "
        f"{TAIL_THRESHOLD} up to k = {K_CAP:.3f}; "
        "pass an explicit k_max to integrate a truncated range"
    )


def compute_scattering(
    potential: SampledPotential, k_max: float | None = None, refine: int = 1
) -> ScatteringData:
    """Matching data and the moment integrals I_j = (1/pi) int_0^end k^j log|det A| dk.

    I_0, I_2 and I_4 come from tanh-sinh on [0, K_SPLIT] and [K_SPLIT, end]
    (_moments), which takes the log singularity of log|det A| at k = 0 with
    no model; on each interval every moment doubles its level until its own
    estimate meets QUADRATURE_TARGET.  With k_max the end is k_max and no
    tail term is added; without it _find_end places the end and bounds the
    tail, or raises (insufficient decay).  Each integral's error adds the
    estimates of both intervals and the tail bound.  Every wavenumber is
    solved once, in batches whose Jost step is set by their largest k and
    divided by refine.  Without k_max the first batch, K_MIN and the first
    level's nodes on [0, K_SPLIT], also takes the first doubling of end
    probes, up to 2 K_SPLIT, whenever the step at 2 K_SPLIT is the one at
    K_MIN, that is, the sample cap sets it: the merged batch then takes the
    step each part would take alone, and a wavenumber's data depend on the
    step, not on the other k in its batch, so one Jost pass is saved and no
    value moves.
    """
    solved_k, solved_logdet, batches, steps = np.empty(0), np.empty(0), [], 0

    def solve(k):
        nonlocal solved_k, solved_logdet, steps
        fresh = np.setdiff1d(k, solved_k)
        if fresh.size:
            matching, pass_steps = _solve_batch(potential, fresh, refine)
            batches.append(matching)
            steps += pass_steps
            solved_k = np.concatenate([solved_k, fresh])
            solved_logdet = np.concatenate([solved_logdet, np.linalg.slogdet(batches[-1][0])[1]])
        order = np.argsort(solved_k)
        return solved_logdet[order[np.searchsorted(solved_k, k, sorter=order)]]

    end = K_CAP if k_max is None else float(k_max)
    extra = K_MIN
    if k_max is None:
        doubling = _end_probes()[: PROBES_PER_DOUBLING + 1]
        if _jost_step(potential, doubling[-1]) == _jost_step(potential, K_MIN):
            extra = np.append(K_MIN, doubling)
    value, error = _moments(solve, 0.0, min(K_SPLIT, end), extra=extra)
    if k_max is None:
        end, tail = _find_end(solve)
        error = error + tail
    if end > K_SPLIT:
        upper, upper_error = _moments(solve, K_SPLIT, end)
        value, error = value + upper, error + upper_error

    pointwise = np.flatnonzero(solved_k >= K_MIN)
    pointwise = pointwise[np.argsort(solved_k[pointwise])]
    a_pos, b_pos, a_neg, b_neg = np.concatenate([np.stack(b) for b in batches], axis=1)[:, pointwise]
    n = potential.matrix_dim
    residual = a_pos @ np.conj(np.swapaxes(a_pos, 1, 2)) - np.eye(n)
    residual -= b_neg @ np.conj(np.swapaxes(b_neg, 1, 2))
    unitarity = np.abs(np.linalg.eigvalsh(
        0.5 * (residual + np.conj(np.swapaxes(residual, 1, 2)))
    )).max(axis=1)

    return ScatteringData(
        k_grid=solved_k[pointwise],
        a_pos=a_pos,
        b_pos=b_pos,
        a_neg=a_neg,
        b_neg=b_neg,
        logdet=solved_logdet[pointwise],
        unitarity_residual=unitarity,
        i0=float(value[0]),
        i2=float(value[1]),
        i4=float(value[2]),
        integral_details={
            "errors": dict(zip((0, 2, 4), error.tolist())),
            "end": end,
        },
        work={"passes": len(batches), "steps": steps, "wavenumbers": solved_k.size},
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
    are the conjugate of the propagated +k data, so lhs is 0 by construction;
    the check measures something only on coupled wells, whose two signs are
    solved independently.
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
                    "k_stop": data.integral_details["end"],
                },
            )
        )
    return reports
