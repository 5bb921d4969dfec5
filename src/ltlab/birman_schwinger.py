"""Resolvent-kernel operators attached to the negative part of a potential.

For a nonpositive sampled potential with W = (-V)^(1/2), the family

    (L_e f)(x) = W(x) int exp(-e|x-y|) W(y) f(y) dy,   e >= 0,

is discretized on the potential's own grid with trapezoid weights.  The e = 0
member is a Gram matrix of rank at most the matrix dimension; for e > 0 the
exponential kernel mixes in the Cauchy density, which is what makes every
partial eigenvalue sum nonincreasing in e on any fixed grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import (
    SampledPotential,
    _hermitian_apply,
    fourier_integral,
    part_values,
    require_nonpositive,
)
from .reports import BoundReport, limit_report
from .spectral1d import NegativeSpectrum, _constant_channels

CAUCHY_EPSILONS = (0.5, 2.0, 10.0)
CAUCHY_OFFSETS = (0.0, 0.3, 1.7, 5.0)


@dataclass(frozen=True)
class BSOperator:
    """One discretized kernel operator, held as the diagonal blocks of its factor.

    The operator is A (K (x) I) A with A = diag(A_i), A_i = sqrt(w_i) W(x_i),
    and K_ij = exp(-epsilon |x_i - x_j|); matrix holds the blocks A_i, shape
    (m, n, n), real (float64) when the restricted samples of V_minus have zero
    imaginary part and complex Hermitian otherwise.  eigenvalues holds the
    leading eigenvalues asked for, descending; trace is sum_i w_i tr V_minus(x_i).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    trace: float

    @property
    def size(self) -> int:
        return self.matrix.shape[0] * self.matrix.shape[1]

    def partial_sums(self, n_max: int) -> np.ndarray:
        k = min(n_max, self.eigenvalues.size)
        sums = np.cumsum(self.eigenvalues[:k])
        if k < n_max:
            sums = np.concatenate([sums, np.full(n_max - k, sums[-1])])
        return sums


def _restriction_grid(potential: SampledPotential, neg: np.ndarray, stride: int):
    """Support nodes of the grid (every stride-th), their points and trapezoid
    weights; neg holds the samples of V_minus."""
    x = potential.grid
    a, b = potential.support
    mask = (x >= a - 1e-12) & (x <= b + 1e-12)
    idx = np.nonzero(mask)[0]
    if stride > 1:
        if idx.size % 2 == 0:
            # an even count cannot host the stride-2 subgrid; shed the
            # endpoint with the smaller sample so the quadrature barely moves
            lo = float(np.abs(neg[idx[0]]).max())
            hi = float(np.abs(neg[idx[-1]]).max())
            idx = idx[1:] if lo <= hi else idx[:-1]
        idx = idx[::stride]
    pts = x[idx]
    h = potential.grid_step * stride
    w = np.full(pts.size, h)
    w[0] = w[-1] = h / 2.0
    return idx, pts, w


def _psd_sqrt(blocks: np.ndarray) -> np.ndarray:
    return _hermitian_apply(blocks, lambda mu: np.sqrt(np.maximum(mu, 0.0)))


def _leading_eigenvalues(
    a: np.ndarray, pts: np.ndarray, epsilon: float, top: int
) -> np.ndarray:
    """Leading eigenvalues, descending, of A (K (x) I) A, K_ij = exp(-epsilon |x_i - x_j|).

    a holds the diagonal blocks of A at the points pts, shape (m, n, n), and
    epsilon > 0.  Points where A vanishes add only zero eigenvalues; they are
    dropped, so Lanczos never exhausts its Krylov space on a null space, and
    fewer than top values may come back.  K is semiseparable: K = F + F^T - I
    with F = (I - DS)^(-1), S the down-shift and D_i = exp(-epsilon (x_i -
    x_(i-1))), so a matvec is two bidiagonal solves (LAPACK tbtrs, plain and
    transposed; K is real, so complex columns go as real pairs).  ARPACK takes
    at most size - 1 eigenvalues (eigsh) or size - 2 (eigs, the complex
    Hermitian case); one zero row appended to a complex operator leaves its
    nonzero spectrum alone and lifts its limit to size - 1.  When every
    eigenvalue is wanted, the last is the trace minus the others.
    """
    import scipy.sparse.linalg as spla
    from scipy.linalg.lapack import dtbtrs

    keep = np.abs(a).max(axis=(1, 2)) > 0.0
    if not keep.any():
        return np.empty(0)
    a, pts = a[keep], pts[keep]
    m, n, _ = a.shape
    size = m * n
    want = min(top, size)
    trace = float(np.vdot(a, a).real)
    pad = int(np.iscomplexobj(a))
    steps = np.append(np.exp(-epsilon * np.diff(pts)), 0.0)
    band = np.array([np.ones(m), -steps])

    def matvec(v):
        x = np.asarray(v, dtype=a.dtype).reshape(-1)[:size]
        u = np.matmul(a, x.reshape(m, n, 1)).reshape(m, -1).view(np.float64)
        forward, _ = dtbtrs(band, u, uplo="L")
        backward, _ = dtbtrs(band, u, uplo="L", trans="T")
        ku = np.ascontiguousarray(forward + backward - u).view(a.dtype)
        y = np.matmul(a, ku.reshape(m, n, 1)).reshape(-1)
        return np.concatenate([y, np.zeros(pad)]) if pad else y

    k = min(want, size - 1)
    vals = np.empty(0)
    if k > 0:
        op = spla.LinearOperator((size + pad, size + pad), matvec=matvec, dtype=a.dtype)
        v0 = np.random.default_rng(0).standard_normal(size + pad)
        vals = spla.eigsh(op, k=k, which="LA", v0=v0, return_eigenvectors=False)
        vals = np.sort(vals)[::-1]
    if k < want:
        vals = np.append(vals, trace - vals.sum())
    return vals


def build_L(
    potential: SampledPotential, epsilon: float, stride: int = 1, top: int = 10
) -> BSOperator:
    """The top leading eigenvalues of the trapezoid discretization of L_e.

    L_e is discretized on the support restriction of the grid; the negative
    part V_minus of potential defines W, and stride=2 yields the
    half-resolution operator used for eigenvalue extrapolation.  At e = 0 the
    operator is a Gram matrix whose nonzero eigenvalues are those of the n x n
    matrix sum_i A_i^2.  For e > 0 a well that splits into constant channels
    (spectral1d's split rule, applied to V_minus) is solved channel by channel:
    single-vector Lanczos can miss a copy of a repeated eigenvalue, as in
    V + V, while each scalar channel is an oscillation kernel with a simple
    spectrum.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    neg = part_values(potential, "minus")
    idx, pts, w = _restriction_grid(potential, neg, stride)
    blocks = neg[idx]
    if not blocks.imag.any():
        blocks = blocks.real
    a = np.sqrt(w)[:, None, None] * _psd_sqrt(blocks)
    if epsilon == 0:
        found = [np.linalg.eigvalsh(np.einsum("xij,xjk->ik", a, a))]
    else:
        channels = _constant_channels(blocks)
        parts = (
            [a] if channels is None
            else [np.sqrt(w * np.maximum(c, 0.0))[:, None, None] for c in channels]
        )
        found = [_leading_eigenvalues(p, pts, epsilon, top) for p in parts]
    # the null directions left out above make up the count with exact zeros
    want = min(top, pts.size * potential.matrix_dim)
    vals = np.sort(np.concatenate(found + [np.zeros(want)]))[::-1][:want]
    return BSOperator(matrix=a, eigenvalues=vals, trace=float(np.vdot(a, a).real))


def monotonicity_audit(
    potential: SampledPotential,
    epsilons: np.ndarray | tuple | None = None,
    n_max: int = 10,
) -> tuple[list[BoundReport], dict]:
    """Partial sums must not increase in e and the trace must not move at all.

    Both statements hold exactly for the discretized family, so the tolerance
    only absorbs floating-point noise scaled by the trace.  Returns the
    reports and the plot columns: epsilon, partial sums s1..sN and trace.
    """
    if epsilons is None:
        epsilons = np.concatenate([[0.0], np.logspace(-3.0, 2.0, 11)])
    eps = np.asarray(epsilons, float)
    sums = np.empty((eps.size, n_max))
    traces = np.empty(eps.size)
    for i, e in enumerate(eps):
        op = build_L(potential, e, top=n_max)
        sums[i] = op.partial_sums(n_max)
        traces[i] = op.trace
    scale = abs(traces[0])
    tol = 1e-9 * max(scale, 1.0)
    increments = np.diff(sums, axis=0)
    if increments.size:
        worst = float(increments.max())
        step_idx, col = np.unravel_index(np.argmax(increments), increments.shape)
        violation = {
            "n": int(col) + 1,
            "epsilon_pair": [float(eps[step_idx]), float(eps[step_idx + 1])],
            "gap": worst,
        }
    else:
        worst, violation = 0.0, None
    trace_tol = 1e-12 * max(scale, 1.0)
    trace_drift = float(np.abs(traces - traces[0]).max())
    reports = [
        limit_report("kyfan-monotonicity", worst, tol, {
            "epsilons": eps,
            "n_max": n_max,
            "worst_increment": violation,
        }),
        limit_report("kyfan-trace-constancy", trace_drift, trace_tol, {"trace": traces[0]}),
    ]
    return reports, {"epsilon": eps, **{f"s{k + 1}": c for k, c in enumerate(sums.T)}, "trace": traces}


def eigenvalue_at_energy(
    potential: SampledPotential, energy: float, rank: int
) -> float:
    """Grid-extrapolated rank-th descending eigenvalue of K_E = L_sqrt(E) / (2 sqrt(E))."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    kappa = math.sqrt(energy)
    scale = 1.0 / (2.0 * kappa)
    lam_f = scale * build_L(potential, kappa, 1, rank + 1).eigenvalues[rank]
    lam_c = scale * build_L(potential, kappa, 2, rank + 1).eigenvalues[rank]
    return float(lam_f + (lam_f - lam_c) / 3.0)


def birman_schwinger_audit(
    potential: SampledPotential,
    spectrum: NegativeSpectrum,
    tolerance: float = 1e-3,
) -> BoundReport:
    """Each bound state pins a unit eigenvalue of the kernel at its energy.

    For the j-th level (energies descending) the j-th descending eigenvalue
    of K at that energy must equal 1; lhs records the worst deviation.
    """
    require_nonpositive(potential)
    if spectrum.count == 0:
        raise ValueError("audit needs at least one bound state")
    deviations = []
    for j, energy in enumerate(spectrum.energies):
        lam = eigenvalue_at_energy(potential, float(energy), j)
        deviations.append(abs(lam - 1.0))
    worst = float(max(deviations))
    return limit_report("birman-schwinger", worst, tolerance, {
        "energies": spectrum.energies,
        "deviations": deviations,
    })


def cauchy_kernel_identity_check(tolerance: float = 1e-6) -> BoundReport:
    """exp(-e|u|) equals the cosine transform of the Cauchy density e/(pi(e^2+p^2)).

    This is the decomposition behind the exact monotonicity statement, checked
    at a few decay rates and offsets by the double-exponential cosine rule of
    potentials.fourier_integral (exp-sinh at offset 0).
    """
    worst = 0.0
    for eps in CAUCHY_EPSILONS:
        # relative comparison is meaningless once the target drops below
        # what absolute-tolerance quadrature can resolve
        offsets = np.array([u for u in CAUCHY_OFFSETS if eps * abs(u) <= 8.0])
        values, _ = fourier_integral(
            lambda p: 2.0 * eps / (math.pi * (eps * eps + p * p)), np.abs(offsets), "cos", 1e-11
        )
        target = np.exp(-eps * np.abs(offsets))
        worst = max(worst, float((np.abs(values - target) / np.maximum(target, 1e-30)).max()))
    return limit_report(
        "cauchy-kernel", worst, tolerance,
        {"epsilons": list(CAUCHY_EPSILONS), "offsets": list(CAUCHY_OFFSETS)},
    )
