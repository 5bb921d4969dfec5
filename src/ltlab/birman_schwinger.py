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
from scipy.integrate import quad

from .potentials import MatrixFunctionSplit, SampledPotential, part_eigenvalues, split_parts
from .reports import BoundReport
from .spectral1d import NegativeSpectrum

NONPOSITIVITY_TOL = 1e-12

WSource = "MatrixFunctionSplit | SampledPotential"


def _default_epsilons() -> np.ndarray:
    return np.concatenate([[0.0], np.logspace(-3.0, 2.0, 11)])


@dataclass(frozen=True)
class BSOperator:
    """Dense discretization of one kernel operator, eigenvalues descending.

    The matrix is real (float64) when the restricted samples of V_minus have
    zero imaginary part, as for every scalar well and every real direct sum,
    and complex Hermitian otherwise.
    """

    epsilon: float
    grid: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    matrix_dim: int
    eigenvalues: np.ndarray

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def partial_sums(self, n_max: int) -> np.ndarray:
        k = min(n_max, self.eigenvalues.size)
        sums = np.cumsum(self.eigenvalues[:k])
        if k < n_max:
            sums = np.concatenate([sums, np.full(n_max - k, sums[-1])])
        return sums


def _restriction_grid(potential: SampledPotential, stride: int):
    x = potential.grid
    a, b = potential.support
    mask = (x >= a - 1e-12) & (x <= b + 1e-12)
    idx = np.nonzero(mask)[0]
    if stride > 1:
        if idx.size % 2 == 0:
            # an even count cannot host the stride-2 subgrid; shed the
            # endpoint with the smaller sample so the quadrature barely moves
            lo = float(np.abs(potential.values[idx[0]]).max())
            hi = float(np.abs(potential.values[idx[-1]]).max())
            idx = idx[1:] if lo <= hi else idx[:-1]
        idx = idx[::stride]
    pts = x[idx]
    h = potential.grid_step * stride
    w = np.full(pts.size, h)
    w[0] = w[-1] = h / 2.0
    return idx, pts, w


def _psd_sqrt(blocks: np.ndarray) -> np.ndarray:
    mu, u = np.linalg.eigh(blocks)
    root = np.sqrt(np.maximum(mu, 0.0))
    w = np.einsum("xij,xj,xkj->xik", u, root, np.conj(u))
    return 0.5 * (w + np.conj(np.swapaxes(w, 1, 2)))


def _negative_part_of(source) -> SampledPotential:
    if isinstance(source, MatrixFunctionSplit):
        return source.negative_part
    if isinstance(source, SampledPotential):
        return split_parts(source).negative_part
    raise TypeError("source must be a MatrixFunctionSplit or a SampledPotential")


def build_L(source, epsilon: float, stride: int = 1) -> BSOperator:
    """Trapezoid discretization of L_e on the support restriction of the grid.

    source supplies the negative part V_minus that defines W; stride=2 yields
    the half-resolution operator used for eigenvalue extrapolation.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    neg = _negative_part_of(source)
    idx, pts, w = _restriction_grid(neg, stride)
    blocks = neg.values[idx]
    if not blocks.imag.any():
        blocks = blocks.real
    wmat = _psd_sqrt(blocks)
    a = np.sqrt(w)[:, None, None] * wmat
    kern = np.exp(-epsilon * np.abs(pts[:, None] - pts[None, :]))
    m, n = pts.size, neg.matrix_dim
    big = np.einsum("ij,iab,jbc->iajc", kern, a, a).reshape(m * n, m * n)
    big = 0.5 * (big + big.conj().T)
    vals = np.linalg.eigvalsh(big)[::-1]
    return BSOperator(
        epsilon=float(epsilon),
        grid=pts,
        weights=w,
        matrix=big,
        matrix_dim=n,
        eigenvalues=vals,
    )


def build_K(source, energy: float, stride: int = 1) -> BSOperator:
    """Kernel at spectral parameter -energy: K_E = L_sqrt(E) / (2 sqrt(E))."""
    if energy <= 0:
        raise ValueError("energy must be positive")
    kappa = math.sqrt(energy)
    op = build_L(source, kappa, stride)
    scale = 1.0 / (2.0 * kappa)
    return BSOperator(
        epsilon=kappa,
        grid=op.grid,
        weights=op.weights,
        matrix=scale * op.matrix,
        matrix_dim=op.matrix_dim,
        eigenvalues=scale * op.eigenvalues,
    )


@dataclass(frozen=True)
class KyFanProfile:
    """Partial eigenvalue sums of L_e over a range of decay rates."""

    epsilons: np.ndarray
    partial_sums: np.ndarray
    traces: np.ndarray

    def to_csv(self) -> str:
        n_max = self.partial_sums.shape[1]
        header = "epsilon," + ",".join(f"s{k}" for k in range(1, n_max + 1)) + ",trace"
        lines = [header]
        for i, eps in enumerate(self.epsilons):
            vals = [repr(float(eps))]
            vals += [repr(float(v)) for v in self.partial_sums[i]]
            vals.append(repr(float(self.traces[i])))
            lines.append(",".join(vals))
        return "\n".join(lines) + "\n"


def kyfan_profile(
    potential: SampledPotential,
    epsilons: np.ndarray | None = None,
    n_max: int = 10,
) -> KyFanProfile:
    eps = _default_epsilons() if epsilons is None else np.asarray(epsilons, float)
    sums = np.empty((eps.size, n_max))
    traces = np.empty(eps.size)
    for i, e in enumerate(eps):
        op = build_L(potential, e)
        sums[i] = op.partial_sums(n_max)
        traces[i] = op.trace
    return KyFanProfile(epsilons=eps, partial_sums=sums, traces=traces)


def monotonicity_audit(
    potential: SampledPotential,
    epsilons: np.ndarray | None = None,
    n_max: int = 10,
) -> tuple[list[BoundReport], KyFanProfile]:
    """Partial sums must not increase in e and the trace must not move at all.

    Both statements hold exactly for the discretized family, so the tolerance
    only absorbs floating-point noise scaled by the trace.
    """
    profile = kyfan_profile(potential, epsilons, n_max)
    scale = abs(profile.traces[0])
    tol = 1e-9 * max(scale, 1.0)
    increments = np.diff(profile.partial_sums, axis=0)
    if increments.size:
        worst = float(increments.max())
        step_idx, col = np.unravel_index(np.argmax(increments), increments.shape)
        violation = {
            "n": int(col) + 1,
            "epsilon_pair": [
                float(profile.epsilons[step_idx]),
                float(profile.epsilons[step_idx + 1]),
            ],
            "gap": worst,
        }
    else:
        worst, violation = 0.0, None
    trace_tol = 1e-12 * max(scale, 1.0)
    trace_drift = float(np.abs(profile.traces - profile.traces[0]).max())
    reports = [
        BoundReport(
            audit_tag="kyfan-monotonicity",
            lhs=worst,
            rhs=tol,
            tolerance=tol,
            passed=worst <= tol,
            provenance={
                "epsilons": profile.epsilons,
                "n_max": n_max,
                "worst_increment": violation,
            },
        ),
        BoundReport(
            audit_tag="kyfan-trace-constancy",
            lhs=trace_drift,
            rhs=trace_tol,
            tolerance=trace_tol,
            passed=trace_drift <= trace_tol,
            provenance={"trace": profile.traces[0]},
        ),
    ]
    return reports, profile


def eigenvalue_at_energy(
    potential: SampledPotential, energy: float, rank: int
) -> float:
    """Grid-extrapolated rank-th descending eigenvalue of K at one energy."""
    fine = build_K(potential, energy, stride=1)
    coarse = build_K(potential, energy, stride=2)
    lam_f = fine.eigenvalues[rank]
    lam_c = coarse.eigenvalues[rank]
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
    mu_plus = part_eigenvalues(potential, "plus")
    if mu_plus.max() > NONPOSITIVITY_TOL:
        raise ValueError(
            f"potential has a positive part ({mu_plus.max():.3e}); "
            "the unit-eigenvalue correspondence needs V <= 0"
        )
    if spectrum.count == 0:
        raise ValueError("audit needs at least one bound state")
    deviations = []
    for j, energy in enumerate(spectrum.energies):
        lam = eigenvalue_at_energy(potential, float(energy), j)
        deviations.append(abs(lam - 1.0))
    worst = float(max(deviations))
    return BoundReport(
        audit_tag="birman-schwinger",
        lhs=worst,
        rhs=tolerance,
        tolerance=tolerance,
        passed=worst <= tolerance,
        provenance={
            "energies": spectrum.energies,
            "deviations": deviations,
        },
    )


def cauchy_kernel_identity_check(
    epsilon_values=(0.5, 2.0, 10.0),
    offsets=(0.0, 0.3, 1.7, 5.0),
    tolerance: float = 1e-6,
) -> BoundReport:
    """exp(-e|u|) equals the cosine transform of the Cauchy density e/(pi(e^2+p^2)).

    This is the decomposition behind the exact monotonicity statement, checked
    by adaptive quadrature at a few decay rates and offsets.
    """
    worst = 0.0
    for eps in epsilon_values:
        for u in offsets:
            if eps * abs(u) > 8.0:
                # relative comparison is meaningless once the target drops
                # below what absolute-tolerance quadrature can resolve
                continue
            target = math.exp(-eps * abs(u))
            density = lambda p: 2.0 * eps / (math.pi * (eps * eps + p * p))
            if u == 0.0:
                val, err = quad(density, 0.0, np.inf, epsabs=1e-11)
            else:
                val, err = quad(
                    density, 0.0, np.inf, weight="cos", wvar=u, epsabs=1e-11
                )
            worst = max(worst, abs(val - target) / max(target, 1e-30))
    return BoundReport(
        audit_tag="cauchy-kernel",
        lhs=worst,
        rhs=tolerance,
        tolerance=tolerance,
        passed=worst <= tolerance,
        provenance={"epsilons": list(epsilon_values), "offsets": list(offsets)},
    )
