"""Independent references for the benchmark's correctness checks.

Nothing here calls ltlab.  Each function returns a reference value together
with an estimate of its own accuracy, so a check can compare a manifest
record against it with a tolerance made of that accuracy plus the record's
own error budget.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal, eigvalsh

EPS = np.finfo(float).eps
DVR_BOX = 60.0
DVR_STEP = 0.1
ENERGY_EDGE = 1e-8  # the program keeps levels with E >= 1e-8


def scalar_well(spec: dict):
    """Analytic V(x) for the closed-form scalar families the workloads use."""
    family = spec["family"]
    if family == "gaussian":
        depth, width = float(spec["depth"]), float(spec["width"])
        return lambda x: -depth * np.exp(-((np.asarray(x, float) / width) ** 2))
    if family == "poschl-teller":
        nu = float(spec["nu"])

        def v(x):
            decay = np.exp(-2.0 * np.abs(np.asarray(x, float)))
            return -nu * (nu + 1.0) * 4.0 * decay / (1.0 + decay) ** 2  # sech^2

        return v
    raise ValueError(f"no closed form for family {family!r}")


def poschl_teller_levels(nu: int) -> np.ndarray:
    """Exact binding energies (nu - j)^2, j = 0..nu-1, of -nu(nu+1) sech^2."""
    return np.array([(nu - j) ** 2 for j in range(int(nu))], dtype=float)


def _sinc_dvr_levels(v, box: float, step: float) -> np.ndarray:
    """Binding energies of -d^2/dx^2 + v by the Colbert-Miller sinc DVR.

    The kinetic matrix is exact for band-limited functions on the infinite
    uniform grid, so for a smooth well the levels converge exponentially in
    the step; the grid is truncated to [-box, box].
    """
    count = 2 * int(round(box / step)) + 1
    x = step * (np.arange(count) - count // 2)
    offset = np.arange(count)[:, None] - np.arange(count)[None, :]
    with np.errstate(divide="ignore"):
        kinetic = 2.0 * (-1.0) ** np.abs(offset) / offset.astype(float) ** 2
    kinetic[np.diag_indices(count)] = math.pi**2 / 3.0
    vals = eigvalsh(kinetic / step**2 + np.diag(v(x)))
    return np.sort(-vals[vals <= -ENERGY_EDGE])[::-1]


def dvr_levels(wells: list[dict]) -> tuple[np.ndarray, float]:
    """Levels of a direct sum of scalar wells and their accuracy estimate.

    A direct sum decouples, so its spectrum is the union of the blocks'
    spectra.  The accuracy is the largest level change between the step and
    1.25 times the step, which for an exponentially convergent method
    overestimates the error of the finer solve.
    """
    fine, coarse = [], []
    for spec in wells:
        v = scalar_well(spec)
        fine.append(_sinc_dvr_levels(v, DVR_BOX, DVR_STEP))
        coarse.append(_sinc_dvr_levels(v, DVR_BOX, 1.25 * DVR_STEP))
    fine_all = np.sort(np.concatenate(fine))[::-1]
    coarse_all = np.sort(np.concatenate(coarse))[::-1]
    if fine_all.size != coarse_all.size:
        raise ValueError("sinc-DVR level count moved with the step")
    accuracy = float(np.abs(fine_all - coarse_all).max(initial=0.0)) + 1e-12
    return fine_all, accuracy


def riesz_mean(levels: np.ndarray, gamma: float) -> float:
    return float((np.asarray(levels) ** gamma).sum())


def riesz_mean_accuracy(levels: np.ndarray, gamma: float, level_error: float) -> float:
    """First-order propagation of a uniform per-level error to sum E^gamma."""
    levels = np.asarray(levels)
    if levels.size == 0:
        return 0.0
    slope = gamma * np.maximum(levels, level_error) ** (gamma - 1.0)
    return float((slope * level_error).sum())


def kronecker_levels(
    well: dict, box_radius: float, num_interior: int
) -> tuple[np.ndarray, float]:
    """Planar levels of V(x) + V(y) on the program's 5-point Dirichlet grid.

    The 5-point operator of a separable potential is the Kronecker sum of
    two copies of the 3-point 1D operator, so its eigenvalues are all pair
    sums of the tridiagonal eigenvalues.  The accuracy is the backward-error
    scale n * eps * ||H|| of a symmetric eigensolver on the n = M^2 matrix.
    """
    m = int(num_interior)
    h = 2.0 * box_radius / (m + 1)
    x = -box_radius + h * (1 + np.arange(m))
    d = 2.0 / h**2 + scalar_well(well)(x)
    lam = eigh_tridiagonal(d, np.full(m - 1, -1.0 / h**2), eigvals_only=True)
    pair = (lam[:, None] + lam[None, :]).ravel()
    levels = np.sort(-pair[pair <= -ENERGY_EDGE])[::-1]
    norm = 8.0 / h**2 + 2.0 * float(np.abs(d - 2.0 / h**2).max())
    return levels, m * m * EPS * norm


def classical_constant(gamma: float, d: int) -> float:
    """Gamma(g+1) / (2^d pi^(d/2) Gamma(g + d/2 + 1)) with math.gamma."""
    return math.gamma(gamma + 1.0) / (
        2.0**d * math.pi ** (0.5 * d) * math.gamma(gamma + 0.5 * d + 1.0)
    )


def negative_part_integral(well: dict) -> tuple[float, float]:
    """Adaptive quadrature of tr V_minus over the whole line, with its error."""
    v = scalar_well(well)
    value, err = quad(
        lambda x: max(-float(v(x)), 0.0), -np.inf, np.inf,
        epsabs=1e-13, epsrel=1e-13, limit=400,
    )
    return value, err
