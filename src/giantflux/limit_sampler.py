"""Sampling of the limit Gaussian objects for distribution-level comparison.

Two samplers: the joint kernel pair (order-0 and order-1 weighted empirical
fluctuations) on a finite time set, and the limit fluctuation pair of the
giant over a lambda grid.  All draws are centered Gaussians; reproducibility
is per seed within this artifact, and checks against them are statistical.
"""

from __future__ import annotations

import numpy as np

from ._numeric import chol_with_jitter
from .theory import SupercriticalCurves, _pair_coefficients, psi_kernel
from .weights import WeightModel

__all__ = [
    "psi_cov_matrix",
    "sample_psi_pair",
    "sample_x_path",
]


def psi_cov_matrix(model: WeightModel, times) -> np.ndarray:
    """Joint 2m x 2m kernel covariance at m time points, which may repeat.

    Coordinates are ordered (order-0 at t_1..t_m, then order-1 at t_1..t_m).
    """
    ts = np.asarray(times, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    k0, k1, k2 = (psi_kernel(model, k, ts) for k in (0, 1, 2))
    return np.block([[k0, k1], [k1, k2]])


def _psd_factor(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Sampling factor F with F @ F.T ~= cov, honoring exact degeneracies.

    Zero-variance coordinates are almost surely zero and get a zero row.
    Coordinates whose covariance rows are bitwise equal are perfectly
    correlated copies and share one factor row, so their draws come out
    identical rather than jitter-close.  The samplers' times are distinct, but
    for constant weight 1 the order-0 and order-1 rows are equal: the jittered
    Cholesky of the full matrix would draw them 2.8e-8 apart.  The reduced
    matrix goes through the jittered Cholesky policy.
    """
    dim = cov.shape[0]
    diag = np.diag(cov)
    active = np.flatnonzero(diag > 0.0)
    factor = np.zeros((dim, 0))
    jitter = 0.0
    if active.size:
        sub = cov[np.ix_(active, active)]
        _, first, inverse = np.unique(sub, axis=0, return_index=True, return_inverse=True)
        reduced = sub[np.ix_(first, first)]
        lower, jitter = chol_with_jitter(reduced)
        factor = np.zeros((dim, lower.shape[1]))
        factor[active] = lower[inverse]
    return factor, jitter


def _draw_pair(cov: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` draws of the kernel pair with covariance ``cov``, shape (count, 2, m)."""
    factor, _ = _psd_factor(cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, factor.shape[1]))
    return (z @ factor.T).reshape(count, 2, cov.shape[0] // 2)


def sample_psi_pair(model: WeightModel, times, count: int, seed: int) -> np.ndarray:
    """``count`` joint draws of the kernel pair at the given times.

    Returns an array of shape (count, 2, m): ``[:, p, i]`` is the order-p
    coordinate at times[i].
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if np.unique(times).size != np.size(times):
        raise ValueError("times must be distinct")
    return _draw_pair(psi_cov_matrix(model, times), count, seed)


def sample_x_path(
    curves: SupercriticalCurves, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` joint draws of the limit fluctuation pair over the curve grid.

    Returns ``(x0, x1)``, each of shape (count, m): ``x0[k, i]`` is the
    count-fluctuation coordinate of draw k at lambda_i, ``x1[k, i]`` the
    volume one.  The kernel pair is evaluated at the times lambda_i * theta_i,
    which strictly increase with lambda, and combined with the coefficients
    ``x_cov`` uses, so only the 2m x 2m kernel covariance is factored.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    coeff, inv_beta = _pair_coefficients(curves)
    draws = _draw_pair(psi_cov_matrix(curves.model, curves.lambdas * curves.theta), count, seed)
    x0 = draws[:, 0, :] + coeff[None, :] * draws[:, 1, :]
    x1 = draws[:, 1, :] * inv_beta[None, :]
    return x0, x1
