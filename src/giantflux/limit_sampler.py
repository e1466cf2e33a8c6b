"""Sampling of the limit Gaussian objects for distribution-level comparison.

Two samplers: the joint kernel pair (order-0 and order-1 weighted empirical
fluctuations) on a finite time set, and the limit fluctuation pair of the
giant over a lambda grid, both as z @ F.T with F a ``_psd_factor`` of the
kernel pair.  All draws are centered Gaussians; reproducibility is per seed
within this artifact, and checks against them are statistical.
"""

from __future__ import annotations

import numpy as np

from ._numeric import _psd_factor
from .theory import SupercriticalCurves, _pair_coefficients, psi_cov_matrix, x_cov
from .weights import WeightModel

__all__ = [
    "sample_psi_pair",
    "sample_x_path",
]


def _draws(factor: np.ndarray, count: int, seed: int) -> np.ndarray:
    """``count`` draws z @ factor.T of the kernel pair, shape (count, 2, m)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    z = np.random.default_rng(seed).standard_normal((count, factor.shape[1]))
    return (z @ factor.T).reshape(count, 2, factor.shape[0] // 2)


def sample_psi_pair(model: WeightModel, times, count: int, seed: int) -> np.ndarray:
    """``count`` joint draws of the kernel pair at the given times.

    Returns an array of shape (count, 2, m): ``[:, p, i]`` is the order-p
    coordinate at times[i].
    """
    if np.unique(times).size != np.size(times):
        raise ValueError("times must be distinct")
    return _draws(_psd_factor(psi_cov_matrix(model, times))[0], count, seed)


def sample_x_path(
    curves: SupercriticalCurves, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` joint draws of the limit fluctuation pair over the curve grid.

    Returns ``(x0, x1)``, each of shape (count, m): ``x0[k, i]`` is the
    count-fluctuation coordinate of draw k at lambda_i, ``x1[k, i]`` the
    volume one.  The kernel pair at the times lambda_i * theta_i, which
    strictly increase with lambda, is drawn through ``x_cov``'s factor and
    combined with the coefficients ``x_cov`` uses.
    """
    draws = _draws(x_cov(curves).factor, count, seed)
    coeff, inv_beta = _pair_coefficients(curves)
    x0 = draws[:, 0, :] + coeff[None, :] * draws[:, 1, :]
    x1 = draws[:, 1, :] * inv_beta[None, :]
    return x0, x1
