"""Shared numerical primitives used across the package."""

from __future__ import annotations

import numpy as np

# first and last relative diagonal jitter chol_with_jitter tries
_EPS_START = 1e-12
_EPS_MAX = 1e-6


def chol_with_jitter(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a PSD matrix, with escalating diagonal jitter.

    Tries the exact factorisation first (``eps_used`` 0).  If that fails, adds
    ``eps * max(diag)`` to the diagonal, with ``eps`` starting at
    ``_EPS_START`` and escalating tenfold up to ``_EPS_MAX`` before giving up.
    Returns ``(lower_factor, eps_used)``.  An all-zero matrix factors to zero
    with no jitter.

    Raises ``numpy.linalg.LinAlgError`` when every escalation step fails: the
    matrix is then materially non-PSD, not just rounding-singular.
    """
    mat = np.asarray(matrix, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.size == 0:
        return mat.copy(), 0.0
    scale = float(np.max(np.diag(mat)))
    if scale == 0.0:
        if np.any(mat != 0.0):
            raise np.linalg.LinAlgError(
                "matrix has an all-zero diagonal but nonzero off-diagonal entries"
            )
        return np.zeros_like(mat), 0.0
    eps = 0.0
    while eps <= _EPS_MAX * (1.0 + 1e-12):
        try:
            return np.linalg.cholesky(mat + (eps * scale) * np.eye(len(mat)) if eps else mat), eps
        except np.linalg.LinAlgError:
            eps = 10.0 * eps if eps else _EPS_START
    raise np.linalg.LinAlgError(
        f"Cholesky failed up to jitter {_EPS_MAX:g} * max(diag); "
        "matrix is not positive semidefinite"
    )


def _psd_factor(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Sampling factor F with F @ F.T ~= cov, honoring exact degeneracies.

    Zero-variance coordinates are almost surely zero and get a zero row.
    Coordinates whose covariance rows are bitwise equal are perfectly
    correlated copies and share one factor row, so their draws come out
    identical rather than jitter-close: for constant weight 1 the order-0 and
    order-1 kernel rows are equal, and the jittered Cholesky of the full
    matrix would draw them 2.8e-8 apart.  The reduced matrix goes through
    ``chol_with_jitter``, whose jitter is returned with F.
    """
    active = np.flatnonzero(np.diag(cov) > 0.0)
    sub = cov[np.ix_(active, active)]
    _, first, inverse = np.unique(sub, axis=0, return_index=True, return_inverse=True)
    lower, jitter = chol_with_jitter(sub[np.ix_(first, first)])
    factor = np.zeros((cov.shape[0], lower.shape[1]))
    factor[active] = lower[inverse]
    return factor, jitter
