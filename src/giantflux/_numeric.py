"""Shared numerical primitives used across the package."""

from __future__ import annotations

import numpy as np


def pairwise_cumsum(values: np.ndarray) -> np.ndarray:
    """Inclusive prefix sums via a doubling scheme.

    Every output entry is a balanced tree sum of depth <= ceil(log2 n), so the
    accumulated rounding stays near log2(n) ulps instead of the n ulps of a
    naive running sum.  The passes alternate between two buffers, so no
    pass allocates.
    """
    out = np.array(values, dtype=np.float64, copy=True)
    spare = np.empty_like(out)
    shift = 1
    while shift < out.size:
        np.add(out[shift:], out[:-shift], out=spare[shift:])
        spare[:shift] = out[:shift]
        out, spare = spare, out
        shift *= 2
    return out


def chol_with_jitter(
    matrix: np.ndarray,
    eps_start: float = 1e-12,
    eps_max: float = 1e-6,
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a PSD matrix, with escalating diagonal jitter.

    Tries the exact factorisation first (``eps_used`` 0).  If that fails, adds
    ``eps * max(diag)`` to the diagonal, with ``eps`` starting at
    ``eps_start`` and escalating tenfold up to ``eps_max`` before giving up.
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
    try:
        return np.linalg.cholesky(mat), 0.0
    except np.linalg.LinAlgError:
        pass
    eye = np.eye(mat.shape[0])
    eps = eps_start
    while eps <= eps_max * (1.0 + 1e-12):
        try:
            return np.linalg.cholesky(mat + (eps * scale) * eye), eps
        except np.linalg.LinAlgError:
            eps *= 10.0
    raise np.linalg.LinAlgError(
        f"Cholesky failed up to jitter {eps_max:g} * max(diag); "
        "matrix is not positive semidefinite"
    )
