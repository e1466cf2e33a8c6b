"""Deterministic supercritical curves and the limit Gaussian covariance.

For a weight model with E[W^2] > 0 the giant component emerges at
lambda_crit = 1 / E[W^2].  Above it, the limiting volume fraction theta(lambda)
is the unique positive root of the concave map f(t) = phi_1(lambda t) - t, the
vertex fraction is rho = phi_0(lambda theta), and beta = -f'(theta) > 0 sets
the 1/beta fluctuation scale.  ``supercritical_curves`` tabulates all three
over a lambda grid; ``theta`` is the one scalar front-end.  The joint
fluctuation limit of (count, volume) of the giant is a centered bivariate
Gaussian whose covariance is assembled here from the kernel of the weighted
empirical fluctuation processes of orders p, q in {0, 1}, which
``psi_kernel(model, p + q, times)`` evaluates at every pair of times:

    psi(p, q; s, t) = E[W^(p+q) (exp(-W max(s,t)) - exp(-W (s+t)))].

The pair at parameter lambda is a linear combination of the two kernel
coordinates evaluated at time lambda * theta(lambda), with coefficients
(1, lambda*phi_0'(lambda theta)/beta) for the count and (0, 1/beta) for the
volume.  ``x_cov`` keeps one factor of the kernel pair's covariance
(``psi_cov_matrix``), which the limit sampler draws through.  The
Erdos-Renyi closed forms (constant weight 1) are exact analytic anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._numeric import _psd_factor
from .weights import WeightModel, mixed_moment, phi

__all__ = [
    "ConvergenceError",
    "SupercriticalCurves",
    "LimitCovariance",
    "ErClosedForms",
    "DEFAULT_MARGIN",
    "lambda_crit",
    "require_supercritical",
    "theta",
    "psi_kernel",
    "psi_cov_matrix",
    "supercritical_curves",
    "x_cov",
    "er_closed_forms",
]

#: Default relative margin above lambda_crit required of lambda grids.  beta
#: vanishes at criticality, so 1/beta blows up on grids that hug the edge.
DEFAULT_MARGIN = 1e-3

# bisection tolerance, in units of the weight scale 2**(e - 1) <= E[W] < 2**e
_ROOT_TOL = 1e-12
_MAX_BISECT = 200
# floats of (pair, atom) terms per moment evaluation in psi_kernel
_KERNEL_BLOCK = 1 << 14


class ConvergenceError(RuntimeError):
    """Bisection failed to reach its tolerance within the step budget."""


def lambda_crit(model: WeightModel) -> float:
    """Critical edge-intensity parameter, 1 / E[W^2]; refused where that is not a finite float."""
    second = mixed_moment(model, 2, 0.0)
    crit = 1.0 / second if second > 0.0 else np.inf
    if crit == np.inf:
        raise ValueError(f"E[W^2] = {second!r} is too small: lambda_crit = 1 / E[W^2] overflows a float")
    return crit


def require_supercritical(model: WeightModel, lambdas, margin: float = DEFAULT_MARGIN) -> float:
    """Return lambda_crit; name the first lambda (or NaN) below lambda_crit * (1 + margin)."""
    if not margin >= 0.0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    grid = np.asarray(lambdas, dtype=np.float64)
    crit = lambda_crit(model)
    threshold = crit * (1.0 + margin)
    bad = grid[~(grid >= threshold)]
    if bad.size:
        raise ValueError(
            f"lambda = {bad[0]:.17g} is below the supercritical threshold "
            f"lambda_crit * (1 + margin) = {threshold:.17g} (lambda_crit = {crit:.17g})"
        )
    return crit


def _bisect(lo: np.ndarray, hi: np.ndarray, move_lo, tol: float) -> bool:
    """Halve each open interval [lo_i, hi_i] in place until hi - lo <= tol
    and lo > 0.

    ``move_lo(open_, mid)`` marks the open entries whose ``lo`` moves up to
    the midpoint; the others move ``hi`` down.  An entry changes only while
    its own interval is open, so it does not depend on the other entries.
    Returns whether every interval closed within the step budget.
    """
    for _ in range(_MAX_BISECT):
        open_ = np.flatnonzero((hi - lo > tol) | (lo == 0.0))
        if open_.size == 0:
            return True
        mid = 0.5 * (lo[open_] + hi[open_])
        up = move_lo(open_, mid)
        lo[open_[up]] = mid[up]
        hi[open_[~up]] = mid[~up]
    return not np.any((hi - lo > tol) | (lo == 0.0))


def _theta_grid(model: WeightModel, lam: np.ndarray) -> np.ndarray:
    """``theta`` at every entry of an array of supercritical lambdas, bisected together."""
    mean_w = mixed_moment(model, 1, 0.0)
    # scaling every weight by c and lambda by c**-2 scales theta by c: a
    # tolerance relative to E[W]'s power of two keeps the iterates' bits
    # scaled alike when c is a power of two
    tol = _ROOT_TOL * 2.0 ** (np.frexp(mean_w)[1] - 1)
    # Stage 1: f'(t) = lambda E[W^2 exp(-W lambda t)] - 1 decreases strictly
    # from f'(0) > 0 to f'(E[W]) < 0; bisect it to a point a with f'(a) > 0,
    # hence 0 < a < theta.
    a, hi = np.zeros(lam.size), np.full(lam.size, mean_w)
    _bisect(a, hi, lambda i, mid: lam[i] * mixed_moment(model, 2, lam[i] * mid) - 1.0 > 0.0, tol)
    unbracketed = ~(phi(model, 1, lam * a) - a > 0.0)
    if unbracketed.any():
        # Only reachable when lambda sits so close to lambda_crit that the
        # maximizer is below resolvable scale.
        raise ConvergenceError(
            f"could not bracket the root at lambda={lam[unbracketed][0]:g}; "
            "lambda is numerically indistinguishable from lambda_crit"
        )
    # Stage 2: f(t) = phi_1(lambda t) - t is > 0 on (0, theta) and < 0 beyond,
    # so sign bisection on [a, E[W]] converges unconditionally.
    b = np.full(lam.size, mean_w)
    if not _bisect(a, b, lambda i, mid: phi(model, 1, lam[i] * mid) - mid >= 0.0, tol):
        raise ConvergenceError(
            f"root bisection did not reach tolerance {tol:g} in {_MAX_BISECT} steps"
        )
    return 0.5 * (a + b)


def theta(model: WeightModel, lam: float) -> float:
    """Limiting giant volume fraction: positive root of phi_1(lambda t) = t.

    Returns 0 for lambda <= lambda_crit.  Above criticality the root is
    located to 1e-12 2**(e - 1), for 2**(e - 1) <= E[W] < 2**e, by
    guaranteed bisection: f(t) =
    phi_1(lambda t) - t is strictly concave with f(0) = 0, f'(0) =
    lambda E[W^2] - 1 > 0 and f(E[W]) < 0, so we first bisect the monotone
    derivative on [0, E[W]] to bracket the maximizer, then bisect f itself on
    the right branch.  The same bits as in ``supercritical_curves``.
    """
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"lambda must be > 0, got {lam}")
    if lam <= lambda_crit(model):
        return 0.0
    return float(_theta_grid(model, np.array([lam]))[0])


def psi_kernel(model: WeightModel, k: int, times) -> np.ndarray:
    """Kernel matrix E[W^k (exp(-W max(t_i, t_j)) - exp(-W (t_i + t_j)))].

    ``k = p + q`` is the weight order of the kernel pair (p, q).  The sum
    term is evaluated once per pair i <= j, in blocks of at most
    max(m, ``_KERNEL_BLOCK`` / K) pairs, so temporaries stay O(m K) floats
    for m times and K atoms.  The matrix is exactly symmetric, and a row at
    time 0 is exactly zero.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=np.float64))
    at_t = mixed_moment(model, k, ts)
    kernel = np.where(ts[:, None] >= ts[None, :], at_t[:, None], at_t[None, :])
    rows, cols = np.triu_indices(ts.size)
    pair_times = ts[rows] + ts[cols]
    at_sum = np.empty(pair_times.size)
    block = max(ts.size, _KERNEL_BLOCK // model.values.size)
    for lo in range(0, pair_times.size, block):
        at_sum[lo : lo + block] = mixed_moment(model, k, pair_times[lo : lo + block])
    kernel[rows, cols] -= at_sum
    kernel[cols, rows] = kernel[rows, cols]
    return kernel


def psi_cov_matrix(model: WeightModel, times) -> np.ndarray:
    """Joint 2m x 2m kernel covariance at m time points, which may repeat.

    Coordinates are ordered (order-0 at t_1..t_m, then order-1 at t_1..t_m),
    so the blocks are the ``psi_kernel`` matrices of order 0, 1 (twice) and 2.
    """
    ts = np.asarray(times, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("times must be a non-empty 1-d sequence")
    k0, k1, k2 = (psi_kernel(model, k, ts) for k in (0, 1, 2))
    return np.block([[k0, k1], [k1, k2]])


@dataclass(frozen=True, eq=False)
class SupercriticalCurves:
    """Tabulated (lambda, theta, rho, beta) for a model over a lambda grid."""

    model: WeightModel
    lambdas: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    beta: np.ndarray

    def __len__(self) -> int:
        return self.lambdas.size


def supercritical_curves(
    model: WeightModel,
    lambdas,
    margin: float = DEFAULT_MARGIN,
) -> SupercriticalCurves:
    """Tabulate theta, rho, beta over a strictly ascending supercritical grid.

    Every grid point must satisfy lambda >= lambda_crit * (1 + margin); the
    first offender is named in the error.  The whole grid is bisected at
    once, and each entry equals that of a one-point grid at its lambda.
    """
    grid = np.asarray(lambdas, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("lambda grid must be a non-empty 1-d sequence")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("lambda grid must be strictly ascending")
    require_supercritical(model, grid, margin)
    th = _theta_grid(model, grid)
    times = grid * th
    rh = phi(model, 0, times)
    be = 1.0 - grid * mixed_moment(model, 2, times)
    for arr in (grid, th, rh, be):
        arr.setflags(write=False)
    return SupercriticalCurves(model=model, lambdas=grid, theta=th, rho=rh, beta=be)


@dataclass(frozen=True, eq=False)
class LimitCovariance:
    """Joint covariance of the limit fluctuation pair over a lambda grid.

    ``matrix`` is the 2m x 2m covariance with coordinates ordered
    (count_1, volume_1, count_2, volume_2, ...).  ``factor`` is the
    ``_psd_factor`` F of the kernel pair's ``psi_cov_matrix`` at the times
    lambda_i * theta_i, and ``jitter`` the diagonal jitter F needed (0 means
    clean); mapped by ``_pair_coefficients``, F factors ``matrix``.
    """

    matrix: np.ndarray
    factor: np.ndarray
    jitter: float

    @property
    def var_count(self) -> np.ndarray:
        return np.diag(self.matrix)[0::2]

    @property
    def var_volume(self) -> np.ndarray:
        return np.diag(self.matrix)[1::2]

    @property
    def cov_count_volume(self) -> np.ndarray:
        return np.diag(self.matrix, 1)[0::2]


def _pair_coefficients(curves: SupercriticalCurves) -> tuple[np.ndarray, np.ndarray]:
    """``(coeff, inv_beta)`` of the limit pair at each grid point.

    ``coeff`` = lambda * phi_0'(lambda theta) / beta multiplies the order-1
    kernel coordinate inside the count fluctuation; ``inv_beta`` = 1/beta
    scales it into the volume fluctuation.
    """
    times = curves.lambdas * curves.theta
    coeff = curves.lambdas * mixed_moment(curves.model, 1, times) / curves.beta
    return coeff, 1.0 / curves.beta


def x_cov(curves: SupercriticalCurves) -> LimitCovariance:
    """Covariance of the limit pair by bilinearity from the kernel.

    With T_i = lambda_i * theta_i, the count coordinate is
    psi_0(T_i) + coeff_i * psi_1(T_i) and the volume coordinate is
    psi_1(T_i) / beta_i (``_pair_coefficients``), so every entry is a linear
    combination of kernel values of weight order 0, 1, 2, read from the blocks
    of one ``psi_cov_matrix``.  Block (i, j) with i <= j is formed with i
    first and mirrored below the diagonal.  The kernel pair is factored, not
    the assembled matrix, so the factor keeps the exact rank (m for constant
    weight 1, whose two kernel coordinates coincide).
    """
    m = curves.lambdas.size
    pair = psi_cov_matrix(curves.model, curves.lambdas * curves.theta)
    factor, jitter = _psd_factor(pair)
    coeff, inv_beta = _pair_coefficients(curves)
    k0, k1, k2 = pair[:m, :m], pair[:m, m:], pair[m:, m:]
    ci, cj = coeff[:, None], coeff[None, :]
    bi, bj = inv_beta[:, None], inv_beta[None, :]
    cov = np.empty((2 * m, 2 * m))
    cov[0::2, 0::2] = k0 + (ci + cj) * k1 + ci * cj * k2
    cov[0::2, 1::2] = (k1 + ci * k2) * bj
    cov[1::2, 0::2] = (k1 + cj * k2) * bi
    cov[1::2, 1::2] = k2 * bi * bj
    cov = np.where(np.tri(2 * m, k=-1, dtype=bool), cov.T, cov)
    for arr in (cov, factor):
        arr.setflags(write=False)
    return LimitCovariance(matrix=cov, factor=factor, jitter=jitter)


@dataclass(frozen=True)
class ErClosedForms:
    """Erdos-Renyi analytic anchors at a supercritical lambda."""

    rho_er: float
    sigma_sq: float
    u: float
    v: float


_ER_MODEL = WeightModel.constant(1.0)


def er_closed_forms(lam: float) -> ErClosedForms:
    """Closed forms for constant weight 1: giant fraction, its asymptotic
    variance, and the Brownian time-change pair (u, v).

    rho_er solves 1 - exp(-lambda x) = x on (0, 1); then
    sigma_sq = rho (1 - rho) / (1 - lambda (1 - rho))^2,
    u = 1/(1 - rho) - lambda, v = rho/(1 - rho), and v / u^2 = sigma_sq.
    """
    lam = float(lam)
    if lam <= 1.0:
        raise ValueError(f"Erdos-Renyi closed forms require lambda > 1, got {lam}")
    r = theta(_ER_MODEL, lam)  # for W = 1 the fixed point equals the fraction
    one_minus = 1.0 - r
    sigma_sq = r * one_minus / (1.0 - lam * one_minus) ** 2
    return ErClosedForms(
        rho_er=r,
        sigma_sq=sigma_sq,
        u=1.0 / one_minus - lam,
        v=r / one_minus,
    )
