"""Bayesian view of the ridge head and the unlearning certificate.

Under a Gaussian likelihood with noise variance sigma2 and an isotropic
Gaussian prior with variance tau2 = sigma2 / gamma, the posterior over the
head is matrix-normal with mean equal to the ridge solution and row
covariance sigma2 * (S + gamma*I)^-1, with identity column covariance.
Since both parameters are functions of (S, G) alone, a protocol that keeps
the statistics exact keeps the whole posterior exact, and the KL divergence
against a from-scratch recomputation is zero up to floating-point noise.

The KL between two such posteriors with identity column covariance reduces
to c Gaussian columns sharing one row covariance:

    KL = c/2 * ( tr(S2^-1 S1) - d + logdet S2 - logdet S1 )
         + 1/2 * || L2^-1 (M2 - M1) ||_F^2

evaluated here through Cholesky factors so every summand is non-negative
up to rounding (the trace/logdet part becomes sum_i of x^2 - 1 - 2 ln x
terms plus squares).  The reduction is cross-checked in the test suite
against a dense vectorized-Gaussian KL at small dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (
    DimensionMismatch,
    cholesky_spd,
    frobenius_norm,
    spd_inverse,
    triangular_solve_lower,
)
from .stats import Ledger, regularized_gram, solve_head


@dataclass(frozen=True)
class MatrixNormalPosterior:
    M: np.ndarray
    Sigma: np.ndarray
    sigma2: float
    gamma: float

    @property
    def d(self) -> int:
        return self.Sigma.shape[0]

    @property
    def c(self) -> int:
        return self.M.shape[1]


def posterior_from_ledger(ledger: Ledger, sigma2: float = 1.0) -> MatrixNormalPosterior:
    """Posterior parameters for the ledger's current retained statistics."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    mean = solve_head(ledger)
    sigma = float(sigma2) * spd_inverse(regularized_gram(ledger))
    return MatrixNormalPosterior(mean, sigma, float(sigma2), float(ledger.gamma))


def kl_matrix_normal(p: MatrixNormalPosterior, q: MatrixNormalPosterior) -> float:
    """KL(p || q) between matrix-normal posteriors with identity column cov."""
    if p.Sigma.shape != q.Sigma.shape or p.M.shape != q.M.shape:
        raise DimensionMismatch("posterior dimensions differ")
    c = p.c
    l_p = cholesky_spd(p.Sigma.astype(np.float64))
    l_q = cholesky_spd(q.Sigma.astype(np.float64))
    mix = triangular_solve_lower(l_q, l_p)
    # ||mix||_F^2 - d - 2 sum(log diag(mix)), summed as non-negative terms
    x = np.diagonal(mix)
    off = np.tril(mix, -1)
    trace_logdet = float(np.sum(x * x - 1.0 - 2.0 * np.log(x)) + np.sum(off * off))
    white = triangular_solve_lower(l_q, (q.M - p.M).astype(np.float64))
    quad = float(np.sum(white * white))
    return 0.5 * (c * trace_logdet + quad)


def psd_order_check(sigma_before: np.ndarray, sigma_after: np.ndarray) -> bool:
    """True iff sigma_after dominates sigma_before in the PSD order.

    The comparison tolerates eigenvalue undershoot of 1e-9 times the
    Frobenius norm of the reference, absorbing roundoff.
    """
    if sigma_before.shape != sigma_after.shape:
        raise DimensionMismatch("covariance dimensions differ")
    diff = np.asarray(sigma_after, dtype=np.float64) - np.asarray(sigma_before, dtype=np.float64)
    floor = -1e-9 * frobenius_norm(sigma_before)
    return bool(np.linalg.eigvalsh(diff)[0] >= floor)
