"""Bayesian view of the ridge head and the unlearning certificate.

Under a Gaussian likelihood with noise variance sigma2 and an isotropic
Gaussian prior with variance tau2 = sigma2 / gamma, the posterior over the
head is matrix-normal with mean equal to the ridge solution and row
covariance sigma2 * (S + gamma*I)^-1, with identity column covariance.
Since both parameters are functions of (S, G) alone, a protocol that keeps
the statistics exact keeps the whole posterior exact, and the KL divergence
against a from-scratch recomputation is zero up to floating-point noise.

The posterior is stored as its mean M and the lower Cholesky factor P of
the row precision (S + gamma*I) / sigma2, the one factor the head solve
already needs.  The KL between two such posteriors with identity column
covariance reduces to c Gaussian columns sharing one row covariance; with
precision factors P_p, P_q and mix = P_p^-1 P_q (lower triangular),

    KL(p || q) = c/2 * ( ||mix||_F^2 - d - 2 sum_i ln mix_ii )
                 + 1/2 * || P_qᵀ (M_q - M_p) ||_F^2

and the trace/log-det part is summed as sum_i (x_i^2 - 1 - 2 ln x_i) with
x = diag(mix), plus the squares of mix's strict lower triangle, so every
summand is non-negative up to rounding.  The reduction is cross-checked in
the test suite against a dense vectorized-Gaussian KL at small dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import DimensionMismatch, frobenius_norm, inverse_from_factor, triangular_solve_lower
from .stats import Ledger


@dataclass(frozen=True)
class MatrixNormalPosterior:
    M: np.ndarray
    P: np.ndarray  # lower Cholesky factor of the row precision Sigma^-1

    @property
    def Sigma(self) -> np.ndarray:
        """Row covariance (P Pᵀ)^-1, formed on demand."""
        return inverse_from_factor(self.P)

    @property
    def d(self) -> int:
        return self.P.shape[0]

    @property
    def c(self) -> int:
        return self.M.shape[1]


def posterior_from_ledger(ledger: Ledger, sigma2: float = 1.0) -> MatrixNormalPosterior:
    """Posterior from the ledger's factor of S + gamma*I; M is `ledger.head`."""
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")
    return MatrixNormalPosterior(ledger.head, ledger.factor / math.sqrt(sigma2))


def kl_matrix_normal(p: MatrixNormalPosterior, q: MatrixNormalPosterior) -> float:
    """KL(p || q) between matrix-normal posteriors with identity column cov."""
    if p.P.shape != q.P.shape or p.M.shape != q.M.shape:
        raise DimensionMismatch("posterior dimensions differ")
    p_p = p.P.astype(np.float64, copy=False)
    p_q = q.P.astype(np.float64, copy=False)
    mix = triangular_solve_lower(p_p, p_q)
    x = np.diagonal(mix)
    off = np.tril(mix, -1)
    trace_logdet = float(np.sum(x * x - 1.0 - 2.0 * np.log(x)) + np.sum(off * off))
    white = p_q.T @ (q.M - p.M).astype(np.float64)
    quad = float(np.sum(white * white))
    return 0.5 * (p.c * trace_logdet + quad)


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
