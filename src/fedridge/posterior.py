"""Bayesian view of the ridge head and the unlearning certificate.

Under a Gaussian likelihood with unit noise variance and a Gaussian
prior with variance 1/gamma, the posterior over the head is matrix-normal
with the ridge solution as mean, row covariance (S + gamma*I)^-1 and
identity column covariance.  Both are functions of (S, G) alone, so a
protocol that keeps the statistics exact keeps the whole posterior exact,
and its KL from a from-scratch recomputation is zero up to floating-point
noise; a noise variance both posteriors share only rescales the mean term.

The posterior is stored as its mean M and one lower-triangular factor of
its row covariance.  A posterior read from a ledger carries the lower
Cholesky factor P of the row precision S + gamma*I, the ledger's own
factor, which the head solve already needs.  One read from Variant B's
tracked state T = (S + gamma*I)^-1 carries instead the lower covariance
factor C = P^-1, from a reverse Cholesky of T: with J the exchange matrix
(ones on the anti-diagonal) and L Lᵀ = J T J,

    T = U Uᵀ,  U = J L J upper triangular,  so  T = Cᵀ C  with  C = Uᵀ,

and C is lower triangular; the row covariance Cᵀ C needs no inverse.  The
KL between two such posteriors with identity column covariance reduces to
c Gaussian columns sharing one row covariance; with precision factors P_p,
P_q and mix = P_p^-1 P_q (lower triangular),

    KL(p || q) = c/2 * ( ||mix||_F^2 - d - 2 sum_i ln mix_ii )
                 + 1/2 * || P_qᵀ (M_q - M_p) ||_F^2

where mix is a triangular solve when p carries P and the product C_p P_q,
of two lower-triangular matrices, when p carries C.  The trace/log-det
part is summed as sum_i (x_i^2 - 1 - 2 ln x_i) with x = diag(mix), plus
the squares of mix's strict lower triangle, so every summand is
non-negative up to rounding.  The reduction is cross-checked in the test
suite against a dense vectorized-Gaussian KL at small dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inverse import InverseState
from .kernels import (
    DimensionMismatch,
    NotSPD,
    cholesky_spd,
    inverse_from_factor,
    triangular_solve_lower,
    upper_mask,
)
from .stats import Ledger


@dataclass(frozen=True)
class MatrixNormalPosterior:
    """Mean M and exactly one lower-triangular row factor, P or C = P^-1."""

    M: np.ndarray
    P: np.ndarray | None = None  # lower Cholesky factor of the row precision Sigma^-1
    C: np.ndarray | None = None  # lower factor of the row covariance, Sigma = CᵀC

    def __post_init__(self):
        if (self.P is None) == (self.C is None):
            raise ValueError("a posterior carries exactly one of P and C")

    @property
    def Sigma(self) -> np.ndarray:
        """Row covariance, CᵀC or (P Pᵀ)^-1, formed on demand."""
        if self.C is not None:
            return self.C.T @ self.C
        return inverse_from_factor(self.P)

    @property
    def d(self) -> int:
        return (self.P if self.C is None else self.C).shape[0]

    @property
    def c(self) -> int:
        return self.M.shape[1]


def posterior_from_ledger(ledger: Ledger) -> MatrixNormalPosterior:
    """Posterior from the ledger's own read-only factor of S + gamma*I; M is `ledger.head`."""
    return MatrixNormalPosterior(ledger.head, P=ledger.factor)


def posterior_from_state(state: InverseState) -> MatrixNormalPosterior:
    """The served posterior N(W, T) of a tracked state.

    C = Uᵀ, in float64, from the reverse Cholesky T = U Uᵀ.  Raises NotSPD
    when T is not finite or not positive definite.
    """
    t = np.asarray(state.T, dtype=np.float64)
    try:
        u = cholesky_spd(t[::-1, ::-1])[::-1, ::-1]
    except ValueError as exc:  # cholesky_spd's one finiteness pass refused T
        raise NotSPD(str(exc)) from exc
    return MatrixNormalPosterior(state.W, C=u.T)


def kl_matrix_normal(p: MatrixNormalPosterior, q: MatrixNormalPosterior) -> float:
    """KL(p || q) between matrix-normal posteriors with identity column cov.

    q must carry its precision factor P; p may carry either factor.  The
    strict lower triangle of mix is taken through `upper_mask(d)`, the
    mask cached per d, so a call builds no mask of its own.
    """
    if q.P is None:
        raise ValueError("kl_matrix_normal needs q's precision factor P")
    if p.d != q.d or p.M.shape != q.M.shape:
        raise DimensionMismatch("posterior dimensions differ")
    p_q = q.P.astype(np.float64, copy=False)
    if p.C is not None:
        mix = p.C.astype(np.float64, copy=False) @ p_q
    else:
        mix = triangular_solve_lower(p.P.astype(np.float64, copy=False), p_q)
    x = np.diagonal(mix)
    # mix's strict lower triangle with +0.0 elsewhere, as np.tril(mix, -1), from the cached mask of its complement
    off = np.where(upper_mask(mix.shape[0]), 0.0, mix)
    trace_logdet = float(np.sum(x * x - 1.0 - 2.0 * np.log(x)) + np.sum(off * off))
    white = p_q.T @ (q.M - p.M).astype(np.float64)
    quad = float(np.sum(white * white))
    return 0.5 * (p.c * trace_logdet + quad)
