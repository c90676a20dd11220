"""Incremental inverse tracking via rank-k Sherman-Morrison-Woodbury updates.

The state is T = (S + gamma*I)^-1 and the head W; gamma and the round count stay in the ledger.
A round's Gram change arrives factored as ΔS = UᵀU with U of shape r x d,
so each update factors only an r x r capacitance C = I ± U T Uᵀ:

    L = chol(C),  Z = L⁻¹(U T)
    add:     T+ = T - ZᵀZ,   W+ = W + T+ (G_add - Uᵀ(U W))
    delete:  T- = T + ZᵀZ,   W- = W - T- (G_del - Uᵀ(U W))

ZᵀZ = T Uᵀ C⁻¹ U T is one symmetric product, so the new T is bitwise
symmetric without re-symmetrizing, and the step costs one r x r Cholesky
and one triangular solve with d right-hand sides on top of its O(r d²)
products.  `smw_step` takes three answers from the one factor L: the
update itself; feasibility, since a delete is feasible exactly when
I - U T Uᵀ stays SPD and the Cholesky factorization failing is the
DowndateInfeasible signal; and the amplification max(λ_max(C), 1/λ_min(C)),
which bounds how much the step can magnify rounding in T and is what
Variant B's reset gate compares against its fixed condition threshold.
U is taken as given: an all-zero row, such as approx mode's factor at a
non-positive eigenvalue, adds only a unit row and column to C and leaves
T and W as without it, to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import stats as stats_mod
from .kernels import (
    DimensionMismatch,
    NotSPD,
    as_matrix,
    cholesky_spd,
    frobenius_norm,
    inverse_from_factor,
    triangular_solve_lower,
)


class DowndateInfeasible(Exception):
    """The capacitance matrix I - U T Uᵀ of a delete step is not SPD."""


@dataclass(frozen=True)
class InverseState:
    """The tracked inverse T and head W, and what they left out.

    `neglected_mass` is Σ: approx mode's dropped eigenvalue mass, summed
    over its truncated steps since the last rebuild (0 for an exact state).
    """

    T: np.ndarray
    W: np.ndarray
    neglected_mass: float = 0.0


@dataclass(frozen=True)
class SmwStep:
    """The state after one SMW step, with what its capacitance C said.

    `amplification` is max(λ_max(C), 1/λ_min(C)) estimated from the
    diagonal of C's Cholesky factor (exact for r = 1, a lower bound
    otherwise).  `lambda_max` is λ_max(U T Uᵀ) of a delete step, how close
    it came to the infeasible value 1; it is None for adds.
    """

    state: InverseState
    amplification: float
    lambda_max: float | None


def init_from_ledger(ledger: stats_mod.Ledger) -> InverseState:
    """Exact state rebuild: T = (S + gamma*I)^-1 and W = the ledger's head.

    T = inv(L)ᵀ inv(L) from the ledger's cached Cholesky factor L, which the
    head and the posterior share, so a rebuild factors nothing anew.  W is
    `ledger.head` itself, read-only; SMW steps replace it, never write it.
    The rebuilt state is exact, so its `neglected_mass` is 0.
    """
    return InverseState(inverse_from_factor(ledger.factor), ledger.head)


def smw_step(state: InverseState, u, g, delete: bool = False) -> SmwStep:
    """Fold ΔS = UᵀU and the label moment G into the state, or remove them.

    Raises DowndateInfeasible when a delete's capacitance is not SPD, and
    NotSPD when an add's is not, which finite U and SPD T rule out, so the
    state is corrupted.  The step returns a new T and W, never writing the
    input state's: the new T is written over the step's own ZᵀZ, its one
    d x d allocation.  It carries `neglected_mass` unchanged.
    """
    d = state.T.shape[0]
    u = as_matrix(u, "U")
    if u.shape[1] != d:
        raise DimensionMismatch(f"U has {u.shape[1]} columns, expected {d}")
    g = np.asarray(g, dtype=state.T.dtype)
    r = u.shape[0]
    if r == 0 and not np.any(g):
        return SmwStep(state, 1.0, 0.0 if delete else None)
    sign = -1.0 if delete else 1.0
    ut = u @ state.T
    # symmetric up to rounding; eigvalsh and the Cholesky read its lower triangle only
    m = ut @ u.T
    lam = None
    if delete:
        lam = float(np.linalg.eigvalsh(m.astype(np.float64))[-1]) if r else 0.0
    try:
        factor = cholesky_spd(np.eye(r, dtype=m.dtype) + sign * m)
    except NotSPD as exc:
        if delete:
            raise DowndateInfeasible(str(exc)) from exc
        raise NotSPD(f"add capacitance lost positive definiteness: {exc}") from exc
    pivots = np.diagonal(factor).astype(np.float64) ** 2
    amplification = float(max(pivots.max(), 1.0 / pivots.min())) if r else 1.0
    z = triangular_solve_lower(factor, ut)
    zz = z.T @ z
    # T ∓ ZᵀZ over ZᵀZ's own buffer: the input state's T is never written
    t_new = (np.add if delete else np.subtract)(state.T, zz, out=zz)
    w_new = state.W + sign * (t_new @ (g - u.T @ (u @ state.W)))
    return SmwStep(replace(state, T=t_new, W=w_new), amplification, lam)


def audit_drift(state: InverseState, ledger: stats_mod.Ledger) -> float:
    """Drift of the tracked inverse against the authoritative ledger.

    Returns ||T (S + gamma*I) - I||_F / sqrt(d) as a Python float; Variant
    B's periodic audit compares it to its fixed drift threshold.
    """
    h = stats_mod.regularized_gram(ledger)
    d = h.shape[0]
    resid = state.T.astype(np.float64) @ h.astype(np.float64) - np.eye(d)
    return frobenius_norm(resid) / math.sqrt(d)
