"""Server-side round loop: aggregation, ledger update, head recovery.

Three ways to recover the head after a round's aggregate lands:

* full recompute -- apply the ledger update and re-solve the SPD system
  from scratch (robust baseline);
* incremental inverse -- advance a tracked inverse by SMW updates built
  from stacked client R-factors, falling back to an exact rebuild from
  the ledger whenever a downdate is infeasible, a step's capacitance could
  amplify rounding past CONDITION_THRESHOLD, or the drift audit run every
  AUDIT_EVERY rounds reads above DRIFT_THRESHOLD;
* truncated adds -- Variant B's messages and SMW step, with each add
  round's Gram change cut to its top-r eigenpairs and a perturbation bound
  carried; delete rounds and every `reset_every`-th round rebuild the state
  exactly from the ledger, which advances in parallel.

Aggregation always sums client payloads in a fixed order (ascending
client id) so repeated runs are bitwise reproducible at fixed precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .client import ClientMessage, QrPayload, StatsPayload, VARIANT_QR
from .inverse import DowndateInfeasible, InverseState, audit_drift, init_from_ledger, smw_step
from .kernels import DimensionMismatch, NotSPD, spectral_norm, symmetric_eig, thin_qr_rfactor
from .stats import Ledger, SufficientStats, dtype_of, ledger_apply

# Variant B's fixed reset policy: the drift audit's period and threshold,
# and the gate on each SMW step's amplification.
AUDIT_EVERY = 32
DRIFT_THRESHOLD = 1e-6
CONDITION_THRESHOLD = 1e8


class MixedRound(Exception):
    """Messages from different rounds were aggregated together."""


class MixedVariant(Exception):
    """Messages of different variants were aggregated together."""


@dataclass(frozen=True)
class RoundAggregate:
    round: int
    variant: str
    d: int
    c: int
    S_plus: np.ndarray
    G_plus: np.ndarray
    S_minus: np.ndarray
    G_minus: np.ndarray
    n_plus: int
    n_minus: int
    U_plus: np.ndarray | None = None
    U_minus: np.ndarray | None = None


@dataclass(frozen=True)
class BRoundInfo:
    reset: bool
    lambda_max: float | None


@dataclass(frozen=True)
class ApproxReport:
    rank_used: int
    neglected_mass: float
    t_ap_norm: float
    contraction: float
    inverse_bound: float
    head_bound: float
    assumption_ok: bool


@dataclass(frozen=True)
class CommRecord:
    total_scalars: int
    total_bytes: int


def _payload_dims(payload) -> tuple[int, int]:
    if isinstance(payload, StatsPayload):
        return payload.S.shape[0], payload.G.shape[1]
    if isinstance(payload, QrPayload):
        return payload.R.shape[1], payload.G.shape[1]
    raise TypeError(f"unsupported payload type {type(payload).__name__}")


def _summed(arrays) -> np.ndarray:
    arrays = iter(arrays)
    total = next(arrays).copy()
    for a in arrays:
        total += a
    return total


def aggregate(messages: list[ClientMessage]) -> RoundAggregate:
    """Sum client messages for one round into the server's aggregate.

    G and n are summed message by message in ascending client id.  Variant
    A sums the clients' Grams the same way; Variant B stacks the R-factors
    row-wise into U and takes the Gram change as UᵀU, one symmetric product
    per side, so that UᵀU equals the aggregated Gram change by construction.
    """
    if not messages:
        raise ValueError("cannot aggregate an empty message list")
    messages = sorted(messages, key=lambda m: m.client_id)
    head = messages[0]
    rounds = {m.round for m in messages}
    if len(rounds) != 1:
        raise MixedRound(f"messages span rounds {sorted(rounds)}")
    variants = {m.variant for m in messages}
    if len(variants) != 1:
        raise MixedVariant(f"messages span variants {sorted(variants)}")
    d, c = _payload_dims(head.add)
    for m in messages:
        for payload in (m.add, m.delete):
            dims = _payload_dims(payload)
            if dims != (d, c):
                raise DimensionMismatch(f"message dims {dims[0]}x{dims[1]} do not match {d}x{c}")
    u_plus = u_minus = None
    if head.variant == VARIANT_QR:
        u_plus = np.vstack([m.add.R for m in messages])
        u_minus = np.vstack([m.delete.R for m in messages])
        s_add = u_plus.T @ u_plus
        s_del = u_minus.T @ u_minus
    else:
        s_add = _summed(m.add.S for m in messages)
        s_del = _summed(m.delete.S for m in messages)
    return RoundAggregate(
        round=head.round,
        variant=head.variant,
        d=d,
        c=c,
        S_plus=s_add,
        G_plus=_summed(m.add.G for m in messages),
        S_minus=s_del,
        G_minus=_summed(m.delete.G for m in messages),
        n_plus=sum(m.add.n for m in messages),
        n_minus=sum(m.delete.n for m in messages),
        U_plus=u_plus,
        U_minus=u_minus,
    )


def _agg_stats(agg: RoundAggregate) -> tuple[SufficientStats, SufficientStats]:
    return (
        SufficientStats(agg.S_plus, agg.G_plus, agg.n_plus),
        SufficientStats(agg.S_minus, agg.G_minus, agg.n_minus),
    )


def run_round_a(ledger: Ledger, agg: RoundAggregate) -> tuple[Ledger, np.ndarray]:
    """Exact recompute: ledger update followed by one SPD solve."""
    add, delete = _agg_stats(agg)
    new_ledger = ledger_apply(ledger, add, delete)
    return new_ledger, new_ledger.head


def _compact_factor(u: np.ndarray) -> np.ndarray:
    # Re-factor tall stacks so the capacitance system never exceeds d x d;
    # UᵀU is preserved up to roundoff.
    if u.shape[0] > u.shape[1] and u.shape[1] > 0:
        return thin_qr_rfactor(u)
    return u


def run_round_b(
    ledger: Ledger, state: InverseState, agg: RoundAggregate
) -> tuple[Ledger, InverseState, np.ndarray, BRoundInfo]:
    """Incremental round: SMW add step, then SMW delete step.

    The ledger is advanced first and stays authoritative; an infeasible
    downdate, a step whose capacitance's amplification exceeds
    CONDITION_THRESHOLD, or a drift audit above DRIFT_THRESHOLD rebuilds
    the state from it, which is exactly the full-recompute fallback.
    `agg` must come from Variant B's R-factor messages: the SMW steps need
    the stacked factors U, which a full-statistics aggregate lacks.
    """
    if agg.U_plus is None or agg.U_minus is None:
        raise ValueError(f"run_round_b needs an R-factor aggregate, got variant {agg.variant!r}")
    add, delete = _agg_stats(agg)
    new_ledger = ledger_apply(ledger, add, delete)
    u_plus = _compact_factor(agg.U_plus)
    u_minus = _compact_factor(agg.U_minus)
    lam = None
    try:
        step = smw_step(state, u_plus, agg.G_plus)
        if step.amplification <= CONDITION_THRESHOLD and (u_minus.shape[0] or np.any(agg.G_minus)):
            step = smw_step(step.state, u_minus, agg.G_minus, delete=True)
            lam = step.lambda_max
        new_state = step.state
        # a step that can magnify rounding past the threshold leaves T inexact
        reset = step.amplification > CONDITION_THRESHOLD
    except (DowndateInfeasible, NotSPD):
        reset = True
    if not reset and new_ledger.t % AUDIT_EVERY == 0:
        reset = audit_drift(new_state, new_ledger) > DRIFT_THRESHOLD
    if reset:
        new_state = init_from_ledger(new_ledger)
    return new_ledger, new_state, new_state.W, BRoundInfo(reset=reset, lambda_max=lam)


def run_round_approx(
    ledger: Ledger, state: InverseState, agg: RoundAggregate, rank: int, reset_every: int
) -> tuple[Ledger, InverseState, np.ndarray, ApproxReport | None]:
    """Advance one round folding in only a rank-`rank` Gram update.

    The ledger is advanced first and stays exact.  A round with deletions,
    or the round that would be the `reset_every`-th truncated step since
    the last reset, rebuilds the state from the ledger and is served
    exactly; its report is None.  Any other round folds
    U_r = sqrt(λ_r) V_rᵀ of the top `rank` eigenpairs of its Gram change
    into the state by one SMW add, and reports the bound on the inverse
    error that the dropped eigenvalues induce.  When the bound's
    contraction assumption fails the report is flagged, with infinite
    bounds.
    """
    add, delete = _agg_stats(agg)
    new_ledger = ledger_apply(ledger, add, delete)
    deletes = agg.n_minus > 0 or np.any(agg.S_minus) or np.any(agg.G_minus)
    if deletes or (reset_every and state.updates_since_reset + 1 >= reset_every):
        new_state = init_from_ledger(new_ledger)
        return new_ledger, new_state, new_state.W, None
    vals, vecs = symmetric_eig(agg.S_plus.astype(new_ledger.dtype))
    kept = min(rank, agg.d)
    u_r = np.sqrt(np.maximum(vals[:kept], 0))[:, None] * vecs[:, :kept].T
    step = smw_step(state, u_r, agg.G_plus)
    # a round with nothing to add leaves T as is but still counts toward the reset
    new_state = replace(step.state, updates_since_reset=state.updates_since_reset + 1)
    dropped = vals[kept:]
    neglected = float(np.abs(dropped).max()) if dropped.size else 0.0
    t_ap_norm = spectral_norm(new_state.T)
    # ||T E|| with E = V_d diag(λ_d) V_dᵀ is ||T V_d diag(λ_d)||: V_d has orthonormal columns
    contraction = spectral_norm((new_state.T @ vecs[:, kept:]) * dropped)
    assumption_ok = contraction < 1.0
    if neglected == 0.0:
        inverse_bound = head_bound = 0.0
    elif assumption_ok:
        inverse_bound = t_ap_norm**2 * neglected / (1.0 - contraction)
        head_bound = inverse_bound * spectral_norm(new_ledger.stats.G)
    else:
        inverse_bound = head_bound = math.inf
    report = ApproxReport(
        rank_used=kept,
        neglected_mass=neglected,
        t_ap_norm=t_ap_norm,
        contraction=contraction,
        inverse_bound=inverse_bound,
        head_bound=head_bound,
        assumption_ok=assumption_ok,
    )
    return new_ledger, new_state, new_state.W, report


def account_round(messages: list[ClientMessage], precision: str) -> CommRecord:
    """Exact per-round communication accounting in scalars and bytes."""
    total = sum(m.scalar_count for m in messages)
    return CommRecord(total_scalars=total, total_bytes=total * dtype_of(precision).itemsize)
