"""The server: aggregation, ledger update, head recovery and certificate.

A `Server` owns one variant's ledger and tracked state, and serves each
round by one of three drivers, which recover the head by:

* full recompute -- apply the ledger update and re-solve the SPD system
  from scratch (robust baseline);
* incremental inverse -- advance a tracked inverse by SMW updates built
  from the round's folded client R-factors when the round folds at most
  rebuild_rows(d) of them, and otherwise rebuild it exactly from the
  ledger, which is then the cheaper path; a short round also falls back to
  the rebuild whenever a downdate is infeasible, a step's capacitance could
  amplify rounding past CONDITION_THRESHOLD, or the drift audit run every
  AUDIT_EVERY rounds reads above DRIFT_THRESHOLD;
* truncated adds -- Variant B's messages and SMW step, with each add
  round's Gram change cut to its top-r eigenpairs.  Each cut drops a PSD
  part, so the dropped mass E = S - S_ap is PSD, T = (S + γI)⁻¹ ≼ T_ap and
  T_ap - T = T_ap E T.  The state carries Σ, the largest dropped eigenvalue
  summed over the truncated steps since the last rebuild.  With
  t = min(1/γ, ||T_ap||_∞) >= ||T_ap||₂, each such round reports the bound
  ||T_ap - T||₂ <= min(t, t² Σ): t² Σ from T_ap - T = T_ap E T, and t
  because 0 ≼ T_ap - T ≼ T_ap.  It holds across steps and never exceeds
  1/γ.  Delete rounds and every `reset_every`-th ledger round rebuild the
  state exactly from the ledger, which advances in parallel, and reset Σ
  to 0.

Aggregation is a running fold (`RoundFold`): each client message is
folded into the round's aggregate as it arrives, in strictly ascending
client id, so repeated runs are bitwise reproducible at fixed precision
and the server holds O(d²) per round instead of every client's payload.
Variant A's messages are `PackedStats`, whose packed upper triangles are
summed in place and unpacked once, when the round closes.  Variant B's
R-factors are held as they arrive while the round is short, and summed as
Grams RᵀR once it is tall, so the server never factors anything while it
aggregates.  Either way the round's `RoundAggregate` carries its adds and
its deletes as one dense `SufficientStats` each, which is what
`ledger_apply` takes, and `Server.serve` reports every round as a
`RoundReport`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .client import ClientMessage, VARIANT_FULL, VARIANT_QR
from .inverse import DowndateInfeasible, InverseState, audit_drift, init_from_ledger, smw_step
from .kernels import DimensionMismatch, NotSPD, symmetric_eig, unpack_symmetric
from .posterior import MatrixNormalPosterior, posterior_from_ledger, posterior_from_state
from .stats import Ledger, SufficientStats, dtype_of, ledger_apply, ledger_init

# Variant B's fixed reset policy: the drift audit's period and threshold,
# the gate on each SMW step's amplification, and the share of d above which
# a round's folded factor rows are served by a rebuild instead of SMW steps.
AUDIT_EVERY = 32
DRIFT_THRESHOLD = 1e-6
CONDITION_THRESHOLD = 1e8
REBUILD_FRACTION = 0.5


def rebuild_rows(d: int) -> int:
    """The most R-factor rows, add and delete together, that a B round serves by SMW steps.

    An SMW step of rank r costs O(r d²) and a rebuild from the ledger
    O(d³).  With one OpenBLAS thread, a round split evenly between an add
    and a delete step cost as much as a rebuild at about 0.6d to 0.75d
    rows for d from 64 to 1024 (d=256: 5.6 ms at 192 rows against a 6.2 ms
    rebuild; d=1024: 114 ms at 512 rows against 160 ms), so a round of more
    than d/2 rows is rebuilt, which is also exact.
    """
    return int(REBUILD_FRACTION * d)


class MixedRound(Exception):
    """Messages from different rounds were aggregated together."""


class MixedVariant(Exception):
    """Messages of different variants were aggregated together."""


class OutOfOrder(Exception):
    """A message's client id is not above the last one folded into its round."""


@dataclass(frozen=True)
class RoundAggregate:
    """One round's summed adds and deletes; a short B round also keeps its stacked factors."""

    round: int
    variant: str
    add: SufficientStats
    delete: SufficientStats
    U_plus: np.ndarray | None = None
    U_minus: np.ndarray | None = None


@dataclass(frozen=True)
class RoundReport:
    """How a round was served.

    `reset` is set when the state was rebuilt exactly from the ledger;
    `lambda_max` is Variant B's delete-step eigenvalue and `bound` approx
    mode's inverse-error bound, each None where it does not apply.
    """

    reset: bool
    lambda_max: float | None = None
    bound: float | None = None


@dataclass(frozen=True)
class CommRecord:
    total_scalars: int
    total_bytes: int


class RoundFold:
    """One round's running aggregate, folded one client message at a time.

    Messages must arrive in strictly ascending client id; one that does not
    raises OutOfOrder, and nothing is re-sorted.  Variant A's packed Grams
    and every G and n are summed in place as each message arrives (a side's
    first copied, the rest added with `+=`), so the fold holds one set of
    sums however many clients report and keeps no message.  A side of no
    samples holds only zeros and is skipped.  Each entry of A's triangle
    gets the same additions in the same client order as in dense d x d
    sums, at half the bytes, and `close` unpacks each side's triangle once;
    a side that no sample reached is zeros.  Variant B's R-factors are held
    as blocks per side (add, delete) while the round's rows, both sides
    together, are at most `rebuild_rows(d)`; `close` then
    stacks each side into the factor U and forms the Gram change as UᵀU.
    The message that takes the round over that limit turns the fold into
    Grams: each side becomes the sum of its blocks' RᵀR, in client order,
    later messages add theirs, and `close` returns no U, since such a
    round is served by a rebuild.  So no side ever holds more than
    `rebuild_rows(d)` rows and the server runs no QR.  `scalars` counts
    what the folded messages carried on the uplink.
    """

    def __init__(self):
        self.round: int | None = None
        self.variant: str | None = None
        self.client_id: int | None = None  # the last client folded
        self.scalars = 0
        self.n_plus = 0
        self.n_minus = 0
        self._dims: tuple[int, int] | None = None
        self._dtype: np.dtype | None = None
        self._sums: list[list | None] = [None, None]  # add then delete: [packed S, G] for A, [G] for B
        self._blocks: tuple[list, list] | None = ([], [])  # a short B round's R-factors, add then delete
        self._rows = 0  # R-factor rows folded, both sides
        self._grams: list[np.ndarray] = []  # a tall B round's S+, S-

    def add(self, msg: ClientMessage) -> None:
        """Fold one message into the round."""
        if self.client_id is None:
            self.round, self.variant = msg.round, msg.variant
            self._dims, self._dtype = (msg.add.d, msg.add.c), msg.add.G.dtype
        elif msg.client_id <= self.client_id:
            raise OutOfOrder(f"client {msg.client_id} arrived after client {self.client_id}")
        elif msg.round != self.round:
            raise MixedRound(f"messages span rounds {self.round} and {msg.round}")
        elif msg.variant != self.variant:
            raise MixedVariant(f"messages span variants {self.variant} and {msg.variant}")
        for payload in (msg.add, msg.delete):
            dims = (payload.d, payload.c)
            if dims != self._dims:
                d, c = self._dims
                raise DimensionMismatch(f"message dims {dims[0]}x{dims[1]} do not match {d}x{c}")
        if self.variant == VARIANT_QR:
            self._fold_factors(msg.add.R, msg.delete.R)
        for side, payload in enumerate((msg.add, msg.delete)):
            if not payload.n:
                continue
            parts = (payload.G,) if self.variant == VARIANT_QR else (payload.S, payload.G)
            if self._sums[side] is None:
                self._sums[side] = [part.copy() for part in parts]
            else:
                for total, part in zip(self._sums[side], parts):
                    total += part
        self.n_plus += msg.add.n
        self.n_minus += msg.delete.n
        self.scalars += msg.scalar_count
        self.client_id = msg.client_id

    def _fold_factors(self, r_add: np.ndarray, r_del: np.ndarray) -> None:
        d = self._dims[0]
        self._rows += r_add.shape[0] + r_del.shape[0]
        sides = ([r_add], [r_del])
        if self._blocks is not None:
            for held, r in zip(self._blocks, (r_add, r_del)):
                held.append(r)
            if self._rows <= rebuild_rows(d):
                return
            # the round is now tall: Grams replace the held factors
            sides, self._blocks = self._blocks, None
            self._grams = [np.zeros((d, d), dtype=r_add.dtype) for _ in sides]
        for gram, held in zip(self._grams, sides):
            for r in held:
                if r.shape[0]:
                    gram += r.T @ r

    def comm(self, precision: str) -> CommRecord:
        """Uplink cost of the folded messages, counted as `account_round` does."""
        return _comm_record(self.scalars, precision)

    def close(self) -> RoundAggregate:
        """The round's aggregate; call once, after the round's last message."""
        if self._dims is None:
            raise ValueError("cannot aggregate an empty message list")
        d, c = self._dims
        # a side that no sample reached sums to zeros; G is the last of each side's sums
        g_add, g_del = (np.zeros((d, c), self._dtype) if sums is None else sums[-1] for sums in self._sums)
        u_plus = u_minus = None
        if self.variant != VARIANT_QR:
            s_add, s_del = (
                np.zeros((d, d), self._dtype) if sums is None else unpack_symmetric(sums[0], d) for sums in self._sums
            )
        elif self._blocks is None:
            s_add, s_del = self._grams
        else:
            u_plus, u_minus = (np.vstack(held) for held in self._blocks)
            s_add = u_plus.T @ u_plus
            s_del = u_minus.T @ u_minus
        return RoundAggregate(
            round=self.round,
            variant=self.variant,
            add=SufficientStats(s_add, g_add, self.n_plus),
            delete=SufficientStats(s_del, g_del, self.n_minus),
            U_plus=u_plus,
            U_minus=u_minus,
        )


def aggregate(messages: list[ClientMessage], running: RoundFold | None = None) -> RoundFold | RoundAggregate:
    """Fold client messages into the server's aggregate for one round.

    With `running`, the messages are folded into it in the order given and
    the same, still open fold is returned; `Server.serve` passes each
    message this way as it arrives and closes the fold after the last.
    Without, `messages` is the whole round: it is folded in ascending
    client id and the closed RoundAggregate is returned.  Both ways fold
    the same messages in the same order (see RoundFold), so their
    aggregates are bitwise equal.
    """
    if running is not None:
        for m in messages:
            running.add(m)
        return running
    fold = RoundFold()
    for m in sorted(messages, key=lambda m: m.client_id):
        fold.add(m)
    return fold.close()


def run_round_a(ledger: Ledger, agg: RoundAggregate) -> tuple[Ledger, np.ndarray]:
    """Exact recompute: ledger update followed by one SPD solve."""
    new_ledger = ledger_apply(ledger, agg.add, agg.delete)
    return new_ledger, new_ledger.head


def run_round_b(
    ledger: Ledger, state: InverseState, agg: RoundAggregate
) -> tuple[Ledger, InverseState, np.ndarray, RoundReport]:
    """Incremental round: SMW add step, then SMW delete step, or a rebuild.

    The ledger is advanced first and stays authoritative.  A tall round,
    one whose aggregate carries no U because it folded more than
    `rebuild_rows(d)` factor rows, rebuilds the state from the ledger, the
    cheaper path and an exact one; it reports a reset and no λ_max.  In a
    short round an infeasible downdate, a step whose capacitance's
    amplification exceeds CONDITION_THRESHOLD, or a drift audit above
    DRIFT_THRESHOLD rebuilds the state the same way, which is exactly the
    full-recompute fallback.  `agg` must come from Variant B's R-factor
    messages: a full-statistics aggregate raises ValueError.
    """
    if agg.variant != VARIANT_QR:
        raise ValueError(f"run_round_b needs an R-factor aggregate, got variant {agg.variant!r}")
    new_ledger = ledger_apply(ledger, agg.add, agg.delete)
    if agg.U_plus is None:
        new_state = init_from_ledger(new_ledger)
        return new_ledger, new_state, new_state.W, RoundReport(reset=True)
    lam = None
    try:
        step = smw_step(state, agg.U_plus, agg.add.G)
        if step.amplification <= CONDITION_THRESHOLD and (agg.U_minus.shape[0] or np.any(agg.delete.G)):
            step = smw_step(step.state, agg.U_minus, agg.delete.G, delete=True)
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
    return new_ledger, new_state, new_state.W, RoundReport(reset=reset, lambda_max=lam)


def run_round_approx(
    ledger: Ledger, state: InverseState, agg: RoundAggregate, rank: int, reset_every: int
) -> tuple[Ledger, InverseState, np.ndarray, RoundReport]:
    """Advance one round folding in only a rank-`rank` Gram update.

    The ledger is advanced first and stays exact.  A round with deletions,
    or one that takes the ledger to a multiple of `reset_every` rounds, is
    served exactly by a rebuild from the ledger and reports a reset and no
    bound.  Any other round folds U_r = sqrt(λ_r) V_rᵀ of the top `rank`
    eigenpairs of its Gram change into the state by one SMW add, adds the
    largest dropped eigenvalue to the state's Σ (`neglected_mass`), and
    reports the bound min(t, t² Σ) on ||T_ap - (S + γI)⁻¹||₂, with
    t = min(1/γ, ||T_ap||_∞); the module docstring derives both terms.
    """
    new_ledger = ledger_apply(ledger, agg.add, agg.delete)
    deletes = agg.delete.n > 0 or np.any(agg.delete.S) or np.any(agg.delete.G)
    if deletes or (reset_every and new_ledger.t % reset_every == 0):
        new_state = init_from_ledger(new_ledger)
        return new_ledger, new_state, new_state.W, RoundReport(reset=True)
    vals, vecs = symmetric_eig(agg.add.S.astype(new_ledger.dtype))
    kept = min(rank, agg.add.d)
    u_r = np.sqrt(np.maximum(vals[:kept], 0))[:, None] * vecs[:, :kept].T
    step = smw_step(state, u_r, agg.add.G)
    dropped = vals[kept:]
    neglected = state.neglected_mass + (float(np.abs(dropped).max()) if dropped.size else 0.0)
    new_state = replace(step.state, neglected_mass=neglected)
    # ||T_ap||₂ is at most any induced norm of the symmetric T_ap, and at most 1/γ as S_ap ⪰ 0
    t_norm = min(1.0 / new_ledger.gamma, float(np.abs(new_state.T).sum(axis=1).max()))
    # np.minimum, unlike min(), carries a NaN Σ through to the report
    bound = float(np.minimum(t_norm, t_norm**2 * neglected))
    return new_ledger, new_state, new_state.W, RoundReport(reset=False, bound=bound)


def _comm_record(scalars: int, precision: str) -> CommRecord:
    return CommRecord(total_scalars=scalars, total_bytes=scalars * dtype_of(precision).itemsize)


def account_round(messages: list[ClientMessage], precision: str) -> CommRecord:
    """Exact per-round communication accounting in scalars and bytes."""
    return _comm_record(sum(m.scalar_count for m in messages), precision)


class Server:
    """One variant's server: it owns the ledger, the tracked state (None for A) and the certificate.

    `variant` is "A", "B" or "approx"; approx truncates its adds to `rank`
    eigenpairs and rebuilds every `reset_every`-th ledger round.
    `wire_variant` is what the server's clients send: full statistics for
    A, R-factors for B and approx.
    """

    def __init__(self, variant: str, d: int, c: int, gamma: float, precision="f64", rank=8, reset_every=16):
        if variant not in ("A", "B", "approx"):
            raise ValueError(f"unknown server variant {variant!r}, expected A, B or approx")
        for name, value, least in (("rank", rank, 1), ("reset_every", reset_every, 0)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        self.variant, self.rank, self.reset_every = variant, rank, reset_every
        self.wire_variant = VARIANT_FULL if variant == "A" else VARIANT_QR
        self.ledger = ledger_init(d, c, gamma, precision)
        self.state = None if variant == "A" else init_from_ledger(self.ledger)

    @property
    def head(self) -> np.ndarray:
        """The served head: A's ledger head, B's and approx's tracked W."""
        return self.ledger.head if self.state is None else self.state.W

    def serve(self, messages: Iterable[ClientMessage]) -> tuple[np.ndarray, RoundReport, CommRecord]:
        """Fold each message by `aggregate([msg], fold)` as it arrives, then run the variant's driver.

        Returns the served head, the round's report and the uplink of its messages.
        """
        fold = RoundFold()
        for msg in messages:
            aggregate([msg], fold)
        agg = fold.close()
        if self.variant == "A":
            self.ledger, w = run_round_a(self.ledger, agg)
            report = RoundReport(reset=False)
        elif self.variant == "B":
            self.ledger, self.state, w, report = run_round_b(self.ledger, self.state, agg)
        else:
            self.ledger, self.state, w, report = run_round_approx(self.ledger, self.state, agg, self.rank, self.reset_every)
        return w, report, fold.comm(self.ledger.precision)

    def posterior(self, sigma2: float = 1.0) -> MatrixNormalPosterior:
        """Certify what is served: B's tracked state (NotSPD if T is not SPD), A's and approx's ledger."""
        if self.variant == "B":
            return posterior_from_state(self.state, sigma2)
        return posterior_from_ledger(self.ledger, sigma2)
