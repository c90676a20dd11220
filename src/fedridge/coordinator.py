"""The server: aggregation, ledger update, head recovery and certificate.

A `Server` owns one variant's ledger and tracked state, and serves each
round by one of three drivers, which recover the head by:

* full recompute -- apply the ledger update and re-solve the SPD system
  from scratch (`run_round_a`, the robust baseline);
* incremental inverse -- advance a tracked inverse by SMW steps built from
  the round's folded client R-factors and Z blocks, or rebuild it exactly
  from the ledger when the round is tall or a step is unsafe
  (`run_round_b`);
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
  to 0 (`run_round_approx`).

Aggregation is a running fold (`RoundFold`) of each client message as it
arrives, in strictly ascending client id, so repeated runs are bitwise
reproducible at fixed precision and the server holds O(d²) per round
instead of every client's payload.  `Server.serve` folds each round
against its own variant, width and precision, and returns the head with
its `RoundReport` and `CommRecord`, which the harness keeps in the
round's metrics row: every `RoundReport` field is a `metrics.csv` column.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .client import ClientMessage, MixedPrecision, MixedVariant, VARIANT_FULL, VARIANT_QR
from .inverse import DowndateInfeasible, InverseState, audit_drift, init_from_ledger, smw_step
from .kernels import DimensionMismatch, NotSPD, symmetric_eig, unpack_symmetric, upper_mask
from .posterior import MatrixNormalPosterior, posterior_from_ledger, posterior_from_state
from .stats import Ledger, SufficientStats, dtype_of, is_int, ledger_apply, ledger_init

# Variant B's fixed reset policy: the drift audit's period and threshold,
# the gate on each SMW step's amplification, and the share of d above which
# a round's folded factor rows are served by a rebuild instead of SMW steps.
AUDIT_EVERY = 32
DRIFT_THRESHOLD = 1e-6
CONDITION_THRESHOLD = 1e8
REBUILD_FRACTION = 0.5

# approx mode's settings when none are given: eigenpairs kept per add round, and the rebuild period in ledger rounds
APPROX_DEFAULTS = {"rank": 8, "reset_every": 16}


def check_approx_settings(rank, reset_every) -> None:
    """ValueError unless `rank` is an integer of at least 1 and `reset_every` one of at least 0; a bool is not one."""
    for name, value, least in (("rank", rank, 1), ("reset_every", reset_every, 0)):
        if not is_int(value) or value < least:
            raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


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


class OutOfOrder(Exception):
    """A message's client id is not above the last one folded into its round."""


@dataclass(frozen=True)
class RoundAggregate:
    """One round's summed adds and deletes; a short B round also keeps its stacked factors."""

    add: SufficientStats
    delete: SufficientStats
    U_plus: np.ndarray | None = None
    U_minus: np.ndarray | None = None


@dataclass(frozen=True)
class RoundReport:
    """How a round was served; each field is a `metrics.csv` column (see `simulate.METRICS_COLUMNS`).

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

    A fold is built for one wire variant, width (d, c) and dtype, and holds
    every message to them (else MixedVariant, DimensionMismatch or
    MixedPrecision), and every message to its first message's round (else
    MixedRound), before any count moves; a payload's own shapes were
    checked when it was built (`client.PackedStats`, `client.QrPayload`).
    Messages must arrive in strictly ascending client id; one that does
    not raises OutOfOrder.  Each side (add, delete)
    is summed in one form, [packed Gram, moment], in place and in client
    order: a side's first payload is copied, the rest added with `+=`, and
    a payload of no samples is skipped.  An A payload is summed as sent; a
    B payload as the packed triangle of RᵀR and RᵀZ.  Each triangle entry
    gets the same additions as in dense d x d sums, at half the bytes, and
    `close` unpacks each side once.  A B round instead holds its payloads,
    each an R factor and its Z block, while its rows, both sides together,
    are at most `rebuild_rows(d)`; `close` then stacks each side's R
    factors into U, empty sides included, and forms the Gram change as UᵀU
    and the moment change as UᵀZ from its stacked Z blocks.  The message
    that takes the round over that limit sums every held payload, and
    `close` then returns no U: such a round is served by a rebuild.  In
    either form a side that no sample reached is `SufficientStats.zero`,
    read-only zeros that own no buffer, which `ledger_apply` skips.  So
    the fold keeps no message of an A round, no side holds more than
    `rebuild_rows(d)` rows, and the server runs no QR.  `scalars` counts
    what the folded messages carried on the uplink.
    """

    def __init__(self, variant: str, d: int, c: int, dtype):
        self.variant = variant
        self.round: int | None = None
        self.client_id: int | None = None  # the last client folded
        self.scalars = self.n_plus = self.n_minus = 0
        self._dims = (d, c)
        self._dtype = np.dtype(dtype)
        self._sums: list[list | None] = [None, None]  # [packed Gram, moment], add then delete
        self._blocks = ([], []) if variant == VARIANT_QR else None  # a short B round's payloads, add then delete
        self._rows = 0  # R-factor rows folded, both sides

    def add(self, msg: ClientMessage) -> None:
        """Fold one message into the round."""
        if self.client_id is None:
            self.round = msg.round
        elif msg.client_id <= self.client_id:
            raise OutOfOrder(f"client {msg.client_id} arrived after client {self.client_id}")
        elif msg.round != self.round:
            raise MixedRound(f"messages span rounds {self.round} and {msg.round}")
        if msg.variant != self.variant:
            raise MixedVariant(f"a variant {msg.variant} message in a variant {self.variant} round")
        for payload in (msg.add, msg.delete):
            if (payload.d, payload.c) != self._dims:
                raise DimensionMismatch(f"message dims {payload.d}x{payload.c} do not match {self._dims[0]}x{self._dims[1]}")
            if payload.dtype != self._dtype:
                raise MixedPrecision(f"a {payload.dtype} payload in a {self._dtype} round")
        self.n_plus += msg.add.n
        self.n_minus += msg.delete.n
        self.scalars += msg.scalar_count
        self.client_id = msg.client_id
        sides = ([msg.add], [msg.delete])
        if self._blocks is not None:
            for held, payload in zip(self._blocks, (msg.add, msg.delete)):
                held.append(payload)
            self._rows += msg.add.R.shape[0] + msg.delete.R.shape[0]
            if self._rows <= rebuild_rows(self._dims[0]):
                return
            # the round is now tall: every held payload is summed
            sides, self._blocks = self._blocks, None
        for side, payloads in enumerate(sides):
            for p in payloads:
                if not p.n:
                    continue
                # numpy's symmetric product: packed_gram's general one rounds differently at some widths
                parts = ((p.R.T @ p.R)[upper_mask(p.d)], p.R.T @ p.Z) if self.variant == VARIANT_QR else (p.S, p.G)
                if self._sums[side] is None:
                    self._sums[side] = [part.copy() for part in parts]
                else:
                    for total, part in zip(self._sums[side], parts):
                        total += part

    def comm(self) -> CommRecord:
        """Uplink cost of the folded messages in the fold's dtype, counted as `account_round` does."""
        return CommRecord(self.scalars, self.scalars * self._dtype.itemsize)

    def close(self) -> RoundAggregate:
        """The round's aggregate; call once, after the round's last message."""
        if self.client_id is None:
            raise ValueError("cannot aggregate an empty message list")
        d, c = self._dims
        sides, factors = [], [None, None]
        for i, n in enumerate((self.n_plus, self.n_minus)):
            if self._blocks is not None:
                factors[i] = u = np.vstack([p.R for p in self._blocks[i]])
            if not n:
                sides.append(SufficientStats.zero(d, c, self._dtype))
            elif self._blocks is not None:
                sides.append(SufficientStats(u.T @ u, u.T @ np.vstack([p.Z for p in self._blocks[i]]), n))
            else:
                packed, g = self._sums[i]
                sides.append(SufficientStats(unpack_symmetric(packed, d), g, n))
        return RoundAggregate(*sides, *factors)


def aggregate(messages: Iterable[ClientMessage], fold: RoundFold) -> RoundFold:
    """Fold `messages` into `fold` in the order given (see RoundFold) and return the same fold, still open."""
    for m in messages:
        fold.add(m)
    return fold


def run_round_a(ledger: Ledger, agg: RoundAggregate) -> tuple[Ledger, np.ndarray]:
    """Exact recompute: ledger update followed by one SPD solve."""
    new_ledger = ledger_apply(ledger, agg.add, agg.delete)
    return new_ledger, new_ledger.head


def run_round_b(
    ledger: Ledger, state: InverseState, agg: RoundAggregate
) -> tuple[Ledger, InverseState, np.ndarray, RoundReport]:
    """Incremental round: SMW add step, then SMW delete step, or a rebuild.

    The ledger is advanced first and stays authoritative.  The state is
    rebuilt from the ledger, at one site and exactly as the full-recompute
    fallback, when the aggregate carries no U (a tall round, which folded
    more than `rebuild_rows(d)` factor rows so a rebuild is the cheaper
    path, or a full-statistics one), when a downdate is infeasible, when a
    step's capacitance amplification exceeds CONDITION_THRESHOLD, or when a
    drift audit exceeds DRIFT_THRESHOLD; the report then says reset.
    """
    new_ledger = ledger_apply(ledger, agg.add, agg.delete)
    reset, lam = agg.U_plus is None, None
    if not reset:
        try:
            step = smw_step(state, agg.U_plus, agg.add.G)
            if step.amplification <= CONDITION_THRESHOLD and agg.U_minus.shape[0]:
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
    if agg.delete.n or (reset_every and new_ledger.t % reset_every == 0):
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


def account_round(messages: list[ClientMessage], precision: str) -> CommRecord:
    """Exact per-round communication accounting in scalars and bytes."""
    scalars = sum(m.scalar_count for m in messages)
    return CommRecord(scalars, scalars * dtype_of(precision).itemsize)


class Server:
    """One variant's server: it owns the ledger, the tracked state (None for A) and the certificate.

    `variant` is "A", "B" or "approx"; approx truncates its adds to `rank`
    eigenpairs and rebuilds every `reset_every`-th ledger round.
    `wire_variant` is what the server's clients send: full statistics for
    A, R-factors for B and approx.
    """

    def __init__(self, variant: str, d: int, c: int, gamma: float, precision="f64",
                 rank=APPROX_DEFAULTS["rank"], reset_every=APPROX_DEFAULTS["reset_every"]):
        if variant not in ("A", "B", "approx"):
            raise ValueError(f"unknown server variant {variant!r}, expected A, B or approx")
        check_approx_settings(rank, reset_every)
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

        A message out of ascending client id, or of another variant, width or precision than the
        server's, is refused before the ledger moves.
        Returns the served head, the round's report and the uplink of its messages.
        """
        fold = RoundFold(self.wire_variant, *self.ledger.stats.G.shape, self.ledger.dtype)
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
        return w, report, fold.comm()

    def posterior(self) -> MatrixNormalPosterior:
        """Certify what is served: B's tracked state (NotSPD if T is not SPD), A's and approx's ledger."""
        return posterior_from_state(self.state) if self.variant == "B" else posterior_from_ledger(self.ledger)
