"""Per-client retained store and round-message formation.

A client keeps each retained sample's feature and label rows as given at
ingest, without copying, and forms a deletion message from those same
rows, so the floats that leave the statistics are the ones that entered
them as long as the caller does not mutate a retained row.  Nothing is
recomputed from raw inputs.  Round messages carry only aggregate matrices
whose sizes depend on (d, c) and, for Variant B, r = min(n, d), never on
how much data the client retains: Variant A sends each batch's
`SufficientStats` (S, G, n), and Variant B its thin-QR R-factor with G
and n.  A payload of no samples is all zeros and costs no uplink scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .kernels import thin_qr_rfactor
from .stats import SufficientStats, batch_arrays, dtype_of, stats_from_batch

VARIANT_FULL = "A"  # full sufficient statistics per payload
VARIANT_QR = "B"  # QR R-factor per payload
VARIANTS = (VARIANT_FULL, VARIANT_QR)


class DuplicateId(Exception):
    """A sample id was ingested twice while still retained."""


class UnknownDeleteId(Exception):
    """A deletion referenced an id the client does not retain."""


@dataclass(frozen=True)
class Sample:
    id: int
    f: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class QrPayload:
    """Variant B payload: thin-QR R factor of F plus (G, n)."""

    R: np.ndarray
    G: np.ndarray
    n: int

    @property
    def d(self) -> int:
        return self.R.shape[1]

    @property
    def c(self) -> int:
        return self.G.shape[1]


@dataclass(frozen=True)
class ClientMessage:
    client_id: int
    round: int
    variant: str
    add: SufficientStats | QrPayload
    delete: SufficientStats | QrPayload

    @property
    def scalar_count(self) -> int:
        return payload_scalars(self.add) + payload_scalars(self.delete)


def variant_a_payload_scalars(n: int, d: int, c: int) -> int:
    """S's upper triangle and dense G for n >= 1 samples; nothing for none."""
    return d * (d + 1) // 2 + d * c if n else 0


def variant_b_payload_scalars(n: int, d: int, c: int) -> int:
    """The upper trapezoid of the r = min(n, d) row R factor and dense G; nothing for no samples.

    r d - r(r-1)/2 grows with r up to d(d+1)/2 at r = d, so a B payload
    never costs more than an A payload of the same (d, c), and costs as
    much once n >= d.
    """
    r = min(n, d)
    return r * d - r * (r - 1) // 2 + d * c if n else 0


def payload_scalars(payload: SufficientStats | QrPayload) -> int:
    """Scalars one payload carries on the uplink, as its frame holds them."""
    if isinstance(payload, QrPayload):
        return variant_b_payload_scalars(payload.n, payload.d, payload.c)
    return variant_a_payload_scalars(payload.n, payload.d, payload.c)


def empty_payload(variant: str, d: int, c: int, dtype) -> SufficientStats | QrPayload:
    """The payload of no samples, as read-only broadcast zeros that allocate no d x d or d x c block."""
    zero = np.zeros((), dtype=dtype)
    g = np.broadcast_to(zero, (d, c))
    if variant == VARIANT_FULL:
        return SufficientStats(np.broadcast_to(zero, (d, d)), g, 0)
    return QrPayload(np.zeros((0, d), dtype=dtype), g, 0)


@dataclass
class ClientStore:
    """One client's retained multiset, keyed by sample id.

    Ids move through three phases: ingested-but-unannounced (pending),
    announced via an add payload (retained), and gone after a delete
    payload.  A deleted id may be re-ingested later; that is how add-back
    streams are expressed.

    `ingest` does not copy: a sample given as arrays is kept as views of
    them.  A caller must not mutate a row while its sample is retained, or
    the delete payload is formed from the new values and no longer cancels
    the add payload.
    """

    client_id: int
    d: int
    c: int
    precision: str = "f64"
    retained: dict = field(default_factory=dict)
    pending: set = field(default_factory=set)

    def ingest(self, samples: Iterable[Sample]) -> "ClientStore":
        for s in samples:
            if s.id in self.retained:
                raise DuplicateId(f"client {self.client_id} already retains id {s.id}")
            f = np.asarray(s.f).reshape(self.d)
            y = np.asarray(s.y).reshape(self.c)
            self.retained[s.id] = Sample(s.id, f, y)
            self.pending.add(s.id)
        return self

    def retained_ids(self) -> list:
        return sorted(self.retained)

    def _batch(self, ids: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        dtype = dtype_of(self.precision)
        f = np.zeros((len(ids), self.d), dtype=dtype)
        y = np.zeros((len(ids), self.c), dtype=dtype)
        for i, sid in enumerate(ids):
            f[i] = self.retained[sid].f
            y[i] = self.retained[sid].y
        return f, y

    def _payload(self, ids: Sequence[int], variant: str):
        dtype = dtype_of(self.precision)
        if not ids:
            return empty_payload(variant, self.d, self.c, dtype)
        f, y = self._batch(ids)
        if variant == VARIANT_FULL:
            return stats_from_batch(f, y, dtype)
        # the R factor stands in for the Gram, so FᵀF is never formed here
        f, y = batch_arrays(f, y, dtype)
        return QrPayload(thin_qr_rfactor(f), f.T @ y, f.shape[0])

    def make_round_message(
        self, round_index: int, add_ids: Sequence[int], del_ids: Sequence[int], variant: str
    ) -> ClientMessage:
        """Form this client's message for one round and update the store.

        Additions must have been ingested (and not yet announced) this
        round; deletions must reference retained, previously announced
        ids.  Deleted samples leave the store only after their payload is
        formed from the cached features.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        add_ids = list(add_ids)
        del_ids = list(del_ids)
        for sid in add_ids:
            if sid not in self.pending:
                raise ValueError(f"id {sid} was not ingested this round on client {self.client_id}")
        for sid in del_ids:
            if sid not in self.retained or sid in self.pending:
                raise UnknownDeleteId(f"id {sid} is not retained by client {self.client_id}")
        msg = ClientMessage(
            client_id=self.client_id,
            round=round_index,
            variant=variant,
            add=self._payload(add_ids, variant),
            delete=self._payload(del_ids, variant),
        )
        for sid in add_ids:
            self.pending.discard(sid)
        for sid in del_ids:
            del self.retained[sid]
        return msg
