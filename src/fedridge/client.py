"""Per-client retained store and round-message formation.

A client caches each sample's feature vector at add time, so deletion
messages are always formed from the very same floats that entered the
statistics; nothing is ever recomputed from raw inputs.  Round messages
carry only aggregate matrices whose sizes depend on (d, c, r), never on
how much data the client retains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .kernels import thin_qr_rfactor
from .stats import batch_arrays, dtype_of, stats_from_batch

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
class StatsPayload:
    """Variant A payload: (S, G, n) of one add or delete batch."""

    S: np.ndarray
    G: np.ndarray
    n: int

    @property
    def scalar_count(self) -> int:
        d = self.S.shape[0]
        c = self.G.shape[1]
        return variant_a_payload_scalars(d, c)


@dataclass(frozen=True)
class QrPayload:
    """Variant B payload: thin-QR R factor of F plus (G, n)."""

    R: np.ndarray
    G: np.ndarray
    n: int

    @property
    def scalar_count(self) -> int:
        r, d = self.R.shape
        c = self.G.shape[1]
        return variant_b_payload_scalars(r, d, c)


@dataclass(frozen=True)
class ClientMessage:
    client_id: int
    round: int
    variant: str
    add: StatsPayload | QrPayload
    delete: StatsPayload | QrPayload

    @property
    def scalar_count(self) -> int:
        return self.add.scalar_count + self.delete.scalar_count


def variant_a_payload_scalars(d: int, c: int) -> int:
    """Packed symmetric S, dense G, plus the sample count."""
    return d * (d + 1) // 2 + d * c + 1


def variant_b_payload_scalars(r: int, d: int, c: int) -> int:
    """Dense r x d factor, dense G, plus the sample count."""
    return r * d + d * c + 1


@dataclass
class ClientStore:
    """One client's retained multiset, keyed by sample id.

    Ids move through three phases: ingested-but-unannounced (pending),
    announced via an add payload (retained), and gone after a delete
    payload.  A deleted id may be re-ingested later; that is how add-back
    streams are expressed.
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
        if variant == VARIANT_FULL and not ids:
            # one read-only zero, broadcast: an empty batch allocates no d x d Gram
            zero = np.zeros((), dtype=dtype)
            return StatsPayload(
                np.broadcast_to(zero, (self.d, self.d)), np.broadcast_to(zero, (self.d, self.c)), 0
            )
        f, y = self._batch(ids)
        if variant == VARIANT_FULL:
            st = stats_from_batch(f, y, dtype)
            return StatsPayload(st.S, st.G, st.n)
        # the R factor stands in for the Gram, so FᵀF is never formed here
        f, y = batch_arrays(f, y, dtype)
        if f.shape[0] == 0:
            r = np.zeros((0, self.d), dtype=dtype)
        else:
            r = thin_qr_rfactor(f)
        return QrPayload(r, f.T @ y, f.shape[0])

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
