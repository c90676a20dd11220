"""Per-client retained store and round-message formation.

A client's samples are rows of one feature and label matrix that nothing
can write (`read_only`), and the client keeps only the ids it retains.  A
round's batch is one gather of those rows, so a deletion message is formed
from the same floats that entered the statistics.  Round messages carry
only aggregate matrices whose sizes depend on (d, c) and, for Variant B,
r = min(n, d), never on how much data the client retains: Variant A sends
each batch's `PackedStats`, FᵀF packed as its upper triangle with G = FᵀY
and n, and Variant B its thin-QR R-factor with G and n.  A payload of no
samples is all zeros and costs no uplink scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .kernels import DimensionMismatch, packed_gram, thin_qr_rfactor
from .stats import batch_arrays, dtype_of

VARIANT_FULL = "A"  # full sufficient statistics per payload
VARIANT_QR = "B"  # QR R-factor per payload
VARIANTS = (VARIANT_FULL, VARIANT_QR)


class DuplicateId(Exception):
    """A sample id was ingested twice while still retained."""


class UnknownDeleteId(Exception):
    """A deletion referenced an id the client does not retain."""


@dataclass(frozen=True)
class PackedStats:
    """Variant A payload: S = FᵀF as its upper triangle, packed row by row, plus (G, n)."""

    S: np.ndarray
    G: np.ndarray
    n: int

    @property
    def d(self) -> int:
        return self.G.shape[0]

    @property
    def c(self) -> int:
        return self.G.shape[1]


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
    add: PackedStats | QrPayload
    delete: PackedStats | QrPayload

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


def payload_scalars(payload: PackedStats | QrPayload) -> int:
    """Scalars one payload carries on the uplink, as its frame holds them."""
    if isinstance(payload, QrPayload):
        return variant_b_payload_scalars(payload.n, payload.d, payload.c)
    return variant_a_payload_scalars(payload.n, payload.d, payload.c)


def empty_payload(variant: str, d: int, c: int, dtype) -> PackedStats | QrPayload:
    """The payload of no samples, as read-only broadcast zeros that allocate no packed S or d x c block."""
    zero = np.zeros((), dtype=dtype)
    g = np.broadcast_to(zero, (d, c))
    if variant == VARIANT_FULL:
        return PackedStats(np.broadcast_to(zero, (d * (d + 1) // 2,)), g, 0)
    return QrPayload(np.zeros((0, d), dtype=dtype), g, 0)


def read_only(a) -> np.ndarray:
    """`a` when it is read-only and owns its data, else a read-only copy of it.

    A read-only view can still change through the array it views, so only
    an array that owns its data is kept as given.
    """
    a = np.asarray(a)
    if a.flags.writeable or a.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass
class ClientStore:
    """One client's retained multiset: ids of rows of a shared feature and label matrix.

    Ids move through three phases: ingested-but-unannounced (pending),
    announced via an add payload (retained), and gone after a delete
    payload.  A deleted id may be re-ingested later; that is how add-back
    streams are expressed.

    The matrices are kept through `read_only`: read-only ones are shared as
    given, and a writable one is copied once, so a caller's later writes to
    it never reach a payload.  Each batch is one gather of its rows, cast
    to the store's precision.
    """

    client_id: int
    features: np.ndarray  # n x d
    labels: np.ndarray  # n x c
    precision: str = "f64"
    retained: set = field(default_factory=set)
    pending: set = field(default_factory=set)

    def __post_init__(self):
        self.features, self.labels = read_only(self.features), read_only(self.labels)
        if self.features.ndim != 2 or self.labels.ndim != 2 or len(self.features) != len(self.labels):
            raise DimensionMismatch(
                f"need n x d features and n x c labels, got {self.features.shape} and {self.labels.shape}"
            )

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def c(self) -> int:
        return self.labels.shape[1]

    def ingest(self, ids: Iterable[int]) -> "ClientStore":
        """Announce sample ids, rows of the feature matrix, for this round's add payload."""
        for sid in ids:
            if sid in self.retained:
                raise DuplicateId(f"client {self.client_id} already retains id {sid}")
            if not 0 <= sid < len(self.features):
                raise IndexError(f"id {sid} is not a row of the {len(self.features)}-row feature matrix")
            self.retained.add(sid)
            self.pending.add(sid)
        return self

    def _payload(self, ids: list[int], variant: str) -> PackedStats | QrPayload:
        dtype = dtype_of(self.precision)
        if not ids:
            return empty_payload(variant, self.d, self.c, dtype)
        f, y = batch_arrays(self.features[ids], self.labels[ids], dtype)
        if variant == VARIANT_FULL:
            return PackedStats(packed_gram(f), f.T @ y, len(ids))
        # the R factor stands in for the Gram, so FᵀF is never formed here
        return QrPayload(thin_qr_rfactor(f), f.T @ y, len(ids))

    def make_round_message(
        self, round_index: int, add_ids: Sequence[int], del_ids: Sequence[int], variant: str
    ) -> ClientMessage:
        """Form this client's message for one round and update the store.

        Additions must have been ingested (and not yet announced) this
        round; deletions must reference retained, previously announced
        ids.  Deleted samples leave the store only after their payload is
        formed from their rows.
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
        self.pending.difference_update(add_ids)
        self.retained.difference_update(del_ids)
        return msg
