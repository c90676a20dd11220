"""Per-client retained store and round-message formation.

A client's samples are rows of one feature and label matrix that nothing
can write (`read_only`), and the client keeps only the ids it retains.  A
round's batch is one gather of those rows, so a deletion message is formed
from the same floats that entered the statistics.  Round messages carry
only aggregate matrices whose sizes depend on (d, c) and, for Variant B,
r = min(n, d), never on how much data the client retains: Variant A sends
each batch's `PackedStats`, FᵀF packed as its upper triangle with G = FᵀY
and n, and Variant B its `QrPayload`, the r x d R factor and the r x c
block Z = QᵀY of one thin QR of [F | Y], with n.  RᵀZ = FᵀY, so B never
forms or sends the dense d x c moment: a one-sample B side is d + c
scalars.  A payload of no samples is all zeros and costs no uplink scalars.
Each payload type checks its own format once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from .kernels import DimensionMismatch, packed_gram, read_only_zeros, thin_qr_rfactor
from .stats import batch_arrays, dtype_of, is_int

VARIANT_FULL = "A"  # full sufficient statistics per payload
VARIANT_QR = "B"  # QR R-factor per payload
VARIANTS = (VARIANT_FULL, VARIANT_QR)


class DuplicateId(Exception):
    """An add named an id the client already retains, or named it twice."""


class UnknownDeleteId(Exception):
    """A deletion named an id the client does not retain, or named it twice."""


class MixedPrecision(Exception):
    """A payload's two matrices, or a payload and its round, differ in precision."""


class MixedVariant(Exception):
    """A message's two payloads, or a message and its round, differ in variant."""


def _check_payload(n, matrix: np.ndarray, moment: np.ndarray) -> None:
    """ValueError unless `n` is an integer of at least 0, MixedPrecision unless the two matrices share a dtype."""
    if not is_int(n) or n < 0:
        raise ValueError(f"sample count {n!r} is not an integer of at least 0")
    if matrix.dtype != moment.dtype:
        raise MixedPrecision(f"a payload mixes {matrix.dtype} and {moment.dtype}")


@dataclass(frozen=True)
class PackedStats:
    """Variant A payload: S = FᵀF as its upper triangle of d(d+1)/2 entries (else DimensionMismatch), plus (G, n)."""

    S: np.ndarray
    G: np.ndarray
    n: int
    variant: ClassVar[str] = VARIANT_FULL

    def __post_init__(self):
        _check_payload(self.n, self.S, self.G)
        if self.S.shape != (self.d * (self.d + 1) // 2,):
            raise DimensionMismatch(f"a packed S at d={self.d} has d(d+1)/2 entries, not shape {self.S.shape}")

    @property
    def d(self) -> int:
        return self.G.shape[0]

    @property
    def c(self) -> int:
        return self.G.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.S.dtype


@dataclass(frozen=True)
class QrPayload:
    """Variant B payload: R and Z = QᵀY of one thin QR of [F | Y], min(n, d) rows each (else DimensionMismatch), plus n."""

    R: np.ndarray
    Z: np.ndarray
    n: int
    variant: ClassVar[str] = VARIANT_QR

    def __post_init__(self):
        _check_payload(self.n, self.R, self.Z)
        rows = min(self.n, self.d)
        if self.R.shape[0] != rows or self.Z.shape[0] != rows:
            raise DimensionMismatch(f"R and Z of {self.n} samples need {rows} rows, not {len(self.R)} and {len(self.Z)}")

    @property
    def d(self) -> int:
        return self.R.shape[1]

    @property
    def c(self) -> int:
        return self.Z.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.R.dtype

    @property
    def G(self) -> np.ndarray:
        """FᵀY recovered as RᵀZ, read-only; the server folds Z and never reads this."""
        g = self.R.T @ self.Z
        g.flags.writeable = False
        return g


@dataclass(frozen=True)
class ClientMessage:
    """One client's round: its add and delete payloads, of one type (else MixedVariant)."""

    client_id: int
    round: int
    add: PackedStats | QrPayload
    delete: PackedStats | QrPayload

    def __post_init__(self):
        if type(self.add) is not type(self.delete):
            raise MixedVariant(f"a message pairs a {type(self.add).__name__} with a {type(self.delete).__name__}")

    @property
    def variant(self) -> str:
        return self.add.variant

    @property
    def scalar_count(self) -> int:
        return payload_scalars(self.add) + payload_scalars(self.delete)


def variant_a_payload_scalars(n: int, d: int, c: int) -> int:
    """S's upper triangle and dense G for n >= 1 samples; nothing for none."""
    return d * (d + 1) // 2 + d * c if n else 0


def variant_b_payload_scalars(n: int, d: int, c: int) -> int:
    """The upper trapezoid of the r = min(n, d) row R factor and the r x c Z; nothing for no samples.

    r d - r(r-1)/2 + r c grows with r up to d(d+1)/2 + d c at r = d, so a
    B payload never costs more than an A payload of the same (d, c), and
    costs as much once n >= d.
    """
    r = min(n, d)
    return r * d - r * (r - 1) // 2 + r * c


# each variant's payload size in scalars, from (n, d, c): what its frame carries after the header
PAYLOAD_SCALARS = {VARIANT_FULL: variant_a_payload_scalars, VARIANT_QR: variant_b_payload_scalars}


def payload_scalars(payload: PackedStats | QrPayload) -> int:
    """Scalars one payload carries on the uplink, as its frame holds them."""
    return PAYLOAD_SCALARS[payload.variant](payload.n, payload.d, payload.c)


def empty_payload(variant: str, d: int, c: int, dtype) -> PackedStats | QrPayload:
    """The payload of no samples.

    A's is shared read-only zeros (`read_only_zeros`), which allocate no
    packed S or d x c block; B's is an R and a Z of no rows.  Each call
    makes a new payload around the shared arrays.
    """
    if variant == VARIANT_FULL:
        return PackedStats(read_only_zeros((d * (d + 1) // 2,), dtype), read_only_zeros((d, c), dtype), 0)
    return QrPayload(np.zeros((0, d), dtype=dtype), np.zeros((0, c), dtype=dtype), 0)


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

    An id is retained from the message whose add payload announces it until
    the message whose delete payload removes it.  A deleted id may be added
    again later; that is how add-back streams are expressed.

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

    def _payload(self, ids: Sequence[int], variant: str) -> PackedStats | QrPayload:
        dtype = dtype_of(self.precision)
        if not len(ids):
            return empty_payload(variant, self.d, self.c, dtype)
        # the batch's one validation: the QR below does not check it again
        f, y = batch_arrays(self.features[ids], self.labels[ids], dtype)
        if variant == VARIANT_FULL:
            return PackedStats(packed_gram(f), f.T @ y, len(ids))
        # one QR of [F | Y]: R stands in for FᵀF and Z for FᵀY, so neither is formed here
        return QrPayload(*thin_qr_rfactor(f, y), len(ids))

    def make_round_message(
        self, round_index: int, add_ids: Sequence[int], del_ids: Sequence[int], variant: str
    ) -> ClientMessage:
        """Form this client's message for one round and update the store.

        Additions must be distinct rows of the feature matrix that the store
        does not retain, and deletions distinct ids it retains, both as of
        the start of the round.  A refused message leaves the store as it
        was; deleted samples leave it only after their payload is formed
        from their rows.
        """
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        added, deleted = set(add_ids), set(del_ids)
        if added and not 0 <= min(added) <= max(added) < len(self.features):
            raise IndexError(f"an added id is not a row of the {len(self.features)}-row feature matrix")
        if len(added) < len(add_ids):
            raise DuplicateId(f"client {self.client_id} is asked to add an id twice")
        if not added.isdisjoint(self.retained):
            raise DuplicateId(f"client {self.client_id} already retains id {min(added & self.retained)}")
        if len(deleted) < len(del_ids):
            raise UnknownDeleteId(f"client {self.client_id} is asked to delete an id twice")
        if not deleted <= self.retained:
            raise UnknownDeleteId(f"id {min(deleted - self.retained)} is not retained by client {self.client_id}")
        msg = ClientMessage(
            client_id=self.client_id,
            round=round_index,
            add=self._payload(add_ids, variant),
            delete=self._payload(del_ids, variant),
        )
        self.retained -= deleted
        self.retained |= added
        return msg
