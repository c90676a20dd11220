"""Binary interchange formats.

Message frames ("FCUL", version 3)
    One frame per payload, little-endian.  The 28-byte header is

        magic     4s   b"FCUL"
        version   u16  message-frame version, currently 3
        variant   u8   0 = full statistics, 1 = QR factor
        precision u8   4 = float32, 8 = float64
        round     u32
        client    u32
        d         u32
        c         u32
        n         u32  the payload's sample count

    so n is exact in either precision for every count below 2^32.  The
    header fixes the payload's size (`client.payload_scalars`).  A frame of
    n = 0 samples is the header alone and carries no scalar.  Any other
    frame is followed by its payload matrices row-major in the declared
    precision: a full-statistics frame carries a `PackedStats`, whose S is
    already its packed upper triangle, and then G, d(d+1)/2 + dc scalars,
    so encoding is a concatenation and decoding a split of the buffer; a QR
    frame carries a `QrPayload`, its R factor of r = min(n, d) rows packed
    as its upper trapezoid and then its r x c block Z = QᵀY, r d -
    r(r-1)/2 + rc scalars, which is never more than a full-statistics frame
    and as much once n >= d.  A one-sample QR frame is d + c scalars.  A
    ClientMessage serializes as exactly two frames, the add payload first,
    then the delete payload, which agree on every header field but n.

    A payload's own format, an integer n >= 0, a packed S of d(d+1)/2
    entries, an R and Z of min(n, d) rows and one dtype for both matrices,
    is checked once, when the payload is built (`client.PackedStats`,
    `client.QrPayload`).  The encoder never casts, and raises WireError
    only for what a frame cannot carry exactly: a round or client id that
    is not an integer (a bool is not one), a round, client id or n outside
    [0, 2^32), a payload in another precision than the frame's, a
    zero-sample payload with a nonzero entry, or an R factor with a
    nonzero entry below its diagonal.  The decoder rejects any other
    version (version 2 carried a QR frame's dense d x c G in place of Z,
    version 1 also n as a trailing float), d < 1, c < 1 and any non-finite
    scalar, and decodes a zero-sample frame as the zeros a client forms
    for an empty batch (`client.empty_payload`).
    Since a header alone declares a d x d zero payload, both sides refuse
    d or c above MAX_DIM = 8192: a full-statistics frame there already
    holds 33.6M scalars.

Feature files ("FFUR", version 1)
    Little-endian header

        magic 4s = b"FFUR", version u16, n u32, d u32, c u32, dtype u8

    with dtype 4 = float32 / 8 = float64, followed by the n x d feature
    matrix row-major, then the n x c label matrix row-major: the body is
    exactly n(d + c) scalars.  The writer writes each matrix's own buffer.
    The reader rejects d < 1, c < 1 and a file of any other size before it
    allocates anything, reads each matrix in place into the array it
    returns, rejects a file holding any non-finite feature or label, and
    returns both matrices read-only.  Feature files keep their own version:
    a new message-frame version leaves them as they are.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .client import PAYLOAD_SCALARS, ClientMessage, PackedStats, QrPayload, VARIANT_FULL, VARIANT_QR, empty_payload
from .kernels import upper_mask
from .stats import dtype_of, is_int

MESSAGE_MAGIC = b"FCUL"
FEATURE_MAGIC = b"FFUR"
MESSAGE_VERSION = 3
FEATURE_VERSION = 1
MAX_COUNT = 2**32 - 1  # the largest n, round or client id a header's u32 fields hold
MAX_DIM = 2**13  # the largest d or c a frame may declare

_FRAME_HEADER = struct.Struct("<4sHBBIIIII")
_FEATURE_HEADER = struct.Struct("<4sHIIIB")

_PRECISION_CODE = {"f32": 4, "f64": 8}
_CODE_PRECISION = {v: k for k, v in _PRECISION_CODE.items()}
_CODE_DTYPE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_VARIANT_CODE = {VARIANT_FULL: 0, VARIANT_QR: 1}
_CODE_VARIANT = {v: k for k, v in _VARIANT_CODE.items()}


class WireError(Exception):
    """Malformed or truncated binary frame."""


def pack_upper(m: np.ndarray) -> np.ndarray:
    """Upper trapezoid of an r x d matrix with r <= d, row by row."""
    r, d = m.shape
    return m[upper_mask(d)[:r]]


def unpack_upper(packed: np.ndarray, r: int, d: int) -> np.ndarray:
    """The r x d matrix, zero below its diagonal, whose upper trapezoid is `packed`."""
    m = np.zeros((r, d), dtype=packed.dtype)
    m[upper_mask(d)[:r]] = packed
    return m


def _encode_frame(payload, precision: str, round_index: int, client_id: int) -> bytes:
    n = payload.n
    if not (payload.d <= MAX_DIM and payload.c <= MAX_DIM):
        raise WireError(f"dimensions d={payload.d}, c={payload.c} above {MAX_DIM}")
    if not all(is_int(v) and 0 <= v <= MAX_COUNT for v in (round_index, client_id, n)):
        raise WireError(f"round {round_index!r}, client {client_id!r} or n = {n} is not an integer in [0, 2^32)")
    if payload.dtype != dtype_of(precision):  # a cast would change the scalars sent
        raise WireError(f"a {payload.dtype} payload cannot be encoded as {precision}")
    header = _FRAME_HEADER.pack(
        MESSAGE_MAGIC,
        MESSAGE_VERSION,
        _VARIANT_CODE[payload.variant],
        _PRECISION_CODE[precision],
        round_index,
        client_id,
        payload.d,
        payload.c,
        n,
    )
    matrix, labels = (payload.S, payload.G) if payload.variant == VARIANT_FULL else (payload.R, payload.Z)
    if n == 0:
        if matrix.any() or labels.any():
            raise WireError("a zero-sample payload has a nonzero entry")
        return header
    if payload.variant == VARIANT_QR:
        if np.tril(matrix, -1).any():
            raise WireError("R factor has a nonzero entry below its diagonal")
        matrix = pack_upper(matrix)
    dtype = _CODE_DTYPE[_PRECISION_CODE[precision]]
    return header + np.concatenate([matrix, labels.reshape(-1)]).astype(dtype, copy=False).tobytes()


def _decode_frame(buf: bytes, offset: int):
    end = offset + _FRAME_HEADER.size
    if len(buf) < end:
        raise WireError("truncated frame header")
    magic, version, variant_code, prec_code, round_index, client_id, d, c, n = _FRAME_HEADER.unpack(
        buf[offset:end]
    )
    if magic != MESSAGE_MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != MESSAGE_VERSION:
        raise WireError(f"unsupported message-frame version {version}")
    if prec_code not in _CODE_DTYPE or variant_code not in _CODE_VARIANT:
        raise WireError("bad precision or variant code")
    dtype = _CODE_DTYPE[prec_code]
    variant = _CODE_VARIANT[variant_code]
    if not (1 <= d <= MAX_DIM and 1 <= c <= MAX_DIM):
        raise WireError(f"implausible dimensions d={d}, c={c}")
    meta = (variant, _CODE_PRECISION[prec_code], round_index, client_id, d, c)
    if n == 0:
        return empty_payload(variant, d, c, dtype), meta, end
    count = PAYLOAD_SCALARS[variant](n, d, c)
    nbytes = count * dtype.itemsize
    if len(buf) < end + nbytes:
        raise WireError("truncated frame payload")
    scalars = np.frombuffer(buf, dtype=dtype, count=count, offset=end)
    if not np.isfinite(scalars).all():
        raise WireError("non-finite payload scalar")
    # G has d rows, and Z as many as R: min(n, d)
    rows = d if variant == VARIANT_FULL else min(n, d)
    tri = count - rows * c
    labels = scalars[tri:].reshape(rows, c).copy()
    if variant == VARIANT_FULL:
        payload = PackedStats(scalars[:tri].copy(), labels, n)
    else:
        payload = QrPayload(unpack_upper(scalars[:tri], rows, d), labels, n)
    return payload, meta, end + nbytes


def encode_message(msg: ClientMessage, precision: str) -> bytes:
    """Serialize a ClientMessage as two frames: add first, delete second."""
    return _encode_frame(msg.add, precision, msg.round, msg.client_id) + _encode_frame(
        msg.delete, precision, msg.round, msg.client_id
    )


def decode_message(buf: bytes, offset: int = 0) -> tuple[ClientMessage, str, int]:
    """Decode one ClientMessage; returns (message, precision, next offset)."""
    add, meta_add, offset = _decode_frame(buf, offset)
    delete, meta_del, offset = _decode_frame(buf, offset)
    if meta_add != meta_del:
        raise WireError(f"frame pair mismatch: {meta_add} vs {meta_del}")
    variant, precision, round_index, client_id, _, _ = meta_add
    return (
        ClientMessage(client_id=client_id, round=round_index, add=add, delete=delete),
        precision,
        offset,
    )


def write_feature_file(path, features: np.ndarray, labels: np.ndarray, precision: str = "f32") -> None:
    dtype = _CODE_DTYPE[_PRECISION_CODE[precision]]
    features = np.ascontiguousarray(features, dtype=dtype)
    labels = np.ascontiguousarray(labels, dtype=dtype)
    n, d = features.shape
    if labels.shape[0] != n:
        raise WireError(f"features have {n} rows but labels have {labels.shape[0]}")
    c = labels.shape[1]
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, n, d, c, _PRECISION_CODE[precision])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(features.data)
        fh.write(labels.data)


def read_feature_file(path) -> tuple[np.ndarray, np.ndarray, str]:
    with open(path, "rb") as fh:
        head = fh.read(_FEATURE_HEADER.size)
        if len(head) < _FEATURE_HEADER.size:
            raise WireError("truncated feature file header")
        magic, version, n, d, c, prec_code = _FEATURE_HEADER.unpack(head)
        if magic != FEATURE_MAGIC:
            raise WireError(f"bad magic {magic!r}")
        if version != FEATURE_VERSION:
            raise WireError(f"unsupported feature-file version {version}")
        if prec_code not in _CODE_DTYPE:
            raise WireError(f"bad dtype code {prec_code}")
        if d < 1 or c < 1:
            raise WireError(f"implausible dimensions d={d}, c={c}")
        dtype = _CODE_DTYPE[prec_code]
        # the body's size is checked before any array is allocated for it
        need = n * (d + c) * dtype.itemsize
        body = os.fstat(fh.fileno()).st_size - _FEATURE_HEADER.size
        if body != need:
            kind = "truncated" if body < need else "overlong"
            raise WireError(f"{kind} feature file body: {body} bytes where the header declares {need}")
        features = np.empty((n, d), dtype=dtype)
        labels = np.empty((n, c), dtype=dtype)
        for array in (features, labels):
            if fh.readinto(array.data) != array.nbytes:
                raise WireError("truncated feature file body")
    if not (np.isfinite(features).all() and np.isfinite(labels).all()):
        raise WireError("non-finite feature or label")
    # read-only, so client stores share these rows instead of copying them
    features.flags.writeable = labels.flags.writeable = False
    return features, labels, _CODE_PRECISION[prec_code]
