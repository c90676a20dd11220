"""Binary interchange formats.

Message frames ("FCUL", version 2)
    One frame per payload, little-endian.  The 28-byte header is

        magic     4s   b"FCUL"
        version   u16  message-frame version, currently 2
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
    precision: a full-statistics frame carries a `SufficientStats`, S
    packed as its upper triangle and then G, d(d+1)/2 + dc scalars; a QR
    frame carries a `QrPayload`, its R factor of r = min(n, d) rows packed
    as its upper trapezoid and then G, r d - r(r-1)/2 + dc scalars, which
    is never more than a full-statistics frame and as much once n >= d.
    A ClientMessage serializes as exactly two frames, the add payload
    first, then the delete payload, which agree on every header field but n.

    The encoder raises WireError for a payload it cannot carry exactly: n
    not an integer in [0, 2^32), a zero-sample payload with a nonzero entry,
    or an R factor whose row count is not min(n, d) or that has a nonzero
    entry below its diagonal.  The decoder rejects any other version
    (version 1 carried n as a trailing float), d < 1, c < 1 and any
    non-finite scalar, and decodes a zero-sample frame as the read-only
    zeros a client forms for an empty batch (`client.empty_payload`).
    Since a header alone declares a d x d zero payload, both sides refuse
    d or c above MAX_DIM = 8192: a full-statistics frame there already
    holds 33.6M scalars.

Feature files ("FFUR", version 1)
    Little-endian header

        magic 4s = b"FFUR", version u16, n u32, d u32, c u32, dtype u8

    with dtype 4 = float32 / 8 = float64, followed by the n x d feature
    matrix row-major, then the n x c label matrix row-major.  The reader
    rejects a file holding any non-finite feature or label.  Feature files
    keep their own version: a new message-frame version leaves them as
    they are.
"""

from __future__ import annotations

import numbers
import struct
from functools import lru_cache

import numpy as np

from .client import ClientMessage, QrPayload, VARIANT_FULL, VARIANT_QR, empty_payload
from .client import variant_a_payload_scalars, variant_b_payload_scalars
from .stats import SufficientStats

MESSAGE_MAGIC = b"FCUL"
FEATURE_MAGIC = b"FFUR"
MESSAGE_VERSION = 2
FEATURE_VERSION = 1
MAX_COUNT = 2**32 - 1  # the largest n the header's u32 field holds
MAX_DIM = 2**13  # the largest d or c a frame may declare

_FRAME_HEADER = struct.Struct("<4sHBBIIIII")
_FEATURE_HEADER = struct.Struct("<4sHIIIB")

_PRECISION_CODE = {"f32": 4, "f64": 8}
_CODE_PRECISION = {v: k for k, v in _PRECISION_CODE.items()}
_CODE_DTYPE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_VARIANT_CODE = {VARIANT_FULL: 0, VARIANT_QR: 1}
_CODE_VARIANT = {v: k for k, v in _VARIANT_CODE.items()}
_PAYLOAD_SCALARS = {VARIANT_FULL: variant_a_payload_scalars, VARIANT_QR: variant_b_payload_scalars}


class WireError(Exception):
    """Malformed or truncated binary frame."""


@lru_cache(maxsize=16)
def _upper_indices(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major indices of a d x d matrix's upper triangle, row by row, and of their mirror images.

    The first r d - r(r-1)/2 of them are the upper trapezoid of the first
    r rows, and an r x d matrix has the flat indices of those rows, so one
    cached pair per d serves S and every R factor at that d.
    """
    rows, cols = np.triu_indices(d)
    upper, mirror = rows * d + cols, cols * d + rows
    upper.flags.writeable = mirror.flags.writeable = False
    return upper, mirror


def pack_upper(m: np.ndarray) -> np.ndarray:
    """Upper trapezoid of an r x d matrix with r <= d, row-major; S's upper triangle when r = d."""
    r, d = m.shape
    return m.reshape(-1)[_upper_indices(d)[0][: r * d - r * (r - 1) // 2]]


def unpack_upper(packed: np.ndarray, r: int, d: int) -> np.ndarray:
    """The r x d matrix, zero below its diagonal, whose upper trapezoid is `packed`."""
    m = np.zeros(r * d, dtype=packed.dtype)
    m[_upper_indices(d)[0][: packed.size]] = packed
    return m.reshape(r, d)


def unpack_symmetric(packed: np.ndarray, d: int) -> np.ndarray:
    """The symmetric matrix whose upper triangle is `packed`, each entry copied, never summed."""
    upper, mirror = _upper_indices(d)
    m = np.empty(d * d, dtype=packed.dtype)
    m[upper] = packed
    m[mirror] = packed
    return m.reshape(d, d)


def _encode_frame(payload, variant: str, precision: str, round_index: int, client_id: int) -> bytes:
    n = payload.n
    if not (payload.d <= MAX_DIM and payload.c <= MAX_DIM):
        raise WireError(f"dimensions d={payload.d}, c={payload.c} above {MAX_DIM}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or not 0 <= n <= MAX_COUNT:
        raise WireError(f"sample count {n!r} is not an integer in [0, 2^32)")
    if variant == VARIANT_FULL and isinstance(payload, SufficientStats):
        matrix = payload.S
    elif variant == VARIANT_QR and isinstance(payload, QrPayload):
        matrix, rows = payload.R, min(n, payload.d)
        if matrix.shape[0] != rows:
            raise WireError(f"an R factor of {n} samples has min(n, d) = {rows} rows, not {matrix.shape[0]}")
        if np.tril(matrix, -1).any():
            raise WireError("R factor has a nonzero entry below its diagonal")
    else:
        raise WireError(f"a variant {variant} frame cannot carry a {type(payload).__name__}")
    header = _FRAME_HEADER.pack(
        MESSAGE_MAGIC,
        MESSAGE_VERSION,
        _VARIANT_CODE[variant],
        _PRECISION_CODE[precision],
        round_index,
        client_id,
        payload.d,
        payload.c,
        n,
    )
    if n == 0:
        if matrix.any() or payload.G.any():
            raise WireError("a zero-sample payload has a nonzero entry")
        return header
    dtype = _CODE_DTYPE[_PRECISION_CODE[precision]]
    return header + np.concatenate([pack_upper(matrix), payload.G.reshape(-1)]).astype(dtype).tobytes()


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
    count = _PAYLOAD_SCALARS[variant](n, d, c)
    nbytes = count * dtype.itemsize
    if len(buf) < end + nbytes:
        raise WireError("truncated frame payload")
    scalars = np.frombuffer(buf, dtype=dtype, count=count, offset=end)
    if not np.isfinite(scalars).all():
        raise WireError("non-finite payload scalar")
    tri = count - d * c
    g = scalars[tri:].reshape(d, c).copy()
    if variant == VARIANT_FULL:
        payload = SufficientStats(unpack_symmetric(scalars[:tri], d), g, n)
    else:
        payload = QrPayload(unpack_upper(scalars[:tri], min(n, d), d), g, n)
    return payload, meta, end + nbytes


def encode_message(msg: ClientMessage, precision: str) -> bytes:
    """Serialize a ClientMessage as two frames: add first, delete second."""
    return _encode_frame(msg.add, msg.variant, precision, msg.round, msg.client_id) + _encode_frame(
        msg.delete, msg.variant, precision, msg.round, msg.client_id
    )


def decode_message(buf: bytes, offset: int = 0) -> tuple[ClientMessage, str, int]:
    """Decode one ClientMessage; returns (message, precision, next offset)."""
    add, meta_add, offset = _decode_frame(buf, offset)
    delete, meta_del, offset = _decode_frame(buf, offset)
    if meta_add != meta_del:
        raise WireError(f"frame pair mismatch: {meta_add} vs {meta_del}")
    variant, precision, round_index, client_id, _, _ = meta_add
    return (
        ClientMessage(client_id=client_id, round=round_index, variant=variant, add=add, delete=delete),
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
        fh.write(features.tobytes())
        fh.write(labels.tobytes())


def read_feature_file(path) -> tuple[np.ndarray, np.ndarray, str]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < _FEATURE_HEADER.size:
        raise WireError("truncated feature file header")
    magic, version, n, d, c, prec_code = _FEATURE_HEADER.unpack(buf[: _FEATURE_HEADER.size])
    if magic != FEATURE_MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise WireError(f"unsupported feature-file version {version}")
    if prec_code not in _CODE_DTYPE:
        raise WireError(f"bad dtype code {prec_code}")
    dtype = _CODE_DTYPE[prec_code]
    need = _FEATURE_HEADER.size + (n * d + n * c) * dtype.itemsize
    if len(buf) < need:
        raise WireError("truncated feature file body")
    features = np.frombuffer(buf, dtype=dtype, count=n * d, offset=_FEATURE_HEADER.size).reshape(n, d).copy()
    labels = np.frombuffer(buf, dtype=dtype, count=n * c, offset=_FEATURE_HEADER.size + n * d * dtype.itemsize)
    labels = labels.reshape(n, c).copy()
    if not (np.isfinite(features).all() and np.isfinite(labels).all()):
        raise WireError("non-finite feature or label")
    return features, labels, _CODE_PRECISION[prec_code]
