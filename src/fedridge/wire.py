"""Binary interchange formats.

Message frames ("FCUL")
    One frame per payload, little-endian:

        magic    4s   b"FCUL"
        version  u16  format version, currently 1
        variant  u8   0 = full statistics, 1 = QR factor
        precision u8  4 = float32, 8 = float64
        round    u32
        client   u32
        d        u32
        c        u32
        r        u32  R-factor rows (0 for full-statistics frames)

    followed by the payload matrices in row-major order and the sample
    count as one trailing scalar, all in the declared precision, so a
    frame carries counts up to 2^24 (float32) or 2^53 (float64), above
    which not every integer is exact; encoder and decoder refuse larger
    ones.  Full statistics frames carry a `SufficientStats` payload: S
    packed as its upper triangle row-major, then G.  QR frames carry a
    `QrPayload`: R dense, then G.  A ClientMessage serializes as exactly
    two frames: the add payload first, then the delete payload.
    A client's QR frame has r = min(n, d); the decoder rejects d < 1,
    c < 1, any non-finite scalar, r != 0 in a full-statistics frame and
    r > min(n, d) in a QR frame.

Feature files ("FFUR")
    Little-endian header

        magic 4s = b"FFUR", version u16, n u32, d u32, c u32, dtype u8

    with dtype 4 = float32 / 8 = float64, followed by the n x d feature
    matrix row-major, then the n x c label matrix row-major.  The reader
    rejects a file holding any non-finite feature or label.
"""

from __future__ import annotations

import struct

import numpy as np

from .client import ClientMessage, QrPayload, VARIANT_FULL, VARIANT_QR
from .client import variant_a_payload_scalars, variant_b_payload_scalars
from .stats import SufficientStats

MESSAGE_MAGIC = b"FCUL"
FEATURE_MAGIC = b"FFUR"
WIRE_VERSION = 1

_FRAME_HEADER = struct.Struct("<4sHBBIIIII")
_FEATURE_HEADER = struct.Struct("<4sHIIIB")

_PRECISION_CODE = {"f32": 4, "f64": 8}
_CODE_PRECISION = {v: k for k, v in _PRECISION_CODE.items()}
_CODE_DTYPE = {4: np.dtype("<f4"), 8: np.dtype("<f8")}
_VARIANT_CODE = {VARIANT_FULL: 0, VARIANT_QR: 1}
_CODE_VARIANT = {v: k for k, v in _VARIANT_CODE.items()}


class WireError(Exception):
    """Malformed or truncated binary frame."""


def pack_symmetric(s: np.ndarray) -> np.ndarray:
    """Upper triangle of a symmetric matrix, row-major."""
    d = s.shape[0]
    return s[np.triu_indices(d)]


def unpack_symmetric(packed: np.ndarray, d: int) -> np.ndarray:
    """The symmetric matrix whose upper triangle is `packed`, each entry copied, never summed."""
    m = np.empty((d, d), dtype=packed.dtype)
    rows, cols = np.triu_indices(d)
    m[rows, cols] = m[cols, rows] = packed
    return m


def _max_count(dtype: np.dtype) -> int:
    # every integer up to 2^(mantissa bits + 1) is exact in the float type
    return 2 ** (np.finfo(dtype).nmant + 1)


def _encode_frame(payload, variant: str, precision: str, round_index: int, client_id: int) -> bytes:
    dtype = _CODE_DTYPE[_PRECISION_CODE[precision]]
    max_count = _max_count(dtype)
    if payload.n > max_count:
        raise WireError(f"sample count {payload.n} above {max_count} is not exact in a {precision} frame")
    if isinstance(payload, SufficientStats):
        r = 0
        body = [pack_symmetric(payload.S), payload.G.reshape(-1)]
    elif isinstance(payload, QrPayload):
        r = payload.R.shape[0]
        body = [payload.R.reshape(-1), payload.G.reshape(-1)]
    else:
        raise WireError(f"unsupported payload type {type(payload).__name__}")
    header = _FRAME_HEADER.pack(
        MESSAGE_MAGIC,
        WIRE_VERSION,
        _VARIANT_CODE[variant],
        _PRECISION_CODE[precision],
        round_index,
        client_id,
        payload.d,
        payload.c,
        r,
    )
    scalars = np.concatenate([np.concatenate(body), np.array([payload.n])]).astype(dtype)
    return header + scalars.tobytes()


def _decode_frame(buf: bytes, offset: int):
    end = offset + _FRAME_HEADER.size
    if len(buf) < end:
        raise WireError("truncated frame header")
    magic, version, variant_code, prec_code, round_index, client_id, d, c, r = _FRAME_HEADER.unpack(
        buf[offset:end]
    )
    if magic != MESSAGE_MAGIC:
        raise WireError(f"bad magic {magic!r}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported version {version}")
    if prec_code not in _CODE_DTYPE or variant_code not in _CODE_VARIANT:
        raise WireError("bad precision or variant code")
    dtype = _CODE_DTYPE[prec_code]
    variant = _CODE_VARIANT[variant_code]
    if d < 1 or c < 1:
        raise WireError(f"implausible dimensions d={d}, c={c}")
    max_rows = 0 if variant == VARIANT_FULL else d
    if r > max_rows:
        raise WireError(f"r={r} R-factor rows; a variant {variant} frame at d={d} has at most {max_rows}")
    if variant == VARIANT_FULL:
        count = variant_a_payload_scalars(d, c)
    else:
        count = variant_b_payload_scalars(r, d, c)
    nbytes = count * dtype.itemsize
    if len(buf) < end + nbytes:
        raise WireError("truncated frame payload")
    scalars = np.frombuffer(buf, dtype=dtype, count=count, offset=end)
    if not np.isfinite(scalars).all():
        raise WireError("non-finite payload scalar")
    n = float(scalars[-1])
    if not (0 <= n <= _max_count(dtype) and n.is_integer()):
        raise WireError(f"bad sample count {n!r}")
    n = int(n)
    if r > n:
        raise WireError(f"{r} R-factor rows from {n} samples")
    if variant == VARIANT_FULL:
        tri = d * (d + 1) // 2
        payload = SufficientStats(
            unpack_symmetric(scalars[:tri].copy(), d),
            scalars[tri : tri + d * c].reshape(d, c).copy(),
            n,
        )
    else:
        payload = QrPayload(
            scalars[: r * d].reshape(r, d).copy(),
            scalars[r * d : r * d + d * c].reshape(d, c).copy(),
            n,
        )
    meta = (variant, _CODE_PRECISION[prec_code], round_index, client_id)
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
    variant, precision, round_index, client_id = meta_add
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
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, WIRE_VERSION, n, d, c, _PRECISION_CODE[precision])
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
    if version != WIRE_VERSION:
        raise WireError(f"unsupported version {version}")
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
