"""Binary frame and feature-file formats."""

import dataclasses
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedridge.client import ClientStore, Sample, VARIANT_FULL, VARIANT_QR, payload_scalars
from fedridge.wire import (
    WireError,
    decode_message,
    encode_message,
    pack_symmetric,
    read_feature_file,
    unpack_symmetric,
    write_feature_file,
)


def _message(variant, d=3, c=2, n_add=4, n_del=2, precision="f64"):
    rng = np.random.default_rng(0)
    store = ClientStore(9, d, c, precision)
    store.ingest(Sample(i, rng.standard_normal(d), rng.standard_normal(c)) for i in range(n_add))
    store.make_round_message(1, list(range(n_add)), [], variant)
    store.ingest(Sample(100 + i, rng.standard_normal(d), rng.standard_normal(c)) for i in range(2))
    return store.make_round_message(5, [100, 101], list(range(n_del)), variant)


def test_pack_unpack_symmetric():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 5))
    s = (m + m.T) / 2
    packed = pack_symmetric(s)
    assert packed.shape == (15,)
    np.testing.assert_array_equal(unpack_symmetric(packed, 5), s)


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_message_round_trip(variant, precision):
    msg = _message(variant, precision=precision)
    buf = encode_message(msg, precision)
    decoded, prec, offset = decode_message(buf)
    assert offset == len(buf)
    assert prec == precision
    assert decoded.client_id == 9 and decoded.round == 5 and decoded.variant == variant
    # payload matrices already live at the wire precision, so the trip is exact
    if variant == VARIANT_FULL:
        np.testing.assert_array_equal(decoded.add.S, msg.add.S)
        np.testing.assert_array_equal(decoded.delete.S, msg.delete.S)
    else:
        np.testing.assert_array_equal(decoded.add.R, msg.add.R)
        np.testing.assert_array_equal(decoded.delete.R, msg.delete.R)
    np.testing.assert_array_equal(decoded.add.G, msg.add.G)
    assert decoded.add.n == msg.add.n and decoded.delete.n == msg.delete.n


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
@pytest.mark.parametrize("precision, limit", [("f32", 2**24), ("f64", 2**53)])
def test_sample_count_is_carried_exactly_up_to_the_precision_limit(variant, precision, limit):
    msg = _message(variant, precision=precision)
    at_limit = dataclasses.replace(msg, add=dataclasses.replace(msg.add, n=limit))
    decoded, _, _ = decode_message(encode_message(at_limit, precision))
    assert decoded.add.n == limit
    # limit + 1 would decode as limit
    past = dataclasses.replace(msg, delete=dataclasses.replace(msg.delete, n=limit + 1))
    with pytest.raises(WireError, match="not exact"):
        encode_message(past, precision)
    # a frame whose count is limit + 2, exact in the float type, is refused on decode too
    buf = bytearray(encode_message(at_limit, precision))
    dtype = np.dtype(np.float32 if precision == "f32" else np.float64)
    add_end = 28 + payload_scalars(at_limit.add) * dtype.itemsize  # the count ends the add frame
    buf[add_end - dtype.itemsize : add_end] = np.array([limit + 2], dtype=dtype).tobytes()
    with pytest.raises(WireError, match="sample count"):
        decode_message(bytes(buf))


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_wide_stats_payload_round_trips_bitwise(precision):
    # frames carry only the upper triangle of S, so S must be exactly symmetric
    msg = _message(VARIANT_FULL, d=256, c=4, n_add=100, n_del=100, precision=precision)
    decoded, _, _ = decode_message(encode_message(msg, precision))
    for sent, got in ((msg.add, decoded.add), (msg.delete, decoded.delete)):
        assert np.array_equal(got.S, sent.S) and got.S.dtype == sent.S.dtype
        assert np.array_equal(got.G, sent.G)


def test_frame_header_layout():
    msg = _message(VARIANT_QR, d=3, c=2, precision="f64")
    buf = encode_message(msg, "f64")
    magic, version, variant, prec, rnd, client, d, c, r = struct.unpack_from("<4sHBBIIIII", buf, 0)
    assert magic == b"FCUL"
    assert version == 1
    assert variant == 1  # QR frames
    assert prec == 8
    assert rnd == 5 and client == 9 and d == 3 and c == 2
    assert r == msg.add.R.shape[0]
    # payload scalar count for the first frame matches its header
    first_frame_bytes = 28 + (r * d + d * c + 1) * 8
    magic2 = buf[first_frame_bytes : first_frame_bytes + 4]
    assert magic2 == b"FCUL"


def test_little_endian_on_wire():
    store = ClientStore(0, 1, 1, "f64")
    store.ingest([Sample(0, np.array([2.0]), np.array([0.0]))])
    msg = store.make_round_message(1, [0], [], VARIANT_FULL)
    buf = encode_message(msg, "f64")
    # first payload scalar of the add frame is S[0,0] = 4.0
    assert struct.unpack_from("<d", buf, 28)[0] == 4.0


def test_decode_rejects_garbage():
    with pytest.raises(WireError):
        decode_message(b"XXXX" + b"\x00" * 64)
    msg = _message(VARIANT_FULL)
    buf = encode_message(msg, "f64")
    with pytest.raises(WireError):
        decode_message(buf[: len(buf) // 2])


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("count", [float("nan"), -1.0, 2.5])
def test_decode_rejects_bad_sample_count(precision, count):
    msg = _message(VARIANT_FULL)
    bad = dataclasses.replace(msg, add=dataclasses.replace(msg.add, n=count))
    with pytest.raises(WireError):
        decode_message(encode_message(bad, precision))


def test_stats_frame_with_a_diagonal_near_the_float32_limit_round_trips_bitwise():
    # 3e38 is finite in float32, but mirroring S by S + Sᵀ and halving the diagonal overflowed it
    msg = _message(VARIANT_FULL, precision="f32")
    s = msg.add.S.copy()
    np.fill_diagonal(s, 3e38)
    decoded, _, _ = decode_message(encode_message(dataclasses.replace(msg, add=dataclasses.replace(msg.add, S=s)), "f32"))
    assert decoded.add.S.dtype == s.dtype and decoded.add.S.tobytes() == s.tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant, field", [(VARIANT_QR, "G"), (VARIANT_QR, "R"), (VARIANT_FULL, "S"), (VARIANT_FULL, "G")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_decode_rejects_a_non_finite_payload_scalar(precision, variant, field, value):
    msg = _message(variant, precision=precision)
    part = getattr(msg.delete, field).copy()
    part[0, -1] = value  # in S's upper triangle, which the frame carries
    bad = dataclasses.replace(msg, delete=dataclasses.replace(msg.delete, **{field: part}))
    with pytest.raises(WireError, match="non-finite"):
        decode_message(encode_message(bad, precision))


VALID_MESSAGES = [
    encode_message(_message(variant, precision=precision), precision)
    for variant in (VARIANT_FULL, VARIANT_QR)
    for precision in ("f32", "f64")
]

# a write lands anywhere, or in the first frame's header; it is random bytes or one non-finite scalar
NON_FINITE_BYTES = [np.array([x], dtype=t).tobytes() for x in (np.nan, np.inf, -np.inf) for t in ("<f4", "<f8")]
WRITES = st.tuples(
    st.one_of(st.integers(0, 63), st.integers(min_value=0)),
    st.one_of(st.binary(min_size=1, max_size=8), st.sampled_from(NON_FINITE_BYTES)),
)


@settings(max_examples=500)
@given(
    buf=st.sampled_from(VALID_MESSAGES),
    writes=st.lists(WRITES, max_size=4),
    keep=st.one_of(st.none(), st.integers(min_value=0)),
    tail=st.binary(max_size=48),
)
def test_decode_of_mutated_frames_gives_finite_payloads_or_wire_error(buf, writes, keep, tail):
    # a frame pair with overwritten bytes, cut short or extended either decodes or raises WireError
    buf = bytearray(buf)
    for pos, run in writes:
        pos %= len(buf)
        buf[pos : pos + len(run)] = run[: len(buf) - pos]
    if keep is not None:
        del buf[keep % (len(buf) + 1) :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            msg, _, _ = decode_message(bytes(buf + tail))
        except WireError:
            return
    for payload in (msg.add, msg.delete):
        matrix = payload.S if msg.variant == VARIANT_FULL else payload.R
        assert np.isfinite(matrix).all() and np.isfinite(payload.G).all()
        assert isinstance(payload.n, int) and payload.n >= 0


def _frame(variant_code, d, c, r, n):
    """One float64 frame with an arbitrary header and a zero payload of the declared size."""
    header = struct.pack("<4sHBBIIIII", b"FCUL", 1, variant_code, 8, 1, 0, d, c, r)
    rows = d * (d + 1) // 2 if variant_code == 0 else r * d
    return header + np.zeros(rows + d * c).tobytes() + np.array([float(n)]).tobytes()


@pytest.mark.parametrize(
    "variant_code, d, c, r, n",
    [
        (0, 2, 1, 5, 3),  # a full-statistics frame declaring R-factor rows
        (1, 2, 1, 3, 1),  # QR rows beyond both d and n
        (1, 2, 1, 2, 1),  # QR rows beyond n
        (1, 2, 1, 3, 5),  # QR rows beyond d
        (0, 0, 1, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 2, 0, 0, 0),
        (1, 2, 0, 0, 0),
    ],
)
def test_decode_rejects_implausible_header(variant_code, d, c, r, n):
    frame = _frame(variant_code, d, c, r, n)
    with pytest.raises(WireError):
        decode_message(frame + frame)


@pytest.mark.parametrize("variant_code, r, n", [(0, 0, 3), (1, 1, 1), (1, 2, 5), (1, 0, 0)])
def test_decode_accepts_plausible_header(variant_code, r, n):
    frame = _frame(variant_code, 2, 1, r, n)
    decoded, _, end = decode_message(frame + frame)
    assert end == 2 * len(frame) and decoded.add.n == n


def test_empty_payload_round_trip():
    store = ClientStore(3, 4, 2, "f64")
    msg = store.make_round_message(2, [], [], VARIANT_QR)
    decoded, _, _ = decode_message(encode_message(msg, "f64"))
    assert decoded.add.R.shape == (0, 4)
    assert decoded.add.n == 0


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_empty_stats_payload_is_read_only_zero_and_round_trips(precision):
    from fedridge.coordinator import account_round

    d, c = 6, 3
    msg = ClientStore(2, d, c, precision).make_round_message(1, [], [], VARIANT_FULL)
    for payload in (msg.add, msg.delete):
        assert payload.S.shape == (d, d) and payload.G.shape == (d, c) and payload.n == 0
        assert not payload.S.any() and not payload.G.any()
        assert not payload.S.flags.writeable and not payload.G.flags.writeable
    buf = encode_message(msg, precision)
    assert len(buf) == 2 * 28 + account_round([msg], precision).total_bytes
    decoded, prec, end = decode_message(buf)
    assert (prec, end) == (precision, len(buf))
    for got in (decoded.add, decoded.delete):
        assert np.array_equal(got.S, np.zeros((d, d))) and np.array_equal(got.G, np.zeros((d, c)))
        assert got.n == 0


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_feature_file_round_trip(tmp_path, precision):
    rng = np.random.default_rng(2)
    f = rng.standard_normal((20, 6)).astype(np.float32)
    y = rng.standard_normal((20, 3)).astype(np.float32)
    path = tmp_path / "features.bin"
    write_feature_file(path, f, y, precision)
    f2, y2, prec = read_feature_file(path)
    assert prec == precision
    np.testing.assert_allclose(f2, f, rtol=0 if precision == "f32" else 1e-16)
    np.testing.assert_allclose(y2, y, rtol=0)
    raw = path.read_bytes()
    assert raw[:4] == b"FFUR"
    _, version, n, d, c, dtype_code = struct.unpack_from("<4sHIIIB", raw, 0)
    assert (version, n, d, c) == (1, 20, 6, 3)
    assert dtype_code == (4 if precision == "f32" else 8)


def test_round_driven_through_wire_bytes():
    # encode every client message, decode from the byte stream, and the
    # aggregate must advance the server identically to the in-memory path
    from fedridge.coordinator import aggregate, run_round_a
    from fedridge.stats import ledger_init

    rng = np.random.default_rng(4)
    d, c = 5, 2
    messages = []
    for k in range(3):
        store = ClientStore(k, d, c, "f64")
        ids = list(range(10 * k, 10 * k + 6))
        store.ingest(Sample(i, rng.standard_normal(d), rng.standard_normal(c)) for i in ids)
        messages.append(store.make_round_message(1, ids, [], VARIANT_FULL))
    stream = b"".join(encode_message(m, "f64") for m in messages)
    decoded = []
    offset = 0
    while offset < len(stream):
        msg, prec, offset = decode_message(stream, offset)
        assert prec == "f64"
        decoded.append(msg)
    _, w_direct = run_round_a(ledger_init(d, c), aggregate(messages))
    _, w_wire = run_round_a(ledger_init(d, c), aggregate(decoded))
    np.testing.assert_array_equal(w_wire, w_direct)


def test_feature_file_truncation_detected(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "features.bin"
    write_feature_file(path, rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), "f64")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(WireError):
        read_feature_file(path)
