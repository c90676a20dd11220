"""Binary frame and feature-file formats."""

import dataclasses
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedridge.client import (
    ClientStore, MixedPrecision, PackedStats, VARIANT_FULL, VARIANT_QR, empty_payload, payload_scalars,
)
from fedridge.kernels import packed_gram, rel_frobenius_dev, unpack_symmetric, upper_mask
from fedridge.stats import dtype_of
from fedridge.wire import (
    MAX_COUNT,
    WireError,
    decode_message,
    encode_message,
    pack_upper,
    read_feature_file,
    unpack_upper,
    write_feature_file,
)


def _message(variant, d=3, c=2, n_add=4, n_del=2, precision="f64"):
    rng = np.random.default_rng(0)
    store = ClientStore(9, rng.standard_normal((102, d)), rng.standard_normal((102, c)), precision)
    store.make_round_message(1, range(n_add), [], variant)
    return store.make_round_message(5, [100, 101], range(n_del), variant)


def test_pack_unpack_symmetric():
    rng = np.random.default_rng(1)
    for d in (1, 5):
        m = rng.standard_normal((d, d))
        s = (m + m.T) / 2
        packed = pack_upper(s)
        assert packed.shape == (d * (d + 1) // 2,)
        np.testing.assert_array_equal(packed, s[np.triu_indices(d)])
        assert unpack_symmetric(packed, d).tobytes() == s.tobytes()
    # an R factor's trapezoid, r < d and r = d, and S share one cached mask per d
    for r, d in ((0, 5), (2, 5), (5, 5), (1, 1), (0, 1)):
        rf = np.triu(rng.standard_normal((r, d)))
        packed = pack_upper(rf)
        assert packed.shape == (r * d - r * (r - 1) // 2,)
        np.testing.assert_array_equal(packed, rf[np.triu_indices(r, m=d)])
        got = unpack_upper(packed, r, d)
        assert got.shape == (r, d) and got.tobytes() == rf.tobytes()
    assert upper_mask(5) is upper_mask(5) and not upper_mask(5).flags.writeable


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize(
    "d, k", [(d, k) for d in (1, 2, 64, 65, 256) for k in sorted({1, 2, d // 2, d, 3 * d} - {0})]
)
def test_packed_gram_is_the_gram_and_its_frame_round_trips_bitwise(d, k, precision):
    # both sides of the general/symmetric product rule, at even and odd d
    dtype = np.dtype(np.float32 if precision == "f32" else np.float64)
    rng = np.random.default_rng(d * 1000 + k)
    f = rng.standard_normal((k, d)).astype(dtype)
    packed = packed_gram(f)
    assert packed.dtype == dtype and packed.shape == (d * (d + 1) // 2,)
    s = unpack_symmetric(packed, d)
    assert np.array_equal(s, s.T)
    # each entry is a k-term dot product: |error| <= γ_k |F|ᵀ|F| with γ_k = k u / (1 - k u)
    # (Higham, Accuracy and Stability, 2nd ed., eq. 3.5); the float64 reference adds at most as much
    u = np.finfo(dtype).eps / 2
    f64 = f.astype(np.float64)
    bound = 2 * (k * u / (1 - k * u)) * (np.abs(f64).T @ np.abs(f64))
    assert (np.abs(s - f64.T @ f64) <= bound).all()
    g = rng.standard_normal((d, 3)).astype(dtype)
    msg = dataclasses.replace(
        _message(VARIANT_FULL, d=d, c=3, precision=precision),
        add=PackedStats(packed, g, k),
        delete=empty_payload(VARIANT_FULL, d, 3, dtype),
    )
    buf = encode_message(msg, precision)
    # the add frame, then the header-only delete frame
    assert len(buf) == 28 + dtype.itemsize * (d * (d + 1) // 2 + d * 3) + 28
    decoded, _, _ = decode_message(buf)
    assert decoded.add.S.tobytes() == packed.tobytes() and decoded.add.G.tobytes() == g.tobytes()


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
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_sample_count_is_carried_exactly_up_to_the_header_limit(variant, precision):
    # n is the header's u32, so both precisions carry 2^32 - 1, beyond float32's 2^24
    assert MAX_COUNT == 2**32 - 1
    msg = _message(variant, d=2, precision=precision)  # two added samples: R has its min(n, d) = 2 rows
    at_limit = dataclasses.replace(msg, add=dataclasses.replace(msg.add, n=MAX_COUNT))
    buf = encode_message(at_limit, precision)
    assert struct.unpack_from("<I", buf, 24)[0] == MAX_COUNT
    decoded, _, _ = decode_message(buf)
    assert decoded.add.n == MAX_COUNT and isinstance(decoded.add.n, int)
    past = dataclasses.replace(msg, delete=dataclasses.replace(msg.delete, n=MAX_COUNT + 1))
    with pytest.raises(WireError, match=r"not an integer in \[0, 2\^32\)"):
        encode_message(past, precision)


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
    magic, version, variant, prec, rnd, client, d, c, n = struct.unpack_from("<4sHBBIIIII", buf, 0)
    assert magic == b"FCUL"
    assert version == 3
    assert variant == 1  # QR frames
    assert prec == 8
    assert rnd == 5 and client == 9 and d == 3 and c == 2
    assert n == msg.add.n == 2
    # the header's n fixes the payload: the upper trapezoid of r = min(n, d) rows, then r x c Z
    r = min(n, d)
    first_frame_bytes = 28 + (r * d - r * (r - 1) // 2 + r * c) * 8
    magic2 = buf[first_frame_bytes : first_frame_bytes + 4]
    assert magic2 == b"FCUL"


def test_little_endian_on_wire():
    store = ClientStore(0, np.array([[2.0]]), np.array([[0.0]]), "f64")
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
    msg = _message(VARIANT_FULL, precision=precision)  # in the case's precision, so only the count is wrong
    bad = dataclasses.replace(msg, add=dataclasses.replace(msg.add, n=count))
    with pytest.raises(WireError):
        decode_message(encode_message(bad, precision))


def test_stats_frame_with_a_diagonal_near_the_float32_limit_round_trips_bitwise():
    # 3e38 is finite in float32, but mirroring S by S + Sᵀ and halving the diagonal overflowed it
    msg = _message(VARIANT_FULL, precision="f32")
    s = unpack_symmetric(msg.add.S, 3)
    np.fill_diagonal(s, 3e38)
    packed = s[upper_mask(3)]
    decoded, _, _ = decode_message(
        encode_message(dataclasses.replace(msg, add=dataclasses.replace(msg.add, S=packed)), "f32")
    )
    assert decoded.add.S.dtype == s.dtype and decoded.add.S.tobytes() == packed.tobytes()
    assert unpack_symmetric(decoded.add.S, 3).tobytes() == s.tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant, field", [(VARIANT_QR, "G"), (VARIANT_QR, "R"), (VARIANT_FULL, "S"), (VARIANT_FULL, "G")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_decode_rejects_a_non_finite_payload_scalar(precision, variant, field, value):
    msg = _message(variant, precision=precision)
    # a B frame carries its label moment G as Z = QᵀY
    field = "Z" if (variant, field) == (VARIANT_QR, "G") else field
    part = getattr(msg.delete, field).copy()
    part.flat[part.shape[-1] - 1] = value  # the last entry of R's or G's first row, or of packed S
    bad = dataclasses.replace(msg, delete=dataclasses.replace(msg.delete, **{field: part}))
    with pytest.raises(WireError, match="non-finite"):
        decode_message(encode_message(bad, precision))


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
@pytest.mark.parametrize("precision, other", [("f32", "f64"), ("f64", "f32")])
def test_encode_refuses_a_precision_other_than_the_messages(variant, precision, other):
    # a cast would send other scalars than the client formed
    msg = _message(variant, precision=precision)
    with pytest.raises(WireError, match=f"cannot be encoded as {other}"):
        encode_message(msg, other)
    # a payload whose two matrices differ in precision has no precision to encode in
    moment = "G" if variant == VARIANT_FULL else "Z"
    for side in ("add", "delete"):
        payload = getattr(msg, side)
        mixed = dataclasses.replace(payload, **{moment: getattr(payload, moment).astype(dtype_of(other))})
        with pytest.raises(MixedPrecision):
            encode_message(dataclasses.replace(msg, **{side: mixed}), precision)


def test_encode_refuses_a_payload_of_the_other_variant():
    msg = _message(VARIANT_QR, d=3)
    bad = dataclasses.replace(msg, add=_message(VARIANT_FULL, d=3).add)
    with pytest.raises(WireError, match="cannot carry"):
        encode_message(bad, "f64")


VALID_MESSAGES = [
    encode_message(_message(variant, n_del=n_del, precision=precision), precision)
    for variant in (VARIANT_FULL, VARIANT_QR)
    for precision in ("f32", "f64")
    for n_del in (2, 0)  # with n_del = 0 the delete frame is the header alone
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
        # what the frame holds: S and G, or R and Z
        matrix, labels = (payload.S, payload.G) if msg.variant == VARIANT_FULL else (payload.R, payload.Z)
        assert np.isfinite(matrix).all() and np.isfinite(labels).all()
        assert isinstance(payload.n, int) and payload.n >= 0


def _frame(variant_code, d, c, r, n, version=3):
    """One float64 frame with an arbitrary header and a zero payload: S then G, or an R factor and Z of r rows.

    A frame of n = 0 samples is the header alone.
    """
    header = struct.pack("<4sHBBIIIII", b"FCUL", version, variant_code, 8, 1, 0, d, c, n)
    if n == 0:
        return header
    scalars = d * (d + 1) // 2 + d * c if variant_code == 0 else r * d - r * (r - 1) // 2 + r * c
    return header + np.zeros(scalars).tobytes()


@pytest.mark.parametrize(
    "variant_code, d, c, r, n",
    [
        (0, 0, 1, 0, 0),
        (1, 0, 1, 0, 0),
        (0, 2, 0, 0, 0),
        (1, 2, 0, 0, 0),
        # a header-only frame would decode to zeros of any declared size
        (0, 2**13 + 1, 1, 0, 0),
        (1, 2, 2**13 + 1, 0, 0),
        (0, 2**32 - 1, 2**32 - 1, 0, 0),
    ],
)
def test_decode_rejects_implausible_header(variant_code, d, c, r, n):
    frame = _frame(variant_code, d, c, r, n)
    with pytest.raises(WireError, match="implausible dimensions"):
        decode_message(frame + frame)


@pytest.mark.parametrize("variant_code, r, n", [(0, 0, 3), (1, 1, 1), (1, 2, 5), (1, 0, 0)])
def test_decode_accepts_plausible_header(variant_code, r, n):
    # r is the R factor's row count, min(n, d) at d = 2, which the decoder reads off n
    frame = _frame(variant_code, 2, 1, r, n)
    decoded, _, end = decode_message(frame + frame)
    assert end == 2 * len(frame) and decoded.add.n == n
    if variant_code == 1:
        assert decoded.add.R.shape == (r, 2)


@pytest.mark.parametrize("other_d, other_c", [(3, 1), (2, 2)])
def test_decode_refuses_a_frame_pair_whose_dimensions_differ(other_d, other_c):
    with pytest.raises(WireError, match="frame pair mismatch"):
        decode_message(_frame(0, 2, 1, 0, 3) + _frame(0, other_d, other_c, 0, 0))


def test_decode_refuses_other_frame_versions():
    # version 1 (r in the header, the count as a trailing float) and version 2 (a QR frame's
    # dense d x c G) are refused like any unknown version
    v1 = struct.pack("<4sHBBIIIII", b"FCUL", 1, 1, 8, 1, 0, 2, 1, 1) + np.zeros(2 + 2 + 1).tobytes()
    v2 = struct.pack("<4sHBBIIIII", b"FCUL", 2, 1, 8, 1, 0, 2, 1, 1) + np.zeros(2 + 2).tobytes()
    others = ((0, _frame(1, 2, 1, 1, 1, version=0)), (4, _frame(1, 2, 1, 1, 1, version=4)))
    for version, frame in ((1, v1), (2, v2), *others):
        with pytest.raises(WireError, match=f"version {version}"):
            decode_message(frame + frame)


@pytest.mark.parametrize(
    "variant, changes, match",
    [
        pytest.param(VARIANT_FULL, {"n": 2.0}, "not an integer", id="A-float-n"),
        pytest.param(VARIANT_QR, {"n": True}, "not an integer", id="B-bool-n"),
        pytest.param(VARIANT_FULL, {"n": -1}, "not an integer", id="A-negative-n"),
        pytest.param(VARIANT_FULL, {"n": 2**32}, "not an integer", id="A-n-past-u32"),
        pytest.param(VARIANT_FULL, {"n": 0}, "zero-sample", id="A-zero-n-nonzero-S-and-G"),
        pytest.param(VARIANT_FULL, {"n": 0, "G": np.zeros((3, 2))}, "zero-sample", id="A-zero-n-nonzero-S"),
        pytest.param(VARIANT_QR, {"n": 0, "R": np.zeros((0, 3))}, "zero-sample", id="B-zero-n-nonzero-G"),
        pytest.param(VARIANT_QR, {"n": 3}, "rows", id="B-too-few-rows"),  # 3 samples at d = 3 need 3 rows
        pytest.param(VARIANT_QR, {"n": 1}, "rows", id="B-too-many-rows"),
        pytest.param(VARIANT_QR, {"R": np.ones((2, 3))}, "below its diagonal", id="B-below-diagonal"),
        pytest.param(VARIANT_FULL, {"G": np.broadcast_to(0.0, (2**13 + 1, 2))}, "above", id="A-d-past-max"),
        pytest.param(VARIANT_FULL, {"S": np.zeros((3, 3))}, r"d\(d\+1\)/2", id="A-S-not-packed"),
    ],
)
def test_encode_refuses_what_a_frame_cannot_carry_exactly(variant, changes, match):
    msg = _message(variant, d=3)  # its add payload holds two samples
    bad = dataclasses.replace(msg, add=dataclasses.replace(msg.add, **changes))
    with pytest.raises(WireError, match=match):
        encode_message(bad, "f64")


def test_empty_payload_round_trip():
    store = ClientStore(3, np.zeros((0, 4)), np.zeros((0, 2)), "f64")
    msg = store.make_round_message(2, [], [], VARIANT_QR)
    decoded, _, _ = decode_message(encode_message(msg, "f64"))
    assert decoded.add.R.shape == (0, 4)
    assert decoded.add.n == 0


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_empty_stats_payload_is_read_only_zero_and_round_trips(precision):
    from fedridge.coordinator import account_round

    d, c = 6, 3
    msg = ClientStore(2, np.zeros((0, d)), np.zeros((0, c)), precision).make_round_message(1, [], [], VARIANT_FULL)
    for payload in (msg.add, msg.delete):
        assert payload.S.shape == (d * (d + 1) // 2,) and payload.G.shape == (d, c) and payload.n == 0
        assert not payload.S.any() and not payload.G.any()
        assert not payload.S.flags.writeable and not payload.G.flags.writeable
    buf = encode_message(msg, precision)
    assert len(buf) == 2 * 28 + account_round([msg], precision).total_bytes
    decoded, prec, end = decode_message(buf)
    assert (prec, end) == (precision, len(buf))
    for got in (decoded.add, decoded.delete):
        assert np.array_equal(got.S, np.zeros(d * (d + 1) // 2)) and np.array_equal(got.G, np.zeros((d, c)))
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
    # read-only, so client stores can share the rows without copying them
    assert not f2.flags.writeable and not y2.flags.writeable
    np.testing.assert_allclose(f2, f, rtol=0 if precision == "f32" else 1e-16)
    np.testing.assert_allclose(y2, y, rtol=0)
    raw = path.read_bytes()
    assert raw[:4] == b"FFUR"
    _, version, n, d, c, dtype_code = struct.unpack_from("<4sHIIIB", raw, 0)
    assert (version, n, d, c) == (1, 20, 6, 3)
    assert dtype_code == (4 if precision == "f32" else 8)


def test_hand_packed_version_1_feature_file_reads(tmp_path):
    # feature files keep their own version 1 whatever the message-frame version is
    f = np.arange(6, dtype="<f8").reshape(3, 2)
    y = np.eye(3, 2, dtype="<f8")
    path = tmp_path / "v1.bin"
    path.write_bytes(struct.pack("<4sHIIIB", b"FFUR", 1, 3, 2, 2, 8) + f.tobytes() + y.tobytes())
    f2, y2, prec = read_feature_file(path)
    assert prec == "f64" and f2.tobytes() == f.tobytes() and y2.tobytes() == y.tobytes()
    path.write_bytes(struct.pack("<4sHIIIB", b"FFUR", 2, 3, 2, 2, 8) + f.tobytes() + y.tobytes())
    with pytest.raises(WireError, match="version 2"):
        read_feature_file(path)


_FEATURE_HEADER = "<4sHIIIB"


def _tobytes_write(path, f, y, precision):
    """The writer before in-place writes: the header, then a bytes copy of each matrix."""
    dtype = np.dtype("<f4" if precision == "f32" else "<f8")
    n, d = f.shape
    header = struct.pack(_FEATURE_HEADER, b"FFUR", 1, n, d, y.shape[1], dtype.itemsize)
    path.write_bytes(header + f.astype(dtype).tobytes() + y.astype(dtype).tobytes())


def _frombuffer_read(path):
    """The reader before in-place reads: the whole file as bytes, then a copy of each matrix."""
    buf = path.read_bytes()
    _, _, n, d, c, code = struct.unpack_from(_FEATURE_HEADER, buf, 0)
    dtype = np.dtype("<f4" if code == 4 else "<f8")
    start = struct.calcsize(_FEATURE_HEADER)
    features = np.frombuffer(buf, dtype=dtype, count=n * d, offset=start).reshape(n, d).copy()
    labels = np.frombuffer(buf, dtype=dtype, count=n * c, offset=start + n * d * dtype.itemsize)
    return features, labels.reshape(n, c).copy()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("n, d, c", [(0, 1, 2), (1, 1, 2), (37, 5, 3), (300, 64, 10)])
def test_feature_file_writes_and_reads_in_place_bitwise_as_before(tmp_path, precision, n, d, c):
    rng = np.random.default_rng(n + d)
    f = rng.standard_normal((n, d)).astype(np.float32)
    y = np.eye(n, c, dtype=np.float32)
    old, new = tmp_path / "old.bin", tmp_path / "new.bin"
    _tobytes_write(old, f, y, precision)
    write_feature_file(new, f, y, precision)
    assert new.read_bytes() == old.read_bytes()
    f_old, y_old = _frombuffer_read(old)
    f_new, y_new, prec = read_feature_file(new)
    assert prec == precision
    assert f_new.dtype == f_old.dtype and f_new.shape == f_old.shape and f_new.tobytes() == f_old.tobytes()
    assert y_new.dtype == y_old.dtype and y_new.shape == y_old.shape and y_new.tobytes() == y_old.tobytes()
    for array in (f_new, y_new):
        # read-only arrays that own their rows, so run_scenario's client stores share them as they are
        assert not array.flags.writeable and array.flags.owndata and array.base is None


def _feature_file_bytes(n, d, c, body):
    return struct.pack(_FEATURE_HEADER, b"FFUR", 1, n, d, c, 8) + body


_F = np.arange(15, dtype="<f8").reshape(5, 3)
_Y = np.eye(5, 2, dtype="<f8")
_MISSIZED_FEATURE_FILES = {
    "four-trailing-bytes": (_feature_file_bytes(5, 3, 2, _F.tobytes() + _Y.tobytes() + b"\0" * 4), "overlong"),
    # one feature row too many would shift where the labels are read from
    "an-extra-feature-row": (_feature_file_bytes(5, 3, 2, _F.tobytes() + _F[:1].tobytes() + _Y.tobytes()), "overlong"),
    "d-of-0": (_feature_file_bytes(5, 0, 2, _Y.tobytes()), "d=0"),
    "c-of-0": (_feature_file_bytes(5, 3, 0, _F.tobytes()), "c=0"),
    # a body of about 2^67 bytes is refused from the file's size, before anything is allocated for it
    "n-and-d-at-the-u32-limit": (_feature_file_bytes(MAX_COUNT, MAX_COUNT, 2, _F.tobytes()), "truncated"),
}


@pytest.mark.parametrize("case", list(_MISSIZED_FEATURE_FILES))
def test_feature_file_body_must_be_exactly_its_declared_size(tmp_path, case):
    raw, message = _MISSIZED_FEATURE_FILES[case]
    path = tmp_path / "features.bin"
    path.write_bytes(raw)
    with pytest.raises(WireError, match=message):
        read_feature_file(path)


def test_feature_file_read_allocates_its_arrays_and_little_more(tmp_path):
    # reading the file into bytes and copying each matrix out of them held the body twice
    rng = np.random.default_rng(6)
    path = tmp_path / "features.bin"
    write_feature_file(path, rng.standard_normal((4000, 256)), np.eye(4000, 10), "f32")
    tracemalloc.start()
    try:
        f, y, _ = read_feature_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond the arrays, the finiteness check's mask: a byte per float32 feature
    output = f.nbytes + y.nbytes
    assert peak <= 1.5 * output, (peak, output)


def test_round_driven_through_wire_bytes():
    # encode every client message, decode from the byte stream, and the
    # decoded round must advance a server identically to the in-memory one
    from fedridge.coordinator import Server

    rng = np.random.default_rng(4)
    d, c = 5, 2
    features, labels = rng.standard_normal((30, d)), rng.standard_normal((30, c))
    messages = []
    for k in range(3):
        ids = list(range(10 * k, 10 * k + 6))
        messages.append(ClientStore(k, features, labels, "f64").make_round_message(1, ids, [], VARIANT_FULL))
    stream = b"".join(encode_message(m, "f64") for m in messages)
    decoded = []
    offset = 0
    while offset < len(stream):
        msg, prec, offset = decode_message(stream, offset)
        assert prec == "f64"
        decoded.append(msg)
    w_direct, _, _ = Server("A", d, c, 1.0).serve(messages)
    w_wire, _, _ = Server("A", d, c, 1.0).serve(decoded)
    np.testing.assert_array_equal(w_wire, w_direct)


def test_feature_file_truncation_detected(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "features.bin"
    write_feature_file(path, rng.standard_normal((5, 2)), rng.standard_normal((5, 2)), "f64")
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(WireError):
        read_feature_file(path)


def _replayed_messages(monkeypatch, schedule_kind, variant, precision):
    """Every client message the servers fold while a small scenario replays."""
    import fedridge.coordinator as coordinator_mod
    from fedridge.simulate import (
        Scenario, dirichlet_partition, gen_synthetic, initial_round, run_scenario,
        schedule_addback, schedule_burst, schedule_churn,
    )

    d = 6
    data = gen_synthetic(16, 300, d, 3, 2.0)
    parts = dirichlet_partition(16, data.classes[: data.n_train], 5, 0.5)
    if schedule_kind == "churn":
        schedule = schedule_churn(16, parts, rounds=4, adds_per_round=5, deletes_per_round=5)
    else:
        burst = schedule_burst(16, parts, 3)
        schedule = [initial_round(parts)] + burst + schedule_addback(burst)
    scenario = Scenario(
        seed=16, d=d, c=3, clients=len(parts), n=300, n_train=data.n_train, gamma=1.0,
        precision=precision, variant=variant, partition={"kind": "dirichlet", "alpha": 0.5},
        schedule=schedule, rank=2, reset_every=3,
    )
    folded = []
    real = coordinator_mod.aggregate

    def recording(messages, fold):
        folded.extend(messages)
        return real(messages, fold)

    monkeypatch.setattr(coordinator_mod, "aggregate", recording)
    run_scenario(scenario, data.features, data.labels)
    return folded, d


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("variant", ["both", "approx"])
@pytest.mark.parametrize("schedule_kind", ["churn", "burst-addback"])
def test_accounting_equals_the_frames_of_every_replayed_message(monkeypatch, schedule_kind, variant, precision):
    from fedridge.client import variant_a_payload_scalars, variant_b_payload_scalars
    from fedridge.coordinator import account_round

    messages, d = _replayed_messages(monkeypatch, schedule_kind, variant, precision)
    sides_seen = set()
    for msg in messages:
        buf = encode_message(msg, precision)
        assert len(buf) == 2 * 28 + account_round([msg], precision).total_bytes
        decoded, got_precision, end = decode_message(buf)
        assert (got_precision, end) == (precision, len(buf))
        assert (decoded.client_id, decoded.round, decoded.variant) == (msg.client_id, msg.round, msg.variant)
        for sent, got in ((msg.add, decoded.add), (msg.delete, decoded.delete)):
            assert type(got) is type(sent) and got.n == sent.n
            matrix = "S" if msg.variant == VARIANT_FULL else "R"
            assert _same_bits(getattr(got, matrix), getattr(sent, matrix)) and _same_bits(got.G, sent.G)
            c = sent.c
            if sent.n == 0:
                sides_seen.add("empty")
                assert payload_scalars(sent) == 0
            elif msg.variant == VARIANT_QR:
                sides_seen.add("B, n >= d" if sent.n >= d else "B, n < d")
                b, a = variant_b_payload_scalars(sent.n, d, c), variant_a_payload_scalars(sent.n, d, c)
                assert payload_scalars(sent) == b
                assert b < a if sent.n < d else b == a
    # the replay exercised header-only sides and R factors below and at full rank
    assert sides_seen == {"empty", "B, n < d", "B, n >= d"}


@pytest.mark.parametrize("d, c", [(1, 1), (4, 2), (64, 10), (256, 10)])
def test_b_payload_never_costs_more_than_a(d, c):
    from fedridge.client import variant_a_payload_scalars, variant_b_payload_scalars

    assert variant_a_payload_scalars(0, d, c) == variant_b_payload_scalars(0, d, c) == 0
    for n in range(1, 2 * d + 2):
        b, a = variant_b_payload_scalars(n, d, c), variant_a_payload_scalars(n, d, c)
        assert b < a if n < d else b == a


def _qr_batch(n, d, c, kind, dtype):
    """n rows of F and Y; `kind` makes F full rank, or rank-deficient by a zero or a repeated row."""
    rng = np.random.default_rng(n * 100 + d)
    f, y = rng.standard_normal((n, d)), rng.standard_normal((n, c))
    if kind == "zero-row":
        f[n // 2] = 0.0
    elif kind == "repeated-row":
        f[-1] = f[0]
    return f.astype(dtype), y.astype(dtype)


@pytest.mark.parametrize("precision, tol", [("f32", 1e-5), ("f64", 1e-12)], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", ["full-rank", "zero-row", "repeated-row"])
@pytest.mark.parametrize(
    "n", [3, 6, 8, 9, 20], ids=["n<d", "n=d", "d<n<d+c", "n=d+c", "n>d+c"]
)
def test_qr_payload_carries_the_gram_and_moment_and_its_frame_round_trips_bitwise(n, kind, precision, tol):
    d, c = 6, 3
    dtype = np.dtype(np.float32 if precision == "f32" else np.float64)
    f, y = _qr_batch(n, d, c, kind, dtype)
    store = ClientStore(4, f, y, precision)
    store.make_round_message(1, range(n), [], VARIANT_QR)
    msg = store.make_round_message(2, [], range(n), VARIANT_QR)
    payload = msg.delete
    r, z = payload.R, payload.Z
    rows = min(n, d)
    assert r.shape == (rows, d) and z.shape == (rows, c) and r.dtype == z.dtype == dtype
    # the reference products in float64 of the batch as the client holds it
    f64, y64 = f.astype(np.float64), y.astype(np.float64)
    r64, z64 = r.astype(np.float64), z.astype(np.float64)
    assert rel_frobenius_dev(r64.T @ r64, f64.T @ f64) <= tol
    assert rel_frobenius_dev(r64.T @ z64, f64.T @ y64) <= tol
    assert rel_frobenius_dev(payload.G, f64.T @ y64) <= tol and not payload.G.flags.writeable
    # upper trapezoidal with +0.0 below the diagonal, and a non-negative diagonal
    below = ~upper_mask(d)[:rows]
    assert not r[below].any() and not np.signbit(r[below]).any()
    assert (np.diagonal(r) >= 0).all()
    assert payload_scalars(payload) == rows * d - rows * (rows - 1) // 2 + rows * c
    buf = encode_message(msg, precision)
    assert len(buf) == 2 * 28 + dtype.itemsize * payload_scalars(payload)
    decoded, _, end = decode_message(buf)
    assert end == len(buf) and decoded.delete.n == n
    for sent, got in ((r, decoded.delete.R), (z, decoded.delete.Z), (payload.G, decoded.delete.G)):
        assert got.dtype == sent.dtype and got.shape == sent.shape and got.tobytes() == sent.tobytes()
    # the same bytes under the previous frame version are refused
    old = bytearray(buf)
    struct.pack_into("<H", old, 4, 2)
    with pytest.raises(WireError, match="version 2"):
        decode_message(bytes(old))
