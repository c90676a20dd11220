"""Client store, message formation and payload sizing."""

import dataclasses

import numpy as np
import pytest

from fedridge.client import (
    ClientStore,
    DuplicateId,
    PackedStats,
    QrPayload,
    UnknownDeleteId,
    VARIANT_FULL,
    VARIANT_QR,
    VARIANTS,
    payload_scalars,
    read_only,
    variant_a_payload_scalars,
    variant_b_payload_scalars,
)
from fedridge.kernels import DimensionMismatch, rel_frobenius_dev, unpack_symmetric
from fedridge.stats import SufficientStats


def _store(n=10, d=2, c=1, rng=None, client_id=0):
    """A store over n random rows of d features and c labels."""
    rng = rng or np.random.default_rng(0)
    return ClientStore(client_id, rng.standard_normal((n, d)), rng.standard_normal((n, c)))


def test_ingest_and_duplicate():
    store = _store()
    store.make_round_message(1, [1, 2], [], VARIANT_FULL)
    assert store.retained == {1, 2}
    with pytest.raises(DuplicateId, match="already retains id 2"):
        store.make_round_message(2, [3, 2], [], VARIANT_FULL)
    store.make_round_message(2, [], [], VARIANT_FULL)
    assert store.retained == {1, 2}


@pytest.mark.parametrize("sid", [-1, 10])
def test_ingest_refuses_an_id_outside_the_feature_matrix(sid):
    # a negative id would otherwise gather a row from the end
    store = _store()
    with pytest.raises(IndexError, match="not a row"):
        store.make_round_message(1, [sid], [], VARIANT_FULL)
    assert not store.retained


def test_a_repeated_delete_id_is_refused():
    # forming it would subtract the row from the ledger twice
    store = _store()
    store.make_round_message(1, [1, 3], [], VARIANT_FULL)
    with pytest.raises(UnknownDeleteId, match="delete an id twice"):
        store.make_round_message(2, [], [1, 1], VARIANT_FULL)
    assert store.retained == {1, 3}


@pytest.mark.parametrize(
    "add, delete, error",
    [
        pytest.param([2, 2], [], DuplicateId, id="repeated-add"),
        pytest.param([4, 1], [], DuplicateId, id="re-add"),
        pytest.param([4], [3, 5], UnknownDeleteId, id="not-retained-delete"),
        pytest.param([4], [1, 1], UnknownDeleteId, id="repeated-delete"),
    ],
)
def test_a_refused_message_leaves_the_store_unchanged(add, delete, error):
    store = _store()
    store.make_round_message(1, [1, 3], [], VARIANT_FULL)
    with pytest.raises(error):
        store.make_round_message(2, add, delete, VARIANT_FULL)
    assert store.retained == {1, 3}
    # the refused ids are still free to add, and the retained ones to delete
    msg = store.make_round_message(3, [2, 4], [1, 3], VARIANT_FULL)
    assert (msg.add.n, msg.delete.n, store.retained) == (2, 2, {2, 4})


def test_store_refuses_matrices_of_different_rows():
    with pytest.raises(DimensionMismatch):
        ClientStore(0, np.zeros((3, 2)), np.zeros((2, 1)))


def test_batch_a_payload_full_stats():
    store = ClientStore(0, np.eye(2), np.ones((2, 1)))
    msg = store.make_round_message(1, [0, 1], [], VARIANT_FULL)
    assert isinstance(msg.add, PackedStats)
    np.testing.assert_array_equal(msg.add.S, [1.0, 0.0, 1.0])  # the upper triangle of I, row by row
    np.testing.assert_array_equal(msg.add.G, [[1.0], [1.0]])
    assert msg.add.n == 2 and msg.delete.n == 0


def test_batch_a_payload_qr_variant():
    store = ClientStore(0, np.eye(2), np.ones((2, 1)))
    msg = store.make_round_message(1, [0, 1], [], VARIANT_QR)
    np.testing.assert_allclose(msg.add.R.T @ msg.add.R, np.eye(2), atol=1e-15)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_writes_to_the_caller_matrix_after_an_add_do_not_reach_the_delete(variant, precision):
    rng = np.random.default_rng(6)
    features, labels = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
    store = ClientStore(0, features, labels, precision)
    added = store.make_round_message(1, [1, 2], [], variant).add
    features[1:3] = 1e3
    labels[1:3] = -7.0
    deleted = store.make_round_message(2, [], [1, 2], variant).delete
    # the delete payload is bitwise the add payload, so it cancels it exactly
    matrix = "S" if variant == VARIANT_FULL else "R"
    assert getattr(deleted, matrix).tobytes() == getattr(added, matrix).tobytes()
    assert deleted.G.tobytes() == added.G.tobytes() and deleted.n == added.n == 2


def test_read_only_shares_only_a_read_only_matrix_that_owns_its_data():
    a = np.arange(6.0).reshape(3, 2)
    frozen = read_only(a)
    assert not frozen.flags.writeable and not np.shares_memory(frozen, a)
    assert read_only(frozen) is frozen
    # a read-only view of a writable array can still change, so it is copied
    view = a[1:]
    view.flags.writeable = False
    assert not np.shares_memory(read_only(view), a)
    assert ClientStore(0, frozen, read_only(a[:, :1])).features is frozen


def test_foreign_delete_id_rejected():
    store = _store()
    store.make_round_message(1, [1], [], VARIANT_FULL)
    with pytest.raises(UnknownDeleteId):
        store.make_round_message(2, [], [42], VARIANT_FULL)


def test_same_round_delete_of_pending_add_rejected():
    # an id is judged against what the store retains when the round starts
    store = _store()
    with pytest.raises(UnknownDeleteId):
        store.make_round_message(1, [1], [1], VARIANT_FULL)
    assert not store.retained


def test_delete_uses_cached_features_then_forgets():
    store = _store(n=7, d=3, c=2, rng=np.random.default_rng(1))
    store.make_round_message(1, [4, 5, 6], [], VARIANT_FULL)
    msg = store.make_round_message(2, [], [5], VARIANT_FULL)
    f5 = store.features[5]
    np.testing.assert_allclose(unpack_symmetric(msg.delete.S, 3), np.outer(f5, f5), rtol=1e-15)
    assert store.retained == {4, 6}
    with pytest.raises(UnknownDeleteId):
        store.make_round_message(3, [], [5], VARIANT_FULL)


def test_reingest_after_delete_is_allowed():
    store = _store()
    store.make_round_message(1, [1], [], VARIANT_FULL)
    store.make_round_message(2, [], [1], VARIANT_FULL)
    msg = store.make_round_message(3, [1], [], VARIANT_FULL)
    assert msg.add.n == 1


def test_payload_scalar_counts_follow_formulas():
    rng = np.random.default_rng(2)
    for d, c, n_add in [(4, 2, 3), (8, 1, 0), (5, 3, 9)]:
        store = _store(n=n_add, d=d, c=c, rng=rng)
        msg = store.make_round_message(1, list(range(n_add)), [], VARIANT_FULL)
        assert payload_scalars(msg.add) == variant_a_payload_scalars(n_add, d, c)
        assert payload_scalars(msg.add) == (d * (d + 1) // 2 + d * c if n_add else 0)
        assert payload_scalars(msg.delete) == variant_a_payload_scalars(0, d, c) == 0
        msg_b = ClientStore(1, store.features, store.labels).make_round_message(1, range(n_add), [], VARIANT_QR)
        r = min(n_add, d)
        assert msg_b.add.R.shape == (r, d)
        assert payload_scalars(msg_b.add) == variant_b_payload_scalars(n_add, d, c)
        assert payload_scalars(msg_b.add) == (r * d - r * (r - 1) // 2 + r * c if n_add else 0)
        assert payload_scalars(msg_b.delete) == variant_b_payload_scalars(0, d, c) == 0


def test_message_size_independent_of_retained_volume():
    rng = np.random.default_rng(3)
    small = _store(n=2, d=4, c=2, rng=rng)
    large = _store(n=500, d=4, c=2, rng=rng)
    m_small = small.make_round_message(1, [0, 1], [], VARIANT_FULL)
    m_large = large.make_round_message(1, list(range(500)), [], VARIANT_FULL)
    assert m_small.scalar_count == m_large.scalar_count


def test_empty_batch_keeps_uniform_qr_schema():
    store = _store(n=0, d=3)
    msg = store.make_round_message(1, [], [], VARIANT_QR)
    assert isinstance(msg.add, QrPayload)
    assert msg.add.R.shape == (0, 3)
    assert msg.add.n == 0


def test_payloads_carry_only_aggregates():
    # structural raw-data confinement: payload fields are aggregate
    # matrices plus a count, with shapes set by (d, c, r) alone
    assert {f.name for f in dataclasses.fields(SufficientStats)} == {"S", "G", "n"}
    assert {f.name for f in dataclasses.fields(PackedStats)} == {"S", "G", "n"}
    assert {f.name for f in dataclasses.fields(QrPayload)} == {"R", "Z", "n"}
    store = _store(n=40, d=6, c=2, rng=np.random.default_rng(4))
    msg = store.make_round_message(1, list(range(40)), [], VARIANT_QR)
    assert msg.add.R.shape == (6, 6)  # min(40, d) rows, never 40
    assert msg.add.Z.shape == (6, 2)
    assert msg.add.G.shape == (6, 2)


def test_variant_agreement_of_gram():
    store_a = _store(n=12, d=5, c=2, rng=np.random.default_rng(5))
    store_b = ClientStore(1, store_a.features, store_a.labels)
    ids = list(range(12))
    msg_a = store_a.make_round_message(1, ids, [], VARIANT_FULL)
    msg_b = store_b.make_round_message(1, ids, [], VARIANT_QR)
    assert rel_frobenius_dev(msg_b.add.R.T @ msg_b.add.R, unpack_symmetric(msg_a.add.S, 5)) <= 1e-12
    np.testing.assert_allclose(msg_b.add.G, msg_a.add.G, rtol=1e-15)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("bad", ["features", "labels"])
def test_a_non_finite_batch_is_refused_by_its_one_validation(monkeypatch, variant, bad):
    import fedridge.client as client_mod

    store = _store(n=6, d=4, c=2, rng=np.random.default_rng(6))
    rows = {"features": store.features.copy(), "labels": store.labels.copy()}
    rows[bad][3, 1] = np.nan
    store = ClientStore(0, rows["features"], rows["labels"])
    factored = []
    monkeypatch.setattr(client_mod, "thin_qr_rfactor", lambda *args: factored.append(args))
    # the batch check names the matrix, and the refusal comes before any QR of the rows
    with pytest.raises(ValueError, match=f"{'F' if bad == 'features' else 'Y'} contains non-finite entries"):
        store.make_round_message(1, [2, 3, 4], [], variant)
    assert not factored and store.retained == set()


def test_the_zeros_of_no_samples_are_shared_and_read_only():
    from fedridge.client import empty_payload
    from fedridge.kernels import read_only_zeros

    for dtype in (np.float32, np.float64):
        zero, again = SufficientStats.zero(5, 3, dtype), SufficientStats.zero(5, 3, dtype)
        payload, other = empty_payload(VARIANT_FULL, 5, 3, dtype), empty_payload(VARIANT_FULL, 5, 3, dtype)
        assert zero.S is again.S and zero.G is again.G and payload.S is other.S and payload.G is other.G
        assert payload is not other  # each payload is its own object around the shared arrays
        assert payload.G is zero.G is read_only_zeros((5, 3), dtype)
        for a, shape in ((zero.S, (5, 5)), (zero.G, (5, 3)), (payload.S, (15,)), (payload.G, (5, 3))):
            assert a.shape == shape and a.dtype == dtype and not a.any()
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0
            with pytest.raises(ValueError):
                a += 1.0
    assert SufficientStats.zero(5, 3, np.float32).S is not SufficientStats.zero(5, 3, np.float64).S
