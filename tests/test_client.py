"""Client store, message formation and payload sizing."""

import dataclasses

import numpy as np
import pytest

from fedridge.client import (
    ClientStore,
    DuplicateId,
    QrPayload,
    Sample,
    UnknownDeleteId,
    VARIANT_FULL,
    VARIANT_QR,
    payload_scalars,
    variant_a_payload_scalars,
    variant_b_payload_scalars,
)
from fedridge.kernels import rel_frobenius_dev
from fedridge.stats import SufficientStats


def _samples(ids, d=2, c=1, rng=None):
    rng = rng or np.random.default_rng(0)
    return [Sample(i, rng.standard_normal(d), rng.standard_normal(c)) for i in ids]


def test_ingest_and_duplicate():
    store = ClientStore(0, 2, 1)
    store.ingest(_samples([1, 2]))
    assert store.retained_ids() == [1, 2]
    with pytest.raises(DuplicateId):
        store.ingest(_samples([2]))
    store.ingest([])
    assert store.retained_ids() == [1, 2]


def test_batch_a_payload_full_stats():
    store = ClientStore(0, 2, 1)
    store.ingest([Sample(0, np.array([1.0, 0.0]), np.array([1.0])),
                  Sample(1, np.array([0.0, 1.0]), np.array([1.0]))])
    msg = store.make_round_message(1, [0, 1], [], VARIANT_FULL)
    np.testing.assert_array_equal(msg.add.S, np.eye(2))
    np.testing.assert_array_equal(msg.add.G, [[1.0], [1.0]])
    assert msg.add.n == 2 and msg.delete.n == 0


def test_batch_a_payload_qr_variant():
    store = ClientStore(0, 2, 1)
    store.ingest([Sample(0, np.array([1.0, 0.0]), np.array([1.0])),
                  Sample(1, np.array([0.0, 1.0]), np.array([1.0]))])
    msg = store.make_round_message(1, [0, 1], [], VARIANT_QR)
    np.testing.assert_allclose(msg.add.R.T @ msg.add.R, np.eye(2), atol=1e-15)


def test_foreign_delete_id_rejected():
    store = ClientStore(0, 2, 1)
    store.ingest(_samples([1]))
    store.make_round_message(1, [1], [], VARIANT_FULL)
    with pytest.raises(UnknownDeleteId):
        store.make_round_message(2, [], [42], VARIANT_FULL)


def test_same_round_delete_of_pending_add_rejected():
    store = ClientStore(0, 2, 1)
    store.ingest(_samples([1]))
    with pytest.raises(UnknownDeleteId):
        store.make_round_message(1, [1], [1], VARIANT_FULL)


def test_unannounced_add_rejected():
    store = ClientStore(0, 2, 1)
    with pytest.raises(ValueError):
        store.make_round_message(1, [5], [], VARIANT_FULL)


def test_delete_uses_cached_features_then_forgets():
    rng = np.random.default_rng(1)
    store = ClientStore(0, 3, 2)
    samples = _samples([4, 5, 6], d=3, c=2, rng=rng)
    store.ingest(samples)
    store.make_round_message(1, [4, 5, 6], [], VARIANT_FULL)
    msg = store.make_round_message(2, [], [5], VARIANT_FULL)
    s5 = samples[1]
    np.testing.assert_allclose(msg.delete.S, np.outer(s5.f, s5.f), rtol=1e-15)
    assert store.retained_ids() == [4, 6]
    with pytest.raises(UnknownDeleteId):
        store.make_round_message(3, [], [5], VARIANT_FULL)


def test_reingest_after_delete_is_allowed():
    store = ClientStore(0, 2, 1)
    store.ingest(_samples([1]))
    store.make_round_message(1, [1], [], VARIANT_FULL)
    store.make_round_message(2, [], [1], VARIANT_FULL)
    store.ingest(_samples([1]))
    msg = store.make_round_message(3, [1], [], VARIANT_FULL)
    assert msg.add.n == 1


def test_payload_scalar_counts_follow_formulas():
    rng = np.random.default_rng(2)
    for d, c, n_add in [(4, 2, 3), (8, 1, 0), (5, 3, 9)]:
        store = ClientStore(0, d, c)
        store.ingest(_samples(range(n_add), d=d, c=c, rng=rng))
        msg = store.make_round_message(1, list(range(n_add)), [], VARIANT_FULL)
        assert payload_scalars(msg.add) == variant_a_payload_scalars(n_add, d, c)
        assert payload_scalars(msg.add) == (d * (d + 1) // 2 + d * c if n_add else 0)
        assert payload_scalars(msg.delete) == variant_a_payload_scalars(0, d, c) == 0
        store_b = ClientStore(1, d, c)
        store_b.ingest(_samples(range(n_add), d=d, c=c, rng=rng))
        msg_b = store_b.make_round_message(1, list(range(n_add)), [], VARIANT_QR)
        r = min(n_add, d)
        assert msg_b.add.R.shape == (r, d)
        assert payload_scalars(msg_b.add) == variant_b_payload_scalars(n_add, d, c)
        assert payload_scalars(msg_b.add) == (r * d - r * (r - 1) // 2 + d * c if n_add else 0)
        assert payload_scalars(msg_b.delete) == variant_b_payload_scalars(0, d, c) == 0


def test_message_size_independent_of_retained_volume():
    rng = np.random.default_rng(3)
    small = ClientStore(0, 4, 2)
    small.ingest(_samples(range(2), d=4, c=2, rng=rng))
    large = ClientStore(1, 4, 2)
    large.ingest(_samples(range(500), d=4, c=2, rng=rng))
    m_small = small.make_round_message(1, [0, 1], [], VARIANT_FULL)
    m_large = large.make_round_message(1, list(range(500)), [], VARIANT_FULL)
    assert m_small.scalar_count == m_large.scalar_count


def test_empty_batch_keeps_uniform_qr_schema():
    store = ClientStore(0, 3, 1)
    msg = store.make_round_message(1, [], [], VARIANT_QR)
    assert isinstance(msg.add, QrPayload)
    assert msg.add.R.shape == (0, 3)
    assert msg.add.n == 0


def test_payloads_carry_only_aggregates():
    # structural raw-data confinement: payload fields are aggregate
    # matrices plus a count, with shapes set by (d, c, r) alone
    assert {f.name for f in dataclasses.fields(SufficientStats)} == {"S", "G", "n"}
    assert {f.name for f in dataclasses.fields(QrPayload)} == {"R", "G", "n"}
    rng = np.random.default_rng(4)
    store = ClientStore(0, 6, 2)
    store.ingest(_samples(range(40), d=6, c=2, rng=rng))
    msg = store.make_round_message(1, list(range(40)), [], VARIANT_QR)
    assert msg.add.R.shape == (6, 6)  # min(40, d) rows, never 40
    assert msg.add.G.shape == (6, 2)


def test_variant_agreement_of_gram():
    rng = np.random.default_rng(5)
    samples = _samples(range(12), d=5, c=2, rng=rng)
    store_a = ClientStore(0, 5, 2)
    store_a.ingest(samples)
    store_b = ClientStore(1, 5, 2)
    store_b.ingest(samples)
    ids = list(range(12))
    msg_a = store_a.make_round_message(1, ids, [], VARIANT_FULL)
    msg_b = store_b.make_round_message(1, ids, [], VARIANT_QR)
    assert rel_frobenius_dev(msg_b.add.R.T @ msg_b.add.R, msg_a.add.S) <= 1e-12
    np.testing.assert_allclose(msg_b.add.G, msg_a.add.G, rtol=1e-15)
