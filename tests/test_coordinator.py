"""Aggregation, round drivers, approximate mode and accounting."""

from operator import attrgetter

import numpy as np
import pytest

from fedridge.client import ClientStore, VARIANT_FULL, VARIANT_QR, payload_scalars
from fedridge.coordinator import (
    MixedPrecision,
    MixedRound,
    MixedVariant,
    OutOfOrder,
    RoundAggregate,
    RoundFold,
    account_round,
    aggregate,
    run_round_a,
    run_round_approx,
    rebuild_rows,
    run_round_b,
)
from fedridge.inverse import init_from_ledger
from fedridge.kernels import cholesky_spd, inverse_from_factor, rel_frobenius_dev, unpack_symmetric
from fedridge.simulate import RetainedGram, oracle_retrain
from fedridge.stats import SufficientStats, dtype_of, ledger_init, regularized_gram, stats_from_batch


def _idle_store(client_id, d, c, precision="f64"):
    """A store over no rows: every payload it forms is empty."""
    return ClientStore(client_id, np.zeros((0, d)), np.zeros((0, c)), precision)


def _fold(messages, variant, d, c, precision="f64"):
    """The round's aggregate: `messages` folded in the order given into a fold of this variant, width and precision."""
    return aggregate(messages, RoundFold(variant, d, c, dtype_of(precision))).close()


def _round_one_messages(variant, features, labels, parts, d, c):
    messages = []
    for k, ids in enumerate(parts):
        store = ClientStore(k, features, labels)
        messages.append(store.make_round_message(1, list(ids), [], variant))
    return messages


def test_aggregate_sums_clients():
    msgs = []
    for k in range(2):
        store = ClientStore(k, np.eye(2), np.ones((2, 1)))
        msgs.append(store.make_round_message(1, [0, 1], [], VARIANT_FULL))
    agg = _fold(msgs, VARIANT_FULL, 2, 1)
    np.testing.assert_array_equal(agg.add.S, 2 * np.eye(2))
    np.testing.assert_array_equal(agg.delete.S, np.zeros((2, 2)))
    assert agg.add.n == 4 and agg.delete.n == 0


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_aggregated_and_ledger_grams_are_bitwise_symmetric(variant, precision):
    # client Grams are symmetric products and the server only sums them
    rng = np.random.default_rng(12)
    d, c = 41, 3
    features = rng.standard_normal((160, d))
    labels = rng.standard_normal((160, c))
    parts = [range(0, 50), range(50, 95), range(95, 120)]
    stores = [ClientStore(k, features, labels, precision) for k in range(len(parts))]
    round_one = [s.make_round_message(1, list(ids), [], variant) for s, ids in zip(stores, parts)]
    round_two = []
    for k, store in enumerate(stores):
        adds = list(range(120 + 10 * k, 130 + 10 * k))
        round_two.append(store.make_round_message(2, adds, list(parts[k])[::3], variant))
    ledger = ledger_init(d, c, 1.0, precision)
    for messages in (round_one, round_two):
        agg = _fold(messages, variant, d, c, precision)
        assert np.array_equal(agg.add.S, agg.add.S.T)
        assert np.array_equal(agg.delete.S, agg.delete.S.T)
        ledger, _ = run_round_a(ledger, agg)
        assert np.array_equal(ledger.stats.S, ledger.stats.S.T)
    assert np.any(agg.delete.S)


def _two_round_messages(variant, precision, d=9, c=3, adds=10, stride=2):
    # three clients' round-two messages, each adding `adds` samples and deleting every
    # `stride`-th of its round-one samples (20, 4 and 36 of them)
    rng = np.random.default_rng(31)
    features = rng.standard_normal((90, d))
    labels = rng.standard_normal((90, c))
    parts = [range(0, 20), range(20, 24), range(24, 60)]
    stores = [ClientStore(k, features, labels, precision) for k in range(len(parts))]
    for store, ids in zip(stores, parts):
        store.make_round_message(1, list(ids), [], variant)
    messages = []
    for k, store in enumerate(stores):
        new = list(range(60 + 10 * k, 60 + 10 * k + adds))
        messages.append(store.make_round_message(2, new, list(parts[k])[::stride], variant))
    return messages


# a tall round: 27 add and 30 delete factor rows at d = 9; a short one: 9 and 10 rows at d = 40
_TALL, _SHORT = {}, {"d": 40, "adds": 3, "stride": 7}


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_fold_message_by_message_counts_what_account_round_charges(variant, precision):
    for shape in (_TALL, _SHORT):
        messages = _two_round_messages(variant, precision, **shape)
        d, c = messages[0].add.d, messages[0].add.c
        fold = RoundFold(variant, d, c, dtype_of(precision))
        for msg in messages:
            assert aggregate([msg], fold) is fold
        assert (fold.round, fold.variant) == (2, variant)
        folded = fold.close()
        assert (folded.add.d, folded.add.c) == (d, c)
        assert folded.add.n == sum(m.add.n for m in messages) and folded.delete.n == sum(m.delete.n for m in messages)
        for name in ("add.S", "add.G", "delete.S", "delete.G"):
            assert attrgetter(name)(folded).dtype == dtype_of(precision)
        # a short B round keeps its stacked factors; a tall one and an A round keep none
        assert (folded.U_plus is None) == (variant == VARIANT_FULL or shape is _TALL)
        assert fold.comm() == account_round(messages, precision)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_a_fold_of_packed_triangles_equals_the_sum_of_dense_grams(precision):
    # the reference is the dense fold: every payload unpacked, d x d sums in client order;
    # each entry gets the same additions in the same order, so only a zero's sign could differ
    messages = _two_round_messages(VARIANT_FULL, precision, **_SHORT)
    # an idle client and one that only adds: their zero-sample sides are skipped
    d, c = messages[0].add.d, messages[0].add.c
    features = np.random.default_rng(34).standard_normal((2, d))
    adder = ClientStore(7, features, features[:, :c], precision)
    messages += [_idle_store(5, d, c, precision).make_round_message(2, [], [], VARIANT_FULL),
                 adder.make_round_message(2, [0, 1], [], VARIANT_FULL)]
    agg = _fold(messages, VARIANT_FULL, d, c, precision)
    for side in ("add", "delete"):
        payloads = [getattr(m, side) for m in messages]
        dense = np.zeros((d, d), dtype=dtype_of(precision))
        for p in payloads:
            dense += unpack_symmetric(p.S, d)
        got = getattr(agg, side)
        assert got.S.dtype == dense.dtype and np.array_equal(got.S, dense)
        assert got.n == sum(p.n for p in payloads)
    # a side that no sample reached is zeros of the round's precision
    idle = _idle_store(8, d, c, precision).make_round_message(3, [], [], VARIANT_FULL)
    empty = _fold([adder.make_round_message(3, [], [], VARIANT_FULL), idle], VARIANT_FULL, d, c, precision)
    for side in (empty.add, empty.delete):
        assert side.S.shape == (d, d) and side.G.shape == (d, c) and side.n == 0
        assert side.S.dtype == dtype_of(precision) and not side.S.any() and not side.G.any()


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
def test_fold_rejects_a_client_id_not_above_the_last(variant):
    first, second, third = _two_round_messages(variant, "f64")
    fold = aggregate([first, third], RoundFold(variant, 9, 3, np.float64))
    for late in (second, third):  # below the last client, then equal to it
        with pytest.raises(OutOfOrder):
            aggregate([late], fold)


def _wide_round(precision, d=6, clients=8):
    # round two of a churn: 8 x 5 add rows and 8 x 4 delete rows, far above rebuild_rows(6) = 3
    rng = np.random.default_rng(33)
    features = rng.standard_normal((clients * 15, d))
    labels = rng.standard_normal((clients * 15, 2))
    messages, adds, deletes = [], [], []
    for k in range(clients):
        first, second = list(range(15 * k, 15 * k + 10)), list(range(15 * k + 10, 15 * k + 15))
        store = ClientStore(k, features, labels, precision)
        store.make_round_message(1, first, [], VARIANT_QR)
        messages.append(store.make_round_message(2, second, first[::3][:4], VARIANT_QR))
        adds += second
        deletes += first[::3][:4]
    return messages, features, labels, adds, deletes


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_fold_holds_at_most_2d_rows_per_side(precision):
    # the bound is now rebuild_rows(d) for both sides together; past it the fold keeps no U
    messages, *_ = _wide_round(precision)
    d = messages[0].add.R.shape[1]
    fold = RoundFold(VARIANT_QR, d, 2, dtype_of(precision))
    for msg in messages:
        aggregate([msg], fold)
        assert fold._blocks is None or sum(b.shape[0] for held in fold._blocks for b in held) <= rebuild_rows(d)
    assert fold._blocks is None
    assert sum(m.add.R.shape[0] for m in messages) > rebuild_rows(d)
    assert sum(m.delete.R.shape[0] for m in messages) > rebuild_rows(d)
    folded = fold.close()
    assert folded.U_plus is None and folded.U_minus is None


@pytest.mark.parametrize("precision, tol", [("f32", 1e-5), ("f64", 1e-13)], ids=["f32", "f64"])
def test_tall_round_gram_is_the_batch_gram(precision, tol):
    messages, features, labels, adds, deletes = _wide_round(precision)
    agg = _fold(messages, VARIANT_QR, 6, 2, precision)
    assert agg.U_plus is None and agg.U_minus is None
    for s, ids, side in ((agg.add.S, adds, "add"), (agg.delete.S, deletes, "delete")):
        assert s.dtype == dtype_of(precision) and np.array_equal(s, s.T)
        # the sum of each message's RᵀR in client order
        expect = np.zeros_like(s)
        for m in messages:
            r = getattr(m, side).R
            expect += r.T @ r
        assert s.tobytes() == expect.tobytes()
        assert rel_frobenius_dev(s, stats_from_batch(features[ids], labels[ids]).S) <= tol


def test_round_of_at_most_rebuild_rows_is_the_plain_stack():
    # 9 add and 10 delete rows: exactly rebuild_rows(38)
    messages = _two_round_messages(VARIANT_QR, "f64", d=38, adds=3, stride=7)
    rows = sum(m.add.R.shape[0] + m.delete.R.shape[0] for m in messages)
    assert rows == rebuild_rows(38)
    agg = _fold(messages, VARIANT_QR, 38, 3)
    for u, s, side in ((agg.U_plus, agg.add.S, "add"), (agg.U_minus, agg.delete.S, "delete")):
        stack = np.vstack([getattr(m, side).R for m in messages])
        assert u.tobytes() == stack.tobytes() and u.shape == stack.shape
        assert s.tobytes() == (stack.T @ stack).tobytes()
    # one more row and the same round is tall
    assert _fold(_two_round_messages(VARIANT_QR, "f64", d=37, adds=3, stride=7), VARIANT_QR, 37, 3).U_plus is None


@pytest.mark.parametrize(
    "variant, d, tall", [(VARIANT_FULL, 6, None), (VARIANT_QR, 64, False), (VARIANT_QR, 6, True)], ids=["A", "B-short", "B-tall"]
)
def test_a_side_of_no_samples_is_read_only_zeros_that_own_no_buffer(variant, d, tall):
    # round one adds 3 x 10 samples and round two deletes 3 x 5; rebuild_rows(64) = 32 and rebuild_rows(6) = 3
    rng = np.random.default_rng(34)
    features, labels = rng.standard_normal((30, d)), rng.standard_normal((30, 2))
    stores = [ClientStore(k, features, labels) for k in range(3)]
    parts = [list(range(10 * k, 10 * k + 10)) for k in range(3)]
    round_one = _fold([s.make_round_message(1, ids, [], variant) for s, ids in zip(stores, parts)], variant, d, 2)
    round_two = _fold([s.make_round_message(2, [], ids[:5], variant) for s, ids in zip(stores, parts)], variant, d, 2)
    for agg, empty, u_empty in ((round_one, "delete", "U_minus"), (round_two, "add", "U_plus")):
        side = getattr(agg, empty)
        assert side.n == 0 and agg.add.n + agg.delete.n
        for m, shape in ((side.S, (d, d)), (side.G, (d, 2))):
            # one broadcast element: no d x d or d x c buffer behind it
            assert m.shape == shape and m.strides == (0, 0) and not m.flags.writeable and not m.any()
        if variant == VARIANT_QR:
            # an empty side's U is still stacked, with no rows, unless the round is tall
            assert getattr(agg, u_empty) is None if tall else getattr(agg, u_empty).shape == (0, d)


def test_fold_of_no_messages_cannot_close():
    for variant in (VARIANT_FULL, VARIANT_QR):
        with pytest.raises(ValueError):
            RoundFold(variant, 2, 1, np.float64).close()


def test_aggregate_rejects_mixed_rounds_and_variants():
    m1 = _idle_store(0, 2, 1).make_round_message(1, [], [], VARIANT_FULL)
    m2 = _idle_store(1, 2, 1).make_round_message(2, [], [], VARIANT_FULL)
    with pytest.raises(MixedRound):
        _fold([m1, m2], VARIANT_FULL, 2, 1)
    m3 = _idle_store(2, 2, 1).make_round_message(1, [], [], VARIANT_QR)
    with pytest.raises(MixedVariant):
        _fold([m1, m3], VARIANT_FULL, 2, 1)


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
def test_aggregate_rejects_mixed_precision(variant):
    # a payload's precision is the one its two matrices share (its `dtype`)
    features = np.random.default_rng(35).standard_normal((4, 3))
    f64 = ClientStore(0, features, features[:, :2]).make_round_message(1, [0, 1], [], variant)
    f32 = ClientStore(1, features, features[:, :2], "f32").make_round_message(1, [2, 3], [], variant)
    idle = _idle_store(2, 3, 2, "f32").make_round_message(1, [], [], variant)
    for messages in ([f64, f32], [f64, idle]):
        with pytest.raises(MixedPrecision):
            _fold(messages, variant, 3, 2)
    fold = RoundFold(variant, 3, 2, np.float32)
    with pytest.raises(MixedPrecision):
        aggregate([f64], fold)
    assert fold.client_id is None and fold.scalars == 0


def test_aggregate_rejects_dimension_mismatch():
    from fedridge.kernels import DimensionMismatch

    a = _idle_store(0, 2, 1).make_round_message(1, [], [], VARIANT_FULL)
    b = _idle_store(1, 3, 1).make_round_message(1, [], [], VARIANT_FULL)
    with pytest.raises(DimensionMismatch):
        _fold([a, b], VARIANT_FULL, 2, 1)


def test_aggregate_matches_concatenated_batch():
    rng = np.random.default_rng(20)
    d, c, n = 6, 2, 30
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 10), range(10, 18), range(18, 30)]
    agg = _fold(_round_one_messages(VARIANT_FULL, features, labels, parts, d, c), VARIANT_FULL, d, c)
    st = stats_from_batch(features, labels)
    assert rel_frobenius_dev(agg.add.S, st.S) <= 1e-13
    assert rel_frobenius_dev(agg.add.G, st.G) <= 1e-13
    # the QR route's 18 factor rows make a tall round: its Grams are summed and no U is kept
    agg_b = _fold(_round_one_messages(VARIANT_QR, features, labels, parts, d, c), VARIANT_QR, d, c)
    assert rel_frobenius_dev(agg_b.add.S, st.S) <= 1e-12
    assert agg_b.U_plus is None
    ledger = ledger_init(d, c)
    _, _, w, _ = run_round_b(ledger, init_from_ledger(ledger), agg_b)
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(features, labels), np.ones(n, bool), 1.0)[0]) <= 1e-9


def test_aggregate_rejects_dimension_mismatch_qr():
    from fedridge.client import ClientMessage, QrPayload
    from fedridge.kernels import DimensionMismatch

    a = _idle_store(0, 2, 1).make_round_message(1, [], [], VARIANT_QR)
    b = _idle_store(1, 3, 1).make_round_message(1, [], [], VARIANT_QR)
    with pytest.raises(DimensionMismatch):
        _fold([a, b], VARIANT_QR, 2, 1)
    # a mismatched delete payload, R width or Z column count, is caught too
    wide_r = QrPayload(np.zeros((0, 3)), np.zeros((0, 1)), 0)
    wide_z = QrPayload(np.zeros((0, 2)), np.zeros((0, 2)), 0)
    for bad in (wide_r, wide_z):
        m = ClientMessage(1, 1, a.add, bad)
        with pytest.raises(DimensionMismatch):
            _fold([a, m], VARIANT_QR, 2, 1)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_aggregate_qr_gram_is_product_of_stacked_factors(precision):
    # a short round: 12 factor rows, at most rebuild_rows(24)
    rng = np.random.default_rng(23)
    d, c, n = 24, 2, 12
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 4), range(4, 7), range(7, 12)]
    stores = [ClientStore(k, features, labels, precision) for k in range(len(parts))]
    agg = _fold([s.make_round_message(1, list(ids), [], VARIANT_QR) for s, ids in zip(stores, parts)], VARIANT_QR, d, c, precision)
    assert np.array_equal(agg.add.S, agg.U_plus.T @ agg.U_plus)
    assert np.array_equal(agg.delete.S, np.zeros((d, d)))
    if precision == "f64":
        st = stats_from_batch(features, labels)
        assert rel_frobenius_dev(agg.add.S, st.S) <= 1e-13
        assert rel_frobenius_dev(agg.add.G, st.G) <= 1e-13
    dels = [list(ids)[::2] for ids in parts]
    agg = _fold([s.make_round_message(2, [], ids, VARIANT_QR) for s, ids in zip(stores, dels)], VARIANT_QR, d, c, precision)
    assert np.array_equal(agg.delete.S, agg.U_minus.T @ agg.U_minus)
    assert agg.delete.S.dtype == agg.U_minus.dtype == dtype_of(precision)
    if precision == "f64":
        gone = sum(dels, [])
        assert rel_frobenius_dev(agg.delete.S, stats_from_batch(features[gone], labels[gone]).S) <= 1e-13


def test_run_round_a_shares_one_factor_with_the_posterior(monkeypatch):
    import fedridge.stats as stats_mod
    from fedridge.posterior import posterior_from_ledger

    calls = []
    real = stats_mod.cholesky_spd
    monkeypatch.setattr(stats_mod, "cholesky_spd", lambda a: calls.append(1) or real(a))
    rng = np.random.default_rng(24)
    d, c, n = 7, 3, 40
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    ledger, w = run_round_a(
        ledger_init(d, c), _fold(_round_one_messages(VARIANT_FULL, features, labels, [range(n)], d, c), VARIANT_FULL, d, c)
    )
    post = posterior_from_ledger(ledger)
    assert np.array_equal(w, post.M)
    assert post.P is ledger.factor
    assert len(calls) == 1
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(features, labels), np.ones(n, bool), 1.0)[0]) <= 1e-9


def test_run_round_a_against_oracle():
    rng = np.random.default_rng(21)
    d, c, n = 8, 3, 100
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 40), range(40, 100)]
    ledger = ledger_init(d, c)
    ledger, w = run_round_a(ledger, _fold(_round_one_messages(VARIANT_FULL, features, labels, parts, d, c), VARIANT_FULL, d, c))
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(features, labels), np.ones(n, bool), 1.0)[0]) <= 1e-9


def test_run_round_a_delete_everything_gives_zero():
    rng = np.random.default_rng(22)
    d, c = 4, 2
    features = rng.standard_normal((12, d))
    labels = rng.standard_normal((12, c))
    store = ClientStore(0, features, labels)
    ledger = ledger_init(d, c)
    ledger, _ = run_round_a(ledger, _fold([store.make_round_message(1, list(range(12)), [], VARIANT_FULL)], VARIANT_FULL, d, c))
    ledger, w = run_round_a(ledger, _fold([store.make_round_message(2, [], list(range(12)), VARIANT_FULL)], VARIANT_FULL, d, c))
    np.testing.assert_array_equal(w, np.zeros((d, c)))
    assert ledger.stats.n == 0


def test_run_round_a_noop_is_bitwise_stable():
    rng = np.random.default_rng(23)
    d, c = 5, 2
    features = rng.standard_normal((9, d))
    labels = rng.standard_normal((9, c))
    store = ClientStore(0, features, labels)
    ledger = ledger_init(d, c)
    ledger, w1 = run_round_a(ledger, _fold([store.make_round_message(1, list(range(9)), [], VARIANT_FULL)], VARIANT_FULL, d, c))
    idle = _idle_store(0, d, c)
    ledger, w2 = run_round_a(ledger, _fold([idle.make_round_message(2, [], [], VARIANT_FULL)], VARIANT_FULL, d, c))
    assert np.array_equal(w1, w2)


def test_run_round_b_tracks_run_round_a():
    rng = np.random.default_rng(24)
    d, c, n = 10, 2, 60
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 20), range(20, 45), range(45, 60)]
    stores_a = [ClientStore(k, features, labels) for k in range(len(parts))]
    stores_b = [ClientStore(k, features, labels) for k in range(len(parts))]
    led_a = ledger_init(d, c)
    led_b = ledger_init(d, c)
    state = init_from_ledger(led_b)
    msgs_a = [s.make_round_message(1, list(p), [], VARIANT_FULL) for s, p in zip(stores_a, parts)]
    msgs_b = [s.make_round_message(1, list(p), [], VARIANT_QR) for s, p in zip(stores_b, parts)]
    led_a, w_a = run_round_a(led_a, _fold(msgs_a, VARIANT_FULL, d, c))
    led_b, state, w_b, info = run_round_b(led_b, state, _fold(msgs_b, VARIANT_QR, d, c))
    # 30 factor rows against d = 10: a tall round, served by a rebuild
    assert info.reset and info.lambda_max is None
    assert rel_frobenius_dev(w_b, w_a) <= 1e-8
    # now delete a slice from one client in both variants: 10 rows, tall again
    dels = list(range(20, 30))
    msgs_a = [stores_a[1].make_round_message(2, [], dels, VARIANT_FULL)]
    msgs_b = [stores_b[1].make_round_message(2, [], dels, VARIANT_QR)]
    led_a, w_a = run_round_a(led_a, _fold(msgs_a, VARIANT_FULL, d, c))
    led_b, state, w_b, info = run_round_b(led_b, state, _fold(msgs_b, VARIANT_QR, d, c))
    assert info.reset
    assert rel_frobenius_dev(w_b, w_a) <= 1e-8
    # and a delete of rebuild_rows(d) = 5 rows, served by an SMW step
    dels = list(range(30, 35))
    msgs_a = [stores_a[1].make_round_message(3, [], dels, VARIANT_FULL)]
    msgs_b = [stores_b[1].make_round_message(3, [], dels, VARIANT_QR)]
    led_a, w_a = run_round_a(led_a, _fold(msgs_a, VARIANT_FULL, d, c))
    agg_b = _fold(msgs_b, VARIANT_QR, d, c)
    assert agg_b.U_minus.shape == (rebuild_rows(d), d)
    led_b, state, w_b, info = run_round_b(led_b, state, agg_b)
    assert not info.reset
    assert info.lambda_max is not None and 0 < info.lambda_max < 1
    assert rel_frobenius_dev(w_b, w_a) <= 1e-8


def test_run_round_b_reset_on_boundary_deletion():
    # deleting the whole retained set with a large data scale drives the
    # delete capacitance condition over the threshold and forces a rebuild;
    # 3 samples at d = 6 keep both rounds short, so each takes the SMW path
    rng = np.random.default_rng(25)
    d, c = 6, 2
    features = rng.standard_normal((3, d)) * 1e5
    labels = rng.standard_normal((3, c))
    store = ClientStore(0, features, labels)
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    agg = _fold([store.make_round_message(1, list(range(3)), [], VARIANT_QR)], VARIANT_QR, d, c)
    assert agg.U_plus.shape == (rebuild_rows(d), d)
    ledger, state, w, info = run_round_b(ledger, state, agg)
    # the add onto T = I amplifies rounding by ~1e10: served exact only via a rebuild
    assert info.reset
    assert rel_frobenius_dev(w, ledger.head) <= 1e-8
    agg = _fold([store.make_round_message(2, [], list(range(3)), VARIANT_QR)], VARIANT_QR, d, c)
    assert agg.U_minus.shape == (rebuild_rows(d), d)
    ledger, state, w, info = run_round_b(ledger, state, agg)
    assert info.reset
    np.testing.assert_allclose(w, np.zeros((d, c)), atol=1e-30)
    assert ledger.stats.n == 0


@pytest.mark.parametrize("scale, gated", [(1.0, False), (1e5, True)])
def test_add_amplification_gate_resets_a_short_round(scale, gated):
    # 8 rows at d = 16 are a short round; scaled by 1e5 its add onto T = I amplifies rounding by ~1e10
    rng = np.random.default_rng(34)
    d, c, n = 16, 2, 8
    features = rng.standard_normal((n, d)) * scale
    labels = rng.standard_normal((n, c))
    agg = _fold(_round_one_messages(VARIANT_QR, features, labels, [range(0, 3), range(3, n)], d, c), VARIANT_QR, d, c)
    assert agg.U_plus.shape == (rebuild_rows(d), d)
    ledger = ledger_init(d, c)
    ledger, state, w, info = run_round_b(ledger, init_from_ledger(ledger), agg)
    assert info.reset == gated
    # S + I has condition ~1e10 when scaled, so the head is compared with the ledger's solve
    assert rel_frobenius_dev(w, ledger.head) <= 1e-9


def test_run_round_b_rebuilds_tall_rounds():
    # 10 clients x min(12, 4) = 40 factor rows against d = 4: a rebuild, with no SMW step
    rng = np.random.default_rng(26)
    d, c, n = 4, 1, 120
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(i * 12, (i + 1) * 12) for i in range(10)]
    msgs = _round_one_messages(VARIANT_QR, features, labels, parts, d, c)
    agg = _fold(msgs, VARIANT_QR, d, c)
    assert agg.U_plus is None and agg.U_minus is None
    assert rel_frobenius_dev(agg.add.S, stats_from_batch(features, labels).S) <= 1e-12
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    ledger, state, w, info = run_round_b(ledger, state, agg)
    assert info.reset and info.lambda_max is None
    assert w is ledger.head and ledger.t == 1
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(features, labels), np.ones(n, bool), 1.0)[0]) <= 1e-9


def test_run_round_b_serves_a_full_statistics_aggregate_by_its_exact_rebuild():
    # an aggregate without U takes the driver's one rebuild, whatever variant formed it
    rng = np.random.default_rng(28)
    d, c = 4, 1
    features = rng.standard_normal((10, d))
    labels = rng.standard_normal((10, c))
    agg = _fold(_round_one_messages(VARIANT_FULL, features, labels, [range(10)], d, c), VARIANT_FULL, d, c)
    assert agg.U_plus is None and agg.U_minus is None
    ledger = ledger_init(d, c)
    led_a, w_a = run_round_a(ledger, agg)
    led_b, _, w_b, info = run_round_b(ledger, init_from_ledger(ledger), agg)
    assert info.reset and info.lambda_max is None
    assert w_b.tobytes() == w_a.tobytes() and led_b.stats.S.tobytes() == led_a.stats.S.tobytes()


def test_burst_delete_then_addback_round_trip():
    rng = np.random.default_rng(27)
    d, c, n = 12, 2, 260
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    store_a = ClientStore(0, features, labels)
    store_b = ClientStore(0, features, labels)
    led_a = ledger_init(d, c)
    led_b = ledger_init(d, c)
    state = init_from_ledger(led_b)

    def agg_a(rnd, adds, dels):
        return _fold([store_a.make_round_message(rnd, adds, dels, VARIANT_FULL)], VARIANT_FULL, d, c)

    def agg_b(rnd, adds, dels):
        return _fold([store_b.make_round_message(rnd, adds, dels, VARIANT_QR)], VARIANT_QR, d, c)

    led_a, w0 = run_round_a(led_a, agg_a(1, list(range(n)), []))
    led_b, state, _, _ = run_round_b(led_b, state, agg_b(1, list(range(n)), []))
    order = rng.permutation(200)
    rnd = 2
    for i in order:  # 200 single-point deletions
        led_a, _ = run_round_a(led_a, agg_a(rnd, [], [int(i)]))
        led_b, state, _, info = run_round_b(led_b, state, agg_b(rnd, [], [int(i)]))
        assert isinstance(info.reset, bool)  # a numpy bool would print as False in metrics.csv
        rnd += 1
    for i in order[::-1]:  # 200 add-backs
        led_a, w_a = run_round_a(led_a, agg_a(rnd, [int(i)], []))
        led_b, state, w_b, _ = run_round_b(led_b, state, agg_b(rnd, [int(i)], []))
        rnd += 1
    assert rel_frobenius_dev(w_a, w0) <= 1e-9
    assert rel_frobenius_dev(w_b, w0) <= 1e-9


def _add_only_agg(s_plus, g_plus=None, d=None, c=1):
    d = d or s_plus.shape[0]
    g_plus = g_plus if g_plus is not None else np.zeros((d, c))
    return RoundAggregate(
        add=SufficientStats(s_plus, g_plus, 1),
        delete=SufficientStats(np.zeros((d, d)), np.zeros((d, c)), 0),
    )


def test_approx_hand_case_bound_dominates_gap():
    ledger = ledger_init(2, 1)
    state = init_from_ledger(ledger)
    agg = _add_only_agg(np.diag([10.0, 0.5]))
    ledger, state, w_ap, report = run_round_approx(ledger, state, agg, rank=1, reset_every=0)
    t_ap = state.T
    np.testing.assert_allclose(t_ap, np.diag([1 / 11, 1.0]), rtol=1e-12)
    assert state.neglected_mass == pytest.approx(0.5, rel=1e-9)
    # min(1/γ, ||T_ap||_∞)² Σ = 1² · 0.5
    assert report.bound == pytest.approx(0.5, rel=1e-9)
    true_gap = np.linalg.norm(inverse_from_factor(cholesky_spd(np.eye(2) + np.diag([10.0, 0.5]))) - t_ap, 2)
    assert true_gap == pytest.approx(1 / 3, rel=1e-9)
    assert true_gap <= report.bound


def test_approx_full_rank_is_exact():
    rng = np.random.default_rng(28)
    m = rng.standard_normal((4, 4))
    s_plus = m.T @ m
    g = rng.standard_normal((4, 2))
    ledger = ledger_init(4, 2)
    state = init_from_ledger(ledger)
    agg = _add_only_agg(s_plus, g, c=2)
    ledger, state, w_ap, report = run_round_approx(ledger, state, agg, rank=4, reset_every=0)
    assert state.neglected_mass == 0.0
    assert report.bound == 0.0
    np.testing.assert_allclose(w_ap, ledger.head, rtol=1e-12)


def test_approx_bound_is_finite_where_the_contraction_fails():
    # ||T_ap E||₂ = 1 here, so a bound resting on ||T_ap E|| < 1 would be infinite
    ledger = ledger_init(2, 1)
    state = init_from_ledger(ledger)
    agg = _add_only_agg(np.diag([10.0, 1.0]))
    ledger, state, _, report = run_round_approx(ledger, state, agg, rank=1, reset_every=0)
    assert report.bound == pytest.approx(1.0, rel=1e-9)
    true_gap = np.linalg.norm(inverse_from_factor(cholesky_spd(np.eye(2) + np.diag([10.0, 1.0]))) - state.T, 2)
    assert true_gap == pytest.approx(0.5, rel=1e-9)
    assert true_gap <= report.bound


def test_approx_bound_accumulates_until_a_reset():
    # two truncated diag(10, 0.5) steps drop 0.5 each: Σ = 1, and T_ap = diag(1/21, 1)
    ledger = ledger_init(2, 1)
    state = init_from_ledger(ledger)
    agg = _add_only_agg(np.diag([10.0, 0.5]))
    for sigma in (0.5, 1.0):
        ledger, state, _, report = run_round_approx(ledger, state, agg, rank=1, reset_every=3)
        assert state.neglected_mass == pytest.approx(sigma, rel=1e-12)
        assert report.bound == pytest.approx(sigma, rel=1e-12)
    true_gap = np.linalg.norm(inverse_from_factor(cholesky_spd(np.eye(2) + np.diag([20.0, 1.0]))) - state.T, 2)
    assert true_gap == pytest.approx(0.5, rel=1e-9)
    assert true_gap <= report.bound
    ledger, state, _, report = run_round_approx(ledger, state, agg, rank=1, reset_every=3)
    assert report.reset and report.bound is None and state.neglected_mass == 0.0


def test_approx_delete_round_is_exact():
    rng = np.random.default_rng(29)
    d, c = 5, 2
    features = rng.standard_normal((30, d))
    labels = rng.standard_normal((30, c))
    store = ClientStore(0, features, labels)
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    agg = _fold([store.make_round_message(1, list(range(30)), [], VARIANT_QR)], VARIANT_QR, d, c)
    ledger, state, _, _ = run_round_approx(ledger, state, agg, rank=2, reset_every=0)
    agg = _fold([store.make_round_message(2, [], list(range(10)), VARIANT_QR)], VARIANT_QR, d, c)
    ledger, state, w_ap, report = run_round_approx(ledger, state, agg, rank=2, reset_every=0)
    assert report.reset and report.bound is None  # delete rounds fall back to exact handling
    np.testing.assert_array_equal(w_ap, ledger.head)
    np.testing.assert_array_equal(state.T, inverse_from_factor(cholesky_spd(regularized_gram(ledger))))
    assert ledger.t == 2 and state.neglected_mass == 0.0


def test_periodic_reset_restores_exact_head():
    rng = np.random.default_rng(30)
    d, c = 6, 2
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)

    def add_round():
        st = stats_from_batch(rng.standard_normal((8, d)), rng.standard_normal((8, c)))
        return _add_only_agg(st.S, st.G, c=c)

    for _ in range(5):  # five truncated steps; the sixth would be the reset_every-th
        ledger, state, w_ap, report = run_round_approx(ledger, state, add_round(), rank=1, reset_every=6)
        assert not report.reset and report.bound is not None
    assert ledger.t == 5
    drift_before = rel_frobenius_dev(w_ap, ledger.head)
    ledger, state, w_reset, report = run_round_approx(ledger, state, add_round(), rank=1, reset_every=6)
    assert report.reset and report.bound is None
    assert ledger.t == 6 and state.neglected_mass == 0.0
    w_exact = ledger.head
    np.testing.assert_array_equal(w_reset, w_exact)
    assert rel_frobenius_dev(w_reset, w_exact) <= drift_before


def test_approx_reset_shares_the_ledger_factor(monkeypatch):
    # a reset rebuilds T from the ledger's one Cholesky factor and serves its head
    import fedridge.inverse as inverse_mod
    import fedridge.kernels as kernels_mod
    import fedridge.stats as stats_mod
    from fedridge.posterior import posterior_from_ledger

    calls = []
    real = kernels_mod.cholesky_spd
    for module in (stats_mod, inverse_mod, kernels_mod):
        monkeypatch.setattr(module, "cholesky_spd", lambda a: calls.append(1) or real(a))
    rng = np.random.default_rng(32)
    d, c = 5, 2
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    for _ in range(3):  # the third round is the reset
        st = stats_from_batch(rng.standard_normal((6, d)), rng.standard_normal((6, c)))
        calls.clear()
        ledger, state, w, report = run_round_approx(
            ledger, state, _add_only_agg(st.S, st.G, c=c), rank=2, reset_every=3
        )
    assert report.reset and report.bound is None
    assert len(calls) == 1
    assert state.W is ledger.head and w is ledger.head
    posterior_from_ledger(ledger)
    assert len(calls) == 1


def test_account_round_formulas():
    rng = np.random.default_rng(31)
    d, c = 4, 2
    features, labels = rng.standard_normal((3, d)), rng.standard_normal((3, c))
    msg = ClientStore(0, features, labels).make_round_message(1, [0, 1, 2], [], VARIANT_FULL)
    assert payload_scalars(msg.add) == 18  # d(d+1)/2 + dc
    msg_b = ClientStore(1, features, labels).make_round_message(1, [0, 1], [], VARIANT_QR)
    assert payload_scalars(msg_b.add) == 11  # r*d - r(r-1)/2 + rc with r=2
    rec = account_round([msg], "f64")
    assert rec.total_scalars == msg.scalar_count
    assert rec.total_bytes == 8 * msg.scalar_count
    rec32 = account_round([msg_b], "f32")
    assert rec32.total_bytes == 4 * msg_b.scalar_count
    empty = account_round([], "f64")
    assert empty.total_scalars == 0 and empty.total_bytes == 0
