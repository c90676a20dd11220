"""Aggregation, round drivers, approximate mode and accounting."""

import math

import numpy as np
import pytest

from fedridge.client import ClientStore, Sample, VARIANT_FULL, VARIANT_QR
from fedridge.coordinator import (
    MixedRound,
    MixedVariant,
    OutOfOrder,
    RoundAggregate,
    RoundFold,
    account_round,
    aggregate,
    run_round_a,
    run_round_approx,
    run_round_b,
)
from fedridge.inverse import init_from_ledger
from fedridge.kernels import rel_frobenius_dev, spd_inverse, spectral_norm
from fedridge.simulate import RetainedGram, oracle_retrain
from fedridge.stats import dtype_of, ledger_init, regularized_gram, stats_from_batch


def _store_with(client_id, ids, features, labels, d, c, precision="f64"):
    store = ClientStore(client_id, d, c, precision)
    store.ingest(Sample(i, features[i], labels[i]) for i in ids)
    return store


def _round_one_messages(variant, features, labels, parts, d, c):
    messages = []
    for k, ids in enumerate(parts):
        store = _store_with(k, ids, features, labels, d, c)
        messages.append(store.make_round_message(1, list(ids), [], variant))
    return messages


def test_aggregate_sums_clients():
    msgs = []
    for k in range(2):
        store = ClientStore(k, 2, 1)
        store.ingest([Sample(10 * k, np.array([1.0, 0.0]), np.array([1.0])),
                      Sample(10 * k + 1, np.array([0.0, 1.0]), np.array([1.0]))])
        msgs.append(store.make_round_message(1, [10 * k, 10 * k + 1], [], VARIANT_FULL))
    agg = aggregate(msgs)
    np.testing.assert_array_equal(agg.S_plus, 2 * np.eye(2))
    np.testing.assert_array_equal(agg.S_minus, np.zeros((2, 2)))
    assert agg.n_plus == 4 and agg.n_minus == 0


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_aggregated_and_ledger_grams_are_bitwise_symmetric(variant, precision):
    # client Grams are symmetric products and the server only sums them
    rng = np.random.default_rng(12)
    d, c = 41, 3
    features = rng.standard_normal((160, d))
    labels = rng.standard_normal((160, c))
    parts = [range(0, 50), range(50, 95), range(95, 120)]
    stores = [_store_with(k, ids, features, labels, d, c, precision) for k, ids in enumerate(parts)]
    round_one = [s.make_round_message(1, list(ids), [], variant) for s, ids in zip(stores, parts)]
    round_two = []
    for k, store in enumerate(stores):
        adds = list(range(120 + 10 * k, 130 + 10 * k))
        store.ingest(Sample(i, features[i], labels[i]) for i in adds)
        round_two.append(store.make_round_message(2, adds, list(parts[k])[::3], variant))
    ledger = ledger_init(d, c, 1.0, precision)
    for messages in (round_one, round_two):
        agg = aggregate(messages)
        assert np.array_equal(agg.S_plus, agg.S_plus.T)
        assert np.array_equal(agg.S_minus, agg.S_minus.T)
        ledger, _ = run_round_a(ledger, agg)
        assert np.array_equal(ledger.stats.S, ledger.stats.S.T)
    assert np.any(agg.S_minus)


def _two_round_messages(variant, precision, d=9, c=3):
    # three clients' round-two messages, each with both adds and deletes
    rng = np.random.default_rng(31)
    features = rng.standard_normal((90, d))
    labels = rng.standard_normal((90, c))
    parts = [range(0, 20), range(20, 24), range(24, 60)]
    stores = [_store_with(k, ids, features, labels, d, c, precision) for k, ids in enumerate(parts)]
    for store, ids in zip(stores, parts):
        store.make_round_message(1, list(ids), [], variant)
    messages = []
    for k, store in enumerate(stores):
        adds = list(range(60 + 10 * k, 70 + 10 * k))
        store.ingest(Sample(i, features[i], labels[i]) for i in adds)
        messages.append(store.make_round_message(2, adds, list(parts[k])[::2], variant))
    return messages


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_fold_message_by_message_is_bitwise_the_list_aggregate(variant, precision):
    messages = _two_round_messages(variant, precision)
    whole = aggregate(messages)
    fold = RoundFold()
    for msg in messages:
        assert aggregate([msg], fold) is fold
    folded = fold.close()
    for name in ("round", "variant", "d", "c", "n_plus", "n_minus"):
        assert getattr(folded, name) == getattr(whole, name)
    for name in ("S_plus", "G_plus", "S_minus", "G_minus", "U_plus", "U_minus"):
        a, b = getattr(folded, name), getattr(whole, name)
        if variant == VARIANT_FULL and name.startswith("U"):
            assert a is None and b is None
            continue
        assert a.dtype == b.dtype == dtype_of(precision)
        assert a.tobytes() == b.tobytes() and a.shape == b.shape
    assert fold.comm(precision) == account_round(messages, precision)


@pytest.mark.parametrize("variant", [VARIANT_FULL, VARIANT_QR])
def test_fold_rejects_a_client_id_not_above_the_last(variant):
    first, second, third = _two_round_messages(variant, "f64")
    fold = aggregate([first, third], RoundFold())
    for late in (second, third):  # below the last client, then equal to it
        with pytest.raises(OutOfOrder):
            aggregate([late], fold)
    # a whole list is still folded in ascending client id, whatever its order
    assert aggregate([third, first, second]).S_plus.tobytes() == aggregate([first, second, third]).S_plus.tobytes()


def test_fold_of_no_messages_cannot_close():
    with pytest.raises(ValueError):
        RoundFold().close()
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_rejects_mixed_rounds_and_variants():
    store1 = ClientStore(0, 2, 1)
    m1 = store1.make_round_message(1, [], [], VARIANT_FULL)
    store2 = ClientStore(1, 2, 1)
    m2 = store2.make_round_message(2, [], [], VARIANT_FULL)
    with pytest.raises(MixedRound):
        aggregate([m1, m2])
    store3 = ClientStore(2, 2, 1)
    m3 = store3.make_round_message(1, [], [], VARIANT_QR)
    with pytest.raises(MixedVariant):
        aggregate([m1, m3])


def test_aggregate_rejects_dimension_mismatch():
    from fedridge.kernels import DimensionMismatch

    a = ClientStore(0, 2, 1).make_round_message(1, [], [], VARIANT_FULL)
    b = ClientStore(1, 3, 1).make_round_message(1, [], [], VARIANT_FULL)
    with pytest.raises(DimensionMismatch):
        aggregate([a, b])


def test_aggregate_matches_concatenated_batch():
    rng = np.random.default_rng(20)
    d, c, n = 6, 2, 30
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 10), range(10, 18), range(18, 30)]
    agg = aggregate(_round_one_messages(VARIANT_FULL, features, labels, parts, d, c))
    st = stats_from_batch(features, labels)
    assert rel_frobenius_dev(agg.S_plus, st.S) <= 1e-13
    assert rel_frobenius_dev(agg.G_plus, st.G) <= 1e-13
    # the QR route reproduces the same aggregate through stacked factors
    agg_b = aggregate(_round_one_messages(VARIANT_QR, features, labels, parts, d, c))
    assert rel_frobenius_dev(agg_b.U_plus.T @ agg_b.U_plus, st.S) <= 1e-12
    assert agg_b.U_plus.shape == (sum(min(len(p), d) for p in parts), d)


def test_aggregate_rejects_dimension_mismatch_qr():
    from fedridge.client import ClientMessage, QrPayload
    from fedridge.kernels import DimensionMismatch

    a = ClientStore(0, 2, 1).make_round_message(1, [], [], VARIANT_QR)
    b = ClientStore(1, 3, 1).make_round_message(1, [], [], VARIANT_QR)
    with pytest.raises(DimensionMismatch):
        aggregate([a, b])
    # a mismatched delete payload, R width or G column count, is caught too
    wide_r = QrPayload(np.zeros((0, 3)), np.zeros((2, 1)), 0)
    wide_g = QrPayload(np.zeros((0, 2)), np.zeros((2, 2)), 0)
    for bad in (wide_r, wide_g):
        m = ClientMessage(1, 1, VARIANT_QR, a.add, bad)
        with pytest.raises(DimensionMismatch):
            aggregate([a, m])


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_aggregate_qr_gram_is_product_of_stacked_factors(precision):
    rng = np.random.default_rng(23)
    d, c, n = 6, 2, 30
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 10), range(10, 18), range(18, 30)]
    stores = [_store_with(k, ids, features, labels, d, c, precision) for k, ids in enumerate(parts)]
    agg = aggregate([s.make_round_message(1, list(ids), [], VARIANT_QR) for s, ids in zip(stores, parts)])
    assert np.array_equal(agg.S_plus, agg.U_plus.T @ agg.U_plus)
    assert np.array_equal(agg.S_minus, np.zeros((d, d)))
    if precision == "f64":
        st = stats_from_batch(features, labels)
        assert rel_frobenius_dev(agg.S_plus, st.S) <= 1e-13
        assert rel_frobenius_dev(agg.G_plus, st.G) <= 1e-13
    dels = [list(ids)[::2] for ids in parts]
    agg = aggregate([s.make_round_message(2, [], ids, VARIANT_QR) for s, ids in zip(stores, dels)])
    assert np.array_equal(agg.S_minus, agg.U_minus.T @ agg.U_minus)
    assert agg.S_minus.dtype == agg.U_minus.dtype == dtype_of(precision)
    if precision == "f64":
        gone = sum(dels, [])
        assert rel_frobenius_dev(agg.S_minus, stats_from_batch(features[gone], labels[gone]).S) <= 1e-13


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
        ledger_init(d, c), aggregate(_round_one_messages(VARIANT_FULL, features, labels, [range(n)], d, c))
    )
    post = posterior_from_ledger(ledger, sigma2=2.0)
    assert np.array_equal(w, post.M)
    assert np.array_equal(post.P, ledger.factor / np.sqrt(2.0))
    assert len(calls) == 1
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(features, labels), np.ones(n, bool), 1.0)[0]) <= 1e-9


def test_run_round_a_against_oracle():
    rng = np.random.default_rng(21)
    d, c, n = 8, 3, 100
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 40), range(40, 100)]
    ledger = ledger_init(d, c)
    ledger, w = run_round_a(ledger, aggregate(_round_one_messages(VARIANT_FULL, features, labels, parts, d, c)))
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(features, labels), np.ones(n, bool), 1.0)[0]) <= 1e-9


def test_run_round_a_delete_everything_gives_zero():
    rng = np.random.default_rng(22)
    d, c = 4, 2
    features = rng.standard_normal((12, d))
    labels = rng.standard_normal((12, c))
    store = _store_with(0, range(12), features, labels, d, c)
    ledger = ledger_init(d, c)
    ledger, _ = run_round_a(ledger, aggregate([store.make_round_message(1, list(range(12)), [], VARIANT_FULL)]))
    ledger, w = run_round_a(ledger, aggregate([store.make_round_message(2, [], list(range(12)), VARIANT_FULL)]))
    np.testing.assert_array_equal(w, np.zeros((d, c)))
    assert ledger.stats.n == 0


def test_run_round_a_noop_is_bitwise_stable():
    rng = np.random.default_rng(23)
    d, c = 5, 2
    features = rng.standard_normal((9, d))
    labels = rng.standard_normal((9, c))
    store = _store_with(0, range(9), features, labels, d, c)
    ledger = ledger_init(d, c)
    ledger, w1 = run_round_a(ledger, aggregate([store.make_round_message(1, list(range(9)), [], VARIANT_FULL)]))
    idle = ClientStore(0, d, c)
    ledger, w2 = run_round_a(ledger, aggregate([idle.make_round_message(2, [], [], VARIANT_FULL)]))
    assert np.array_equal(w1, w2)


def test_run_round_b_tracks_run_round_a():
    rng = np.random.default_rng(24)
    d, c, n = 10, 2, 60
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(0, 20), range(20, 45), range(45, 60)]
    stores_a = [_store_with(k, p, features, labels, d, c) for k, p in enumerate(parts)]
    stores_b = [_store_with(k, p, features, labels, d, c) for k, p in enumerate(parts)]
    led_a = ledger_init(d, c)
    led_b = ledger_init(d, c)
    state = init_from_ledger(led_b)
    msgs_a = [s.make_round_message(1, list(p), [], VARIANT_FULL) for s, p in zip(stores_a, parts)]
    msgs_b = [s.make_round_message(1, list(p), [], VARIANT_QR) for s, p in zip(stores_b, parts)]
    led_a, w_a = run_round_a(led_a, aggregate(msgs_a))
    led_b, state, w_b, info = run_round_b(led_b, state, aggregate(msgs_b))
    assert not info.reset
    assert rel_frobenius_dev(w_b, w_a) <= 1e-8
    # now delete a slice from one client in both variants
    dels = list(range(20, 30))
    msgs_a = [stores_a[1].make_round_message(2, [], dels, VARIANT_FULL)]
    msgs_b = [stores_b[1].make_round_message(2, [], dels, VARIANT_QR)]
    led_a, w_a = run_round_a(led_a, aggregate(msgs_a))
    led_b, state, w_b, info = run_round_b(led_b, state, aggregate(msgs_b))
    assert not info.reset
    assert info.lambda_max is not None and 0 < info.lambda_max < 1
    assert rel_frobenius_dev(w_b, w_a) <= 1e-8


def test_run_round_b_reset_on_boundary_deletion():
    # deleting the whole retained set with a large data scale drives the
    # delete capacitance condition over the threshold and forces a rebuild
    rng = np.random.default_rng(25)
    d, c = 6, 2
    features = rng.standard_normal((40, d)) * 1e5
    labels = rng.standard_normal((40, c))
    store = _store_with(0, range(40), features, labels, d, c)
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    msg = store.make_round_message(1, list(range(40)), [], VARIANT_QR)
    ledger, state, w, info = run_round_b(ledger, state, aggregate([msg]))
    # the add onto T = I amplifies rounding by ~1e12: served exact only via a rebuild
    assert rel_frobenius_dev(w, ledger.head) <= 1e-8
    msg = store.make_round_message(2, [], list(range(40)), VARIANT_QR)
    ledger, state, w, info = run_round_b(ledger, state, aggregate([msg]))
    assert info.reset
    np.testing.assert_allclose(w, np.zeros((d, c)), atol=1e-30)
    assert ledger.stats.n == 0


def test_run_round_b_compacts_tall_stacks():
    # more stacked factor rows than columns: capacitance must stay d x d
    rng = np.random.default_rng(26)
    d, c, n = 4, 1, 120
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    parts = [range(i * 12, (i + 1) * 12) for i in range(10)]
    msgs = _round_one_messages(VARIANT_QR, features, labels, parts, d, c)
    agg = aggregate(msgs)
    assert agg.U_plus.shape[0] == 40  # 10 clients x min(12, 4)
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    ledger, state, w, _ = run_round_b(ledger, state, agg)
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(features, labels), np.ones(n, bool), 1.0)[0]) <= 1e-9


def test_run_round_b_rejects_full_statistics_aggregate():
    # the SMW steps need the stacked R-factors; without them the head would not move
    rng = np.random.default_rng(28)
    d, c = 4, 1
    features = rng.standard_normal((10, d))
    labels = rng.standard_normal((10, c))
    agg = aggregate(_round_one_messages(VARIANT_FULL, features, labels, [range(10)], d, c))
    ledger = ledger_init(d, c)
    with pytest.raises(ValueError, match="R-factor"):
        run_round_b(ledger, init_from_ledger(ledger), agg)


def test_burst_delete_then_addback_round_trip():
    rng = np.random.default_rng(27)
    d, c, n = 12, 2, 260
    features = rng.standard_normal((n, d))
    labels = rng.standard_normal((n, c))
    store_a = _store_with(0, range(n), features, labels, d, c)
    store_b = _store_with(0, range(n), features, labels, d, c)
    led_a = ledger_init(d, c)
    led_b = ledger_init(d, c)
    state = init_from_ledger(led_b)
    led_a, w0 = run_round_a(led_a, aggregate([store_a.make_round_message(1, list(range(n)), [], VARIANT_FULL)]))
    led_b, state, _, _ = run_round_b(led_b, state, aggregate([store_b.make_round_message(1, list(range(n)), [], VARIANT_QR)]))
    order = rng.permutation(200)
    rnd = 2
    for i in order:  # 200 single-point deletions
        led_a, _ = run_round_a(led_a, aggregate([store_a.make_round_message(rnd, [], [int(i)], VARIANT_FULL)]))
        led_b, state, _, info = run_round_b(led_b, state, aggregate([store_b.make_round_message(rnd, [], [int(i)], VARIANT_QR)]))
        assert isinstance(info.reset, bool)  # a numpy bool would print as False in metrics.csv
        rnd += 1
    for i in order[::-1]:  # 200 add-backs
        store_a.ingest([Sample(int(i), features[int(i)], labels[int(i)])])
        store_b.ingest([Sample(int(i), features[int(i)], labels[int(i)])])
        led_a, w_a = run_round_a(led_a, aggregate([store_a.make_round_message(rnd, [int(i)], [], VARIANT_FULL)]))
        led_b, state, w_b, _ = run_round_b(led_b, state, aggregate([store_b.make_round_message(rnd, [int(i)], [], VARIANT_QR)]))
        rnd += 1
    assert rel_frobenius_dev(w_a, w0) <= 1e-9
    assert rel_frobenius_dev(w_b, w0) <= 1e-9


def _add_only_agg(s_plus, g_plus=None, d=None, c=1):
    d = d or s_plus.shape[0]
    g_plus = g_plus if g_plus is not None else np.zeros((d, c))
    return RoundAggregate(
        round=1, variant=VARIANT_FULL, d=d, c=c,
        S_plus=s_plus, G_plus=g_plus,
        S_minus=np.zeros((d, d)), G_minus=np.zeros((d, c)),
        n_plus=1, n_minus=0,
    )


def test_approx_hand_case_bound_dominates_gap():
    ledger = ledger_init(2, 1)
    state = init_from_ledger(ledger)
    agg = _add_only_agg(np.diag([10.0, 0.5]))
    ledger, state, w_ap, report = run_round_approx(ledger, state, agg, rank=1, reset_every=0)
    t_ap = state.T
    np.testing.assert_allclose(t_ap, np.diag([1 / 11, 1.0]), rtol=1e-12)
    assert report.assumption_ok
    assert report.rank_used == 1
    assert report.neglected_mass == pytest.approx(0.5, rel=1e-9)
    assert report.t_ap_norm == pytest.approx(1.0, rel=1e-9)
    assert report.contraction == pytest.approx(0.5, rel=1e-9)
    assert report.inverse_bound == pytest.approx(1.0, rel=1e-9)
    true_gap = spectral_norm(spd_inverse(np.eye(2) + np.diag([10.0, 0.5])) - t_ap)
    assert true_gap == pytest.approx(1 / 3, rel=1e-9)
    assert true_gap <= report.inverse_bound


def test_approx_full_rank_is_exact():
    rng = np.random.default_rng(28)
    m = rng.standard_normal((4, 4))
    s_plus = m.T @ m
    g = rng.standard_normal((4, 2))
    ledger = ledger_init(4, 2)
    state = init_from_ledger(ledger)
    agg = _add_only_agg(s_plus, g, c=2)
    ledger, state, w_ap, report = run_round_approx(ledger, state, agg, rank=4, reset_every=0)
    assert report.neglected_mass == 0.0
    assert report.inverse_bound == 0.0
    np.testing.assert_allclose(w_ap, ledger.head, rtol=1e-12)


def test_approx_assumption_violated_flagged():
    ledger = ledger_init(2, 1)
    state = init_from_ledger(ledger)
    agg = _add_only_agg(np.diag([10.0, 1.0]))
    ledger, state, _, report = run_round_approx(ledger, state, agg, rank=1, reset_every=0)
    assert not report.assumption_ok
    assert math.isinf(report.inverse_bound)
    assert report.contraction >= 1.0


def test_approx_delete_round_is_exact():
    rng = np.random.default_rng(29)
    d, c = 5, 2
    features = rng.standard_normal((30, d))
    labels = rng.standard_normal((30, c))
    store = _store_with(0, range(30), features, labels, d, c)
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    agg = aggregate([store.make_round_message(1, list(range(30)), [], VARIANT_QR)])
    ledger, state, _, _ = run_round_approx(ledger, state, agg, rank=2, reset_every=0)
    agg = aggregate([store.make_round_message(2, [], list(range(10)), VARIANT_QR)])
    ledger, state, w_ap, report = run_round_approx(ledger, state, agg, rank=2, reset_every=0)
    assert report is None  # delete rounds fall back to exact handling
    np.testing.assert_array_equal(w_ap, ledger.head)
    np.testing.assert_array_equal(state.T, spd_inverse(regularized_gram(ledger)))
    assert state.updates_since_reset == 0


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
        assert report is not None
    assert state.updates_since_reset == 5
    drift_before = rel_frobenius_dev(w_ap, ledger.head)
    ledger, state, w_reset, report = run_round_approx(ledger, state, add_round(), rank=1, reset_every=6)
    assert report is None
    assert state.updates_since_reset == 0
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
    assert report is None
    assert len(calls) == 1
    assert state.W is ledger.head and w is ledger.head
    posterior_from_ledger(ledger)
    assert len(calls) == 1


def test_account_round_formulas():
    rng = np.random.default_rng(31)
    d, c = 4, 2
    store = ClientStore(0, d, c)
    store.ingest(Sample(i, rng.standard_normal(d), rng.standard_normal(c)) for i in range(3))
    msg = store.make_round_message(1, [0, 1, 2], [], VARIANT_FULL)
    assert msg.add.scalar_count == 19  # d(d+1)/2 + dc + 1
    store_b = ClientStore(1, d, c)
    store_b.ingest(Sample(i, rng.standard_normal(d), rng.standard_normal(c)) for i in range(2))
    msg_b = store_b.make_round_message(1, [0, 1], [], VARIANT_QR)
    assert msg_b.add.scalar_count == 17  # r*d + dc + 1 with r=2
    rec = account_round([msg], "f64")
    assert rec.total_scalars == msg.scalar_count
    assert rec.total_bytes == 8 * msg.scalar_count
    rec32 = account_round([msg_b], "f32")
    assert rec32.total_bytes == 4 * msg_b.scalar_count
    empty = account_round([], "f64")
    assert empty.total_scalars == 0 and empty.total_bytes == 0
