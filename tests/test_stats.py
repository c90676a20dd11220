"""Sufficient-statistics algebra and the ledger."""

import numpy as np
import pytest

from fedridge.kernels import DimensionMismatch, rel_frobenius_dev
from fedridge.simulate import RetainedGram, oracle_retrain
from fedridge.stats import (
    NegativeCount,
    SufficientStats,
    ledger_apply,
    ledger_init,
    stats_add,
    stats_from_batch,
    stats_sub,
)

# The two-sample batches with identical first moments but different Grams.
BATCH_A = (np.eye(2), np.ones((2, 1)))
BATCH_B = (np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))


def test_stats_from_batch_a():
    st = stats_from_batch(*BATCH_A)
    np.testing.assert_array_equal(st.S, np.eye(2))
    np.testing.assert_array_equal(st.G, [[1.0], [1.0]])
    assert st.n == 2


def test_stats_from_batch_b():
    st = stats_from_batch(*BATCH_B)
    np.testing.assert_array_equal(st.S, [[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(st.G, [[1.0], [1.0]])
    assert st.n == 2


def test_stats_from_empty_batch():
    st = stats_from_batch(np.zeros((0, 2)), np.zeros((0, 1)))
    np.testing.assert_array_equal(st.S, np.zeros((2, 2)))
    np.testing.assert_array_equal(st.G, np.zeros((2, 1)))
    assert st.n == 0


def test_stats_from_batch_row_mismatch():
    with pytest.raises(DimensionMismatch):
        stats_from_batch(np.eye(2), np.ones((3, 1)))


def test_stats_add_doubles():
    a = stats_from_batch(*BATCH_A)
    out = stats_add(a, a)
    np.testing.assert_array_equal(out.S, 2 * np.eye(2))
    assert out.n == 4


def test_stats_sub_full_deletion():
    a = stats_from_batch(*BATCH_A)
    out = stats_sub(a, a)
    np.testing.assert_array_equal(out.S, np.zeros((2, 2)))
    np.testing.assert_array_equal(out.G, np.zeros((2, 1)))
    assert out.n == 0


def test_stats_add_mixed_batches():
    out = stats_add(stats_from_batch(*BATCH_A), stats_from_batch(*BATCH_B))
    np.testing.assert_array_equal(out.S, [[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(out.G, [[2.0], [2.0]])


def test_stats_sub_negative_count():
    a = stats_from_batch(*BATCH_A)
    with pytest.raises(NegativeCount):
        stats_sub(SufficientStats.zero(2, 1), a)


def test_ledger_initial_add_and_round_trip():
    led = ledger_init(2, 1, gamma=1.0)
    a = stats_from_batch(*BATCH_A)
    led1 = ledger_apply(led, a, SufficientStats.zero(2, 1))
    assert led1.t == 1
    np.testing.assert_array_equal(led1.stats.S, a.S)
    led2 = ledger_apply(led1, SufficientStats.zero(2, 1), a)
    np.testing.assert_array_equal(led2.stats.S, np.zeros((2, 2)))
    assert led2.stats.n == 0 and led2.t == 2


def test_ledger_exact_cancellation():
    led = ledger_init(2, 1)
    both = stats_add(stats_from_batch(*BATCH_A), stats_from_batch(*BATCH_B))
    led1 = ledger_apply(led, both, SufficientStats.zero(2, 1))
    led2 = ledger_apply(led1, SufficientStats.zero(2, 1), stats_from_batch(*BATCH_B))
    a = stats_from_batch(*BATCH_A)
    assert np.max(np.abs(led2.stats.S - a.S)) <= 1e-15
    assert np.max(np.abs(led2.stats.G - a.G)) <= 1e-15


def test_solve_head_cases():
    led = ledger_init(2, 1)
    np.testing.assert_array_equal(led.head, np.zeros((2, 1)))
    led_a = ledger_apply(led, stats_from_batch(*BATCH_A), SufficientStats.zero(2, 1))
    np.testing.assert_allclose(led_a.head, [[0.5], [0.5]], rtol=1e-15)
    led_b = ledger_apply(led, stats_from_batch(*BATCH_B), SufficientStats.zero(2, 1))
    np.testing.assert_allclose(led_b.head, [[1 / 3], [1 / 3]], rtol=1e-14)


def test_second_order_information_is_necessary():
    # same column sums of F, same G, yet distinct heads
    fa, ya = BATCH_A
    fb, yb = BATCH_B
    np.testing.assert_array_equal(fa.sum(axis=0), fb.sum(axis=0))
    np.testing.assert_array_equal(fa.T @ ya, fb.T @ yb)
    led = ledger_init(2, 1)
    wa = ledger_apply(led, stats_from_batch(*BATCH_A), SufficientStats.zero(2, 1)).head
    wb = ledger_apply(led, stats_from_batch(*BATCH_B), SufficientStats.zero(2, 1)).head
    assert rel_frobenius_dev(wa, wb) >= 0.3


def test_retrain_equivalence_over_random_stream():
    rng = np.random.default_rng(7)
    d, c = 24, 3
    led = ledger_init(d, c)
    batches = []
    rows = []
    for _ in range(40):
        f = rng.standard_normal((int(rng.integers(1, 7)), d))
        y = rng.standard_normal((f.shape[0], c))
        if batches and rng.random() < 0.4:
            k = int(rng.integers(0, len(batches)))
            fb, yb = batches.pop(k)
            led = ledger_apply(led, stats_from_batch(f, y), stats_from_batch(fb, yb))
            rows = [r for r in rows if r[2] != id(fb)]
        else:
            led = ledger_apply(led, stats_from_batch(f, y), SufficientStats.zero(d, c))
        batches.append((f, y))
        rows.append((f, y, id(f)))
        f_all = np.vstack([r[0] for r in rows])
        y_all = np.vstack([r[1] for r in rows])
        w_oracle, _ = oracle_retrain(RetainedGram(f_all, y_all), np.ones(len(f_all), bool), 1.0)
        assert rel_frobenius_dev(led.head, w_oracle) <= 1e-9


def test_additivity_commutes_under_permutation():
    rng = np.random.default_rng(8)
    stats = [
        stats_from_batch(rng.standard_normal((3, 6)), rng.standard_normal((3, 2)))
        for _ in range(100)
    ]
    def fold(items):
        acc = SufficientStats.zero(6, 2)
        for s in items:
            acc = stats_add(acc, s)
        return acc
    base = fold(stats)
    for _ in range(5):
        perm = rng.permutation(len(stats))
        other = fold([stats[i] for i in perm])
        assert rel_frobenius_dev(other.S, base.S) <= 1e-13
        assert rel_frobenius_dev(other.G, base.G) <= 1e-13
        assert other.n == base.n


def test_noop_round_is_bitwise_stable():
    led = ledger_init(2, 1)
    led = ledger_apply(led, stats_from_batch(*BATCH_A), SufficientStats.zero(2, 1))
    w1 = led.head
    led2 = ledger_apply(led, SufficientStats.zero(2, 1), SufficientStats.zero(2, 1))
    assert np.array_equal(led2.stats.S, led.stats.S)
    assert np.array_equal(led2.head, w1)


def test_single_precision_ledger_dtype():
    led = ledger_init(4, 2, precision="f32")
    f = np.random.default_rng(9).standard_normal((5, 4)).astype(np.float32)
    y = np.random.default_rng(10).standard_normal((5, 2)).astype(np.float32)
    st = stats_from_batch(f, y, led.dtype)
    assert st.S.dtype == np.float32
    led = ledger_apply(led, st, SufficientStats.zero(4, 2, np.float32))
    assert led.head.dtype == np.float32


def test_gamma_must_be_positive():
    for gamma in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="gamma"):
            ledger_init(2, 1, gamma=gamma)


def test_stats_gram_is_symmetric_psd():
    from fedridge.kernels import frobenius_norm, symmetric_eig

    # FᵀF is evaluated as a symmetric product, so S is bitwise symmetric
    # with no re-symmetrizing, in both precisions, empty batches included
    rng = np.random.default_rng(50)
    shapes = [(0, 1), (0, 7), (1, 300), (300, 300), (500, 257)]
    shapes += [(int(rng.integers(1, 40)), int(rng.integers(1, 12))) for _ in range(10)]
    for dtype in (np.float64, np.float32):
        for n, d in shapes:
            st = stats_from_batch(rng.standard_normal((n, d)), rng.standard_normal((n, 1)), dtype)
            assert st.S.dtype == dtype and st.S.shape == (d, d)
            assert np.array_equal(st.S, st.S.T)
            if dtype == np.float64:
                vals, _ = symmetric_eig(st.S)
                assert vals[-1] >= -1e-8 * frobenius_norm(st.S)
