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
    stats_from_batch,
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


def _held(*batches, d=2, c=1):
    """A ledger that holds `batches`, added one round each."""
    led = ledger_init(d, c)
    for batch in batches:
        led = ledger_apply(led, batch, SufficientStats.zero(d, c))
    return led


def test_ledger_apply_add_doubles():
    a = stats_from_batch(*BATCH_A)
    out = ledger_apply(_held(a), a, SufficientStats.zero(2, 1)).stats
    np.testing.assert_array_equal(out.S, 2 * np.eye(2))
    assert out.n == 4


def test_ledger_apply_full_deletion():
    a = stats_from_batch(*BATCH_A)
    out = ledger_apply(_held(a), SufficientStats.zero(2, 1), a).stats
    np.testing.assert_array_equal(out.S, np.zeros((2, 2)))
    np.testing.assert_array_equal(out.G, np.zeros((2, 1)))
    assert out.n == 0


def test_ledger_apply_mixed_batches():
    out = _held(stats_from_batch(*BATCH_A), stats_from_batch(*BATCH_B)).stats
    np.testing.assert_array_equal(out.S, [[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_array_equal(out.G, [[2.0], [2.0]])


def test_ledger_apply_negative_count():
    a = stats_from_batch(*BATCH_A)
    with pytest.raises(NegativeCount):
        ledger_apply(ledger_init(2, 1), SufficientStats.zero(2, 1), a)
    # the round's adds count: 2 held + 2 added cannot lose 5
    with pytest.raises(NegativeCount):
        ledger_apply(_held(a), a, SufficientStats(a.S, a.G, 5))


@pytest.mark.parametrize("adds, deletes", [(4, 3), (4, 0), (0, 3), (0, 0)])
def test_ledger_apply_is_bitwise_s_plus_adds_minus_deletes(adds, deletes):
    rng = np.random.default_rng(11)
    d, c = 5, 2

    def side(n):
        if not n:
            return SufficientStats.zero(d, c)
        return stats_from_batch(rng.standard_normal((n, d)), rng.standard_normal((n, c)))

    led, add, delete = _held(side(9), d=d, c=c), side(adds), side(deletes)
    inputs = [m.copy() for m in (led.stats.S, led.stats.G, add.S, add.G, delete.S, delete.G)]
    out = ledger_apply(led, add, delete)
    assert out.t == led.t + 1 and out.stats.n == 9 + adds - deletes
    for got, held, plus, minus in ((out.stats.S, *inputs[0::2]), (out.stats.G, *inputs[1::2])):
        assert got.tobytes() == ((held + plus) - minus).tobytes()
    # no operand is written, and a round of no samples shares the ledger's arrays
    for m, copy in zip((led.stats.S, led.stats.G, add.S, add.G, delete.S, delete.G), inputs):
        assert m.tobytes() == copy.tobytes()
    assert (out.stats.S is led.stats.S and out.stats.G is led.stats.G) == (not adds and not deletes)


@pytest.mark.parametrize(
    "add, delete", [((3, 1), (2, 1)), ((2, 1), (2, 3)), ((1, 1), (1, 1))], ids=["add-d3", "delete-c3", "both-d1"]
)
def test_ledger_apply_checks_the_shape_of_an_empty_side(add, delete):
    with pytest.raises(DimensionMismatch):
        ledger_apply(_held(stats_from_batch(*BATCH_A)), SufficientStats.zero(*add), SufficientStats.zero(*delete))


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
    led1 = _held(stats_from_batch(*BATCH_A), stats_from_batch(*BATCH_B))
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


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_ledger_factor_and_head_are_read_only_and_computed_once(precision):
    # every caller, the posterior included, receives these same arrays, so none may write them
    led = ledger_init(2, 1, precision=precision)
    led = ledger_apply(led, stats_from_batch(*BATCH_B, led.dtype), SufficientStats.zero(2, 1, led.dtype))
    for name in ("factor", "head"):
        array = getattr(led, name)
        assert array is getattr(led, name) and array.dtype == led.dtype and not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    np.testing.assert_allclose(led.factor @ led.factor.T, [[2.0, 1.0], [1.0, 2.0]], rtol=1e-6)


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
        return _held(*items, d=6, c=2).stats
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


@pytest.mark.parametrize(
    "gamma, precision", [(1e-320, "f32"), (1e-46, "f32"), (1e39, "f32"), (10**400, "f32"), (10**400, "f64")]
)
def test_gamma_must_be_positive_and_finite_in_the_ledger_precision(gamma, precision):
    # in float32 the first two round to 0 and the third overflows, with no RuntimeWarning;
    # an int beyond every float is inf in either precision
    with pytest.raises(ValueError, match=f"gamma must be positive and finite in {precision}"):
        ledger_init(2, 1, gamma=gamma, precision=precision)


@pytest.mark.parametrize("gamma, precision", [(1e-40, "f32"), (3e38, "f32"), (1e-320, "f64")])
def test_a_subnormal_or_near_overflow_gamma_is_kept(gamma, precision):
    assert ledger_init(2, 1, gamma=gamma, precision=precision).gamma == gamma


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
