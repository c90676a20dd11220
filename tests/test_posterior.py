"""Matrix-normal posterior, KL reduction, PSD ordering."""

import numpy as np
import pytest

from fedridge.posterior import (
    MatrixNormalPosterior,
    kl_matrix_normal,
    posterior_from_ledger,
    psd_order_check,
)
from fedridge.simulate import RetainedGram, oracle_retrain
from fedridge.stats import Ledger, SufficientStats, ledger_apply, ledger_init, stats_from_batch
from fedridge.verify import _dense_vectorized_kl

BATCH_A = (np.eye(2), np.ones((2, 1)))
BATCH_B = (np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))


def _ledger_with(batch):
    led = ledger_init(2, 1)
    return ledger_apply(led, stats_from_batch(*batch), SufficientStats.zero(2, 1))


def test_posterior_of_empty_ledger():
    post = posterior_from_ledger(ledger_init(2, 1), sigma2=1.0)
    np.testing.assert_array_equal(post.M, np.zeros((2, 1)))
    np.testing.assert_allclose(post.Sigma, np.eye(2), rtol=1e-15)


def test_posterior_of_batch_a():
    post = posterior_from_ledger(_ledger_with(BATCH_A), sigma2=1.0)
    np.testing.assert_allclose(post.M, [[0.5], [0.5]], rtol=1e-15)
    np.testing.assert_allclose(post.Sigma, 0.5 * np.eye(2), rtol=1e-14)


def test_posterior_of_batch_b_scaled_noise():
    post = posterior_from_ledger(_ledger_with(BATCH_B), sigma2=2.0)
    np.testing.assert_allclose(post.Sigma, (2 / 3) * np.array([[2.0, -1.0], [-1.0, 2.0]]), rtol=1e-13)


def test_posterior_mode_matches_solve_head_bitwise():
    led = _ledger_with(BATCH_B)
    assert np.array_equal(posterior_from_ledger(led).M, led.head)


def test_kl_self_is_zero():
    post = posterior_from_ledger(_ledger_with(BATCH_A))
    assert abs(kl_matrix_normal(post, post)) <= 1e-10


def test_kl_scalar_gaussian_case():
    # precision factors P = chol(Sigma^-1) of the covariances 1 and 2
    p = MatrixNormalPosterior(np.zeros((1, 1)), np.array([[1.0]]))
    q = MatrixNormalPosterior(np.zeros((1, 1)), np.linalg.cholesky(np.linalg.inv([[2.0]])))
    expected = 0.5 * (0.5 - 1.0 + np.log(2.0))
    assert kl_matrix_normal(p, q) == pytest.approx(expected, rel=1e-12)


def test_kl_reduction_against_dense_oracle():
    # the matrix-normal formula must agree with the vectorized Gaussian KL
    rng = np.random.default_rng(40)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        def random_post():
            m = rng.standard_normal((d, d))
            sigma = m.T @ m + 0.3 * np.eye(d)
            return MatrixNormalPosterior(
                rng.standard_normal((d, c)), np.linalg.cholesky(np.linalg.inv(sigma))
            )
        p, q = random_post(), random_post()
        assert kl_matrix_normal(p, q) == pytest.approx(_dense_vectorized_kl(p, q), abs=1e-10)


def test_kl_nonnegative_over_random_pairs():
    rng = np.random.default_rng(41)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        c = int(rng.integers(1, 5))
        def random_post():
            m = rng.standard_normal((d, d))
            sigma = m.T @ m + 0.1 * np.eye(d)
            return MatrixNormalPosterior(
                rng.standard_normal((d, c)), np.linalg.cholesky(np.linalg.inv(sigma))
            )
        assert kl_matrix_normal(random_post(), random_post()) >= -1e-10


def test_zero_kl_certificate_protocol_vs_oracle():
    rng = np.random.default_rng(42)
    d, c = 10, 3
    f = rng.standard_normal((80, d))
    y = rng.standard_normal((80, c))
    led = ledger_init(d, c)
    # protocol path: three per-client contributions summed into the ledger
    for lo, hi in [(0, 30), (30, 55), (55, 80)]:
        led = ledger_apply(led, stats_from_batch(f[lo:hi], y[lo:hi]), SufficientStats.zero(d, c))
    oracle_led = Ledger(stats_from_batch(f, y), led.t, led.gamma, "f64")
    kl = kl_matrix_normal(posterior_from_ledger(led), posterior_from_ledger(oracle_led))
    assert -1e-12 <= kl <= 1e-9
    np.testing.assert_allclose(led.head, oracle_retrain(RetainedGram(f, y), np.ones(80, bool), 1.0)[0], rtol=1e-12)


def test_psd_order_check_directions():
    assert psd_order_check(0.5 * np.eye(2), np.eye(2))  # full deletion grows covariance
    assert not psd_order_check(np.eye(2), 0.5 * np.eye(2))
    rng = np.random.default_rng(43)
    for _ in range(20):
        d = int(rng.integers(2, 9))
        m = rng.standard_normal((d, d))
        led = ledger_init(d, 1)
        led = ledger_apply(
            led, stats_from_batch(m, rng.standard_normal((d, 1))), SufficientStats.zero(d, 1)
        )
        before = posterior_from_ledger(led).Sigma
        f_add = rng.standard_normal((3, d))
        led2 = ledger_apply(
            led, stats_from_batch(f_add, rng.standard_normal((3, 1))), SufficientStats.zero(d, 1)
        )
        after = posterior_from_ledger(led2).Sigma
        # additions shrink the covariance: reversed arguments pass
        assert psd_order_check(after, before)


def test_sigma2_must_be_positive():
    with pytest.raises(ValueError):
        posterior_from_ledger(ledger_init(2, 1), sigma2=0.0)
