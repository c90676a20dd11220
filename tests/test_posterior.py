"""Matrix-normal posterior, KL reduction, PSD ordering."""

import numpy as np
import pytest

from fedridge.inverse import InverseState
from fedridge.kernels import NotSPD, rel_frobenius_dev
from fedridge.posterior import (
    MatrixNormalPosterior,
    kl_matrix_normal,
    posterior_from_ledger,
    posterior_from_state,
)
from fedridge.simulate import RetainedGram, oracle_retrain
from fedridge.stats import Ledger, SufficientStats, ledger_apply, ledger_init, stats_from_batch

BATCH_A = (np.eye(2), np.ones((2, 1)))
BATCH_B = (np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))


def _dense_vectorized_kl(p: MatrixNormalPosterior, q: MatrixNormalPosterior) -> float:
    # Independent oracle: the generic multivariate-normal KL on the full
    # dc x dc Kronecker covariance.
    c1 = np.kron(np.eye(p.c), p.Sigma)
    c2 = np.kron(np.eye(q.c), q.Sigma)
    dm = (q.M - p.M).flatten(order="F")
    inv2 = np.linalg.inv(c2)
    big_d = c1.shape[0]
    _, ld1 = np.linalg.slogdet(c1)
    _, ld2 = np.linalg.slogdet(c2)
    return 0.5 * (float(np.trace(inv2 @ c1)) - big_d + float(dm @ inv2 @ dm) + ld2 - ld1)


def _ledger_with(batch):
    led = ledger_init(2, 1)
    return ledger_apply(led, stats_from_batch(*batch), SufficientStats.zero(2, 1))


def test_posterior_of_empty_ledger():
    post = posterior_from_ledger(ledger_init(2, 1))
    np.testing.assert_array_equal(post.M, np.zeros((2, 1)))
    np.testing.assert_allclose(post.Sigma, np.eye(2), rtol=1e-15)


def test_posterior_of_batch_a():
    post = posterior_from_ledger(_ledger_with(BATCH_A))
    np.testing.assert_allclose(post.M, [[0.5], [0.5]], rtol=1e-15)
    np.testing.assert_allclose(post.Sigma, 0.5 * np.eye(2), rtol=1e-14)


def test_posterior_of_batch_b_scaled_noise():
    # the certificate is taken at unit noise: Sigma = (S + I)^-1 = [[2, 1], [1, 2]]^-1
    post = posterior_from_ledger(_ledger_with(BATCH_B))
    np.testing.assert_allclose(post.Sigma, (1 / 3) * np.array([[2.0, -1.0], [-1.0, 2.0]]), rtol=1e-13)


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


def _random_sigma(rng, d, floor):
    m = rng.standard_normal((d, d))
    return m.T @ m + floor * np.eye(d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_kl_from_covariance_factor_matches_dense_oracle(d, c):
    # a served state's posterior N(W, T) carries C = Uᵀ with T = U Uᵀ; T is scaled by a draw in [0.5, 2)
    rng = np.random.default_rng(100 + 10 * d + c)
    for _ in range(10):
        t = _random_sigma(rng, d, 0.3) * float(rng.uniform(0.5, 2.0))
        p = posterior_from_state(InverseState(t, rng.standard_normal((d, c))))
        assert p.P is None and np.array_equal(p.C, np.tril(p.C))
        np.testing.assert_allclose(p.Sigma, t, rtol=1e-12, atol=1e-12)
        q = MatrixNormalPosterior(
            rng.standard_normal((d, c)), np.linalg.cholesky(np.linalg.inv(_random_sigma(rng, d, 0.3)))
        )
        kl = kl_matrix_normal(p, q)
        assert kl == pytest.approx(_dense_vectorized_kl(p, q), abs=1e-10)
        # the same posterior through its precision factor P = C^-1
        as_precision = MatrixNormalPosterior(p.M, np.linalg.cholesky(np.linalg.inv(t)))
        assert kl == pytest.approx(kl_matrix_normal(as_precision, q), rel=1e-9, abs=1e-12)


def test_posterior_from_state_self_kl_is_zero():
    led = _ledger_with(BATCH_B)
    served = posterior_from_state(InverseState(np.linalg.inv(led.factor @ led.factor.T), led.head))
    assert abs(kl_matrix_normal(served, posterior_from_ledger(led))) <= 1e-20


@pytest.mark.parametrize(
    "t",
    [-np.eye(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), np.full((2, 2), np.inf), np.zeros((2, 2)), np.ones((2, 2))],
)
def test_posterior_from_state_rejects_a_bad_t(t):
    with pytest.raises(NotSPD):
        posterior_from_state(InverseState(t, np.zeros((2, 1))))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", [(1, 1), (2, 0), (0, 2)], ids=["diagonal", "lower", "upper"])
def test_posterior_from_state_rejects_one_non_finite_entry_anywhere(where, value):
    # the reverse Cholesky reads only T's upper triangle, so an entry below the diagonal
    # is refused by the finiteness pass alone
    t = np.eye(3) + 0.1
    t[where] = value
    with pytest.raises(NotSPD):
        posterior_from_state(InverseState(t, np.zeros((3, 1))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 5, 17])
def test_posterior_from_state_factors_t_in_float64(dtype, d):
    rng = np.random.default_rng(d)
    m = rng.standard_normal((d, d))
    t = np.linalg.inv(m.T @ m + np.eye(d))
    t = ((t + t.T) / 2).astype(dtype)
    w = rng.standard_normal((d, 2)).astype(dtype)
    post = posterior_from_state(InverseState(t, w))
    assert post.M is w and post.P is None
    assert post.C.dtype == np.float64
    assert np.array_equal(post.C, np.tril(post.C)) and np.all(np.diagonal(post.C) > 0)
    assert rel_frobenius_dev(post.Sigma, t.astype(np.float64)) <= 1e-13


def test_posterior_carries_exactly_one_factor():
    with pytest.raises(ValueError):
        MatrixNormalPosterior(np.zeros((1, 1)))
    with pytest.raises(ValueError):
        MatrixNormalPosterior(np.zeros((1, 1)), P=np.eye(1), C=np.eye(1))
    covariance_form = MatrixNormalPosterior(np.zeros((1, 1)), C=np.eye(1))
    with pytest.raises(ValueError):  # the reference must carry its precision factor
        kl_matrix_normal(covariance_form, covariance_form)


def test_an_addition_shrinks_the_row_covariance_in_the_psd_order():
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
        # before - after is PSD up to roundoff
        assert np.linalg.eigvalsh(before - after)[0] >= -1e-9 * np.linalg.norm(before), d

