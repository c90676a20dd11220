"""SMW inverse tracking: updates, downdates, feasibility, drift."""

import dataclasses

import numpy as np
import pytest

from fedridge.inverse import (
    DowndateInfeasible,
    InverseState,
    audit_drift,
    init_from_ledger,
    smw_step,
)
from fedridge.kernels import NotSPD, cholesky_spd, frobenius_norm, rel_frobenius_dev, symmetric_eig, thin_qr_rfactor
from fedridge.stats import SufficientStats, ledger_apply, ledger_init, stats_from_batch

BATCH_A = (np.eye(2), np.ones((2, 1)))
BATCH_B = (np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))


def _ledger_with(batch):
    led = ledger_init(2, 1)
    return ledger_apply(led, stats_from_batch(*batch), SufficientStats.zero(2, 1))


def test_init_from_empty_ledger():
    st = init_from_ledger(ledger_init(2, 1))
    np.testing.assert_array_equal(st.T, np.eye(2))
    np.testing.assert_array_equal(st.W, np.zeros((2, 1)))


def test_init_from_batch_a_ledger():
    st = init_from_ledger(_ledger_with(BATCH_A))
    np.testing.assert_allclose(st.T, 0.5 * np.eye(2), rtol=1e-15)
    np.testing.assert_allclose(st.W, [[0.5], [0.5]], rtol=1e-15)


def test_init_from_batch_b_ledger():
    st = init_from_ledger(_ledger_with(BATCH_B))
    np.testing.assert_allclose(st.T, np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3, rtol=1e-14)


def test_smw_add_matches_direct_inverse():
    st = init_from_ledger(ledger_init(2, 1))
    out = smw_step(st, np.eye(2), np.ones((2, 1))).state
    np.testing.assert_allclose(out.T, 0.5 * np.eye(2), rtol=1e-14)
    np.testing.assert_allclose(out.W, [[0.5], [0.5]], rtol=1e-14)


@pytest.mark.parametrize("delete", [False, True])
def test_smw_step_carries_the_neglected_mass(delete):
    # only T and W change; approx mode's Σ survives every step
    st = dataclasses.replace(init_from_ledger(_ledger_with(BATCH_A)), neglected_mass=0.25)
    out = smw_step(st, 0.5 * np.eye(2)[:1], np.zeros((2, 1)), delete=delete).state
    assert out.neglected_mass == 0.25
    assert init_from_ledger(_ledger_with(BATCH_A)).neglected_mass == 0.0


@pytest.mark.parametrize("delete", [False, True])
def test_smw_step_leaves_its_input_state_unchanged(delete):
    rng = np.random.default_rng(35)
    d = 70  # past one 64-row solve block
    f = rng.standard_normal((90, d))
    led = ledger_apply(ledger_init(d, 2), stats_from_batch(f, f[:, :2]), SufficientStats.zero(d, 2))
    st = init_from_ledger(led)
    t, w = st.T.copy(), st.W.copy()
    # two retained samples, so the delete is feasible
    u, _ = thin_qr_rfactor(f[:2], f[:2, :2])
    out = smw_step(st, u, f[:2].T @ f[:2, :2], delete=delete).state
    assert st.T.tobytes() == t.tobytes() and st.W.tobytes() == w.tobytes()
    assert not np.shares_memory(out.T, st.T) and not np.shares_memory(out.W, st.W)


def test_smw_add_empty_is_identity():
    st = init_from_ledger(_ledger_with(BATCH_A))
    out = smw_step(st, np.zeros((0, 2)), np.zeros((2, 1))).state
    assert out is st


def test_smw_add_qr_factor_matches_head():
    st = init_from_ledger(ledger_init(2, 1))
    r, _ = thin_qr_rfactor(*BATCH_B)
    out = smw_step(st, r, stats_from_batch(*BATCH_B).G).state
    np.testing.assert_allclose(out.W, [[1 / 3], [1 / 3]], rtol=1e-12)


def test_smw_delete_round_trip_to_empty():
    st = init_from_ledger(ledger_init(2, 1))
    added = smw_step(st, np.eye(2), np.ones((2, 1))).state
    back = smw_step(added, np.eye(2), np.ones((2, 1)), delete=True).state
    np.testing.assert_allclose(back.T, np.eye(2), rtol=1e-12)
    np.testing.assert_allclose(back.W, np.zeros((2, 1)), atol=1e-14)


def test_smw_delete_infeasible_on_empty_state():
    st = init_from_ledger(ledger_init(2, 1))
    with pytest.raises(DowndateInfeasible):
        smw_step(st, np.eye(2), np.ones((2, 1)), delete=True)


def test_smw_delete_matches_rebuild():
    rng = np.random.default_rng(11)
    d, c = 8, 2
    f1 = rng.standard_normal((5, d))
    y1 = rng.standard_normal((5, c))
    f2 = rng.standard_normal((6, d))
    y2 = rng.standard_normal((6, c))
    led = ledger_init(d, c)
    led1 = ledger_apply(led, stats_from_batch(f1, y1), SufficientStats.zero(d, c))
    led12 = ledger_apply(led1, stats_from_batch(f2, y2), SufficientStats.zero(d, c))
    st = init_from_ledger(led)
    st = smw_step(st, thin_qr_rfactor(f1, y1)[0], stats_from_batch(f1, y1).G).state
    st = smw_step(st, thin_qr_rfactor(f2, y2)[0], stats_from_batch(f2, y2).G).state
    st = smw_step(st, thin_qr_rfactor(f1, y1)[0], stats_from_batch(f1, y1).G, delete=True).state
    led2 = ledger_apply(led, stats_from_batch(f2, y2), SufficientStats.zero(d, c))
    ref = init_from_ledger(led2)
    assert rel_frobenius_dev(st.T, ref.T) <= 1e-10
    assert rel_frobenius_dev(st.W, ref.W) <= 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("r", [1, 7, 70])
def test_smw_step_t_is_bitwise_symmetric_without_symmetrize(dtype, r):
    # T ∓ ZᵀZ is symmetric by construction; 70 rows take the blocked triangular solve
    import fedridge.inverse as inverse_mod
    import fedridge.kernels as kernels_mod

    assert not hasattr(inverse_mod, "symmetrize") and not hasattr(kernels_mod, "symmetrize")
    rng = np.random.default_rng(r)
    d, c = 90, 3
    f = rng.standard_normal((3 * d, d))
    led = ledger_apply(ledger_init(d, c, 1.0, "f64"), stats_from_batch(f, f[:, :c]), SufficientStats.zero(d, c))
    state = init_from_ledger(led)
    state = InverseState(state.T.astype(dtype), state.W.astype(dtype))
    u = rng.standard_normal((r, d)).astype(dtype)
    g = rng.standard_normal((d, c)).astype(dtype)
    added = smw_step(state, u, g).state
    back = smw_step(added, u, g, delete=True).state
    for t in (added.T, back.T):
        assert t.dtype == dtype and np.array_equal(t, t.T)
    assert rel_frobenius_dev(back.T, state.T) <= (1e-4 if dtype == np.float32 else 1e-12)


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-5), (np.float64, 1e-13)], ids=["f32", "f64"])
@pytest.mark.parametrize("delete", [False, True], ids=["add", "delete"])
def test_an_all_zero_row_of_u_leaves_the_step_unchanged(dtype, tol, delete):
    # U is taken as given: a zero row adds a unit row and column to the capacitance and nothing to T or W
    rng = np.random.default_rng(5)
    d, c = 12, 3
    f = rng.standard_normal((4 * d, d))
    led = ledger_apply(ledger_init(d, c, 1.0, "f64"), stats_from_batch(f, f[:, :c]), SufficientStats.zero(d, c))
    state = init_from_ledger(led)
    state = InverseState(state.T.astype(dtype), state.W.astype(dtype))
    u = (0.3 * f[:3]).astype(dtype)
    g = (u.T @ rng.standard_normal((3, c))).astype(dtype)
    padded = np.insert(u, 1, 0.0, axis=0)
    assert padded.shape == (4, d) and not padded[1].any()
    plain, with_zero = (smw_step(state, m, g, delete=delete) for m in (u, padded))
    for name in ("T", "W"):
        a, b = getattr(plain.state, name), getattr(with_zero.state, name)
        assert b.dtype == dtype and rel_frobenius_dev(b, a) <= tol, name
    assert with_zero.amplification == pytest.approx(plain.amplification, rel=tol)
    if delete:
        assert with_zero.lambda_max == pytest.approx(plain.lambda_max, rel=tol)


def _delete_step(t, u):
    state = InverseState(np.asarray(t, dtype=float), np.zeros((2, 1)))
    return smw_step(state, u, np.zeros((2, 1)), delete=True)


def test_feasibility_check_cases():
    assert _delete_step(0.5 * np.eye(2), np.eye(2)).lambda_max == pytest.approx(0.5, rel=1e-10)
    with pytest.raises(DowndateInfeasible):  # lambda_max = 1: on the boundary
        _delete_step(np.eye(2), np.eye(2))
    assert _delete_step(np.eye(2), np.array([[0.5, 0.0]])).lambda_max == pytest.approx(0.25, rel=1e-10)


def test_capacitance_condition_signals_boundary():
    assert _delete_step(np.eye(2), np.zeros((0, 2))).amplification == 1.0
    with pytest.raises(DowndateInfeasible):
        _delete_step(np.eye(2), np.eye(2))
    # one direction at the feasibility boundary, the other far from it:
    # C = diag(1e-7, 0.9) amplifies by 1e7, rejected at threshold 1e5 and
    # accepted at 1e8
    amplification = _delete_step(np.diag([1.0 - 1e-7, 0.1]), np.eye(2)).amplification
    assert amplification > 1e5
    assert amplification <= 1e8
    # C = I/2 halves one way and doubles the other
    assert _delete_step(0.5 * np.eye(2), np.eye(2)).amplification == pytest.approx(2.0)
    # an add's capacitance I + U T Uᵀ amplifies by its largest eigenvalue
    add = smw_step(InverseState(np.eye(2), np.zeros((2, 1))), 1e3 * np.eye(2), np.zeros((2, 1)))
    assert add.amplification == pytest.approx(1.0 + 1e6)
    assert add.lambda_max is None


def test_audit_drift_levels():
    rng = np.random.default_rng(12)
    d, c = 16, 2
    led = ledger_init(d, c)
    f = rng.standard_normal((30, d))
    y = rng.standard_normal((30, c))
    led = ledger_apply(led, stats_from_batch(f, y), SufficientStats.zero(d, c))
    st = init_from_ledger(led)
    assert audit_drift(st, led) <= 1e-12
    corrupt = st.T.copy()
    corrupt[1, 2] += 1e-3
    assert audit_drift(InverseState(corrupt, st.W), led) >= 1e-4


def test_audit_drift_after_two_hundred_rounds():
    # long mixed add/delete stream at d=64, no resets anywhere
    rng = np.random.default_rng(5)
    d, c = 64, 4
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    pool = []
    for _ in range(200):
        f = rng.standard_normal((int(rng.integers(1, 9)), d))
        y = rng.standard_normal((f.shape[0], c))
        st = stats_from_batch(f, y)
        r, _ = thin_qr_rfactor(f, y)
        state = smw_step(state, r, st.G).state
        ledger = ledger_apply(ledger, st, SufficientStats.zero(d, c))
        pool.append((r, st))
        if len(pool) > 3 and rng.random() < 0.6:
            r_del, st_del = pool.pop(int(rng.integers(0, len(pool))))
            state = smw_step(state, r_del, st_del.G, delete=True).state
            ledger = ledger_apply(ledger, SufficientStats.zero(d, c), st_del)
    assert audit_drift(state, ledger) <= 1e-8


def test_variant_equivalence_long_stream():
    # tracked head equals the ledger solve at every round
    rng = np.random.default_rng(13)
    d, c = 48, 3
    ledger = ledger_init(d, c)
    state = init_from_ledger(ledger)
    pool = []
    for _ in range(120):
        r_rows = int(rng.integers(1, 17))
        f = rng.standard_normal((r_rows, d))
        y = rng.standard_normal((r_rows, c))
        st = stats_from_batch(f, y)
        ledger = ledger_apply(ledger, st, SufficientStats.zero(d, c))
        r, _ = thin_qr_rfactor(f, y)
        state = smw_step(state, r, st.G).state
        pool.append((r, st))
        if len(pool) > 2 and rng.random() < 0.5:
            r_del, st_del = pool.pop(int(rng.integers(0, len(pool))))
            ledger = ledger_apply(ledger, SufficientStats.zero(d, c), st_del)
            state = smw_step(state, r_del, st_del.G, delete=True).state
        assert rel_frobenius_dev(state.W, ledger.head) <= 1e-8


def test_add_then_delete_identity_random():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d = int(rng.integers(2, 17))
        m = rng.standard_normal((d, d))
        led = ledger_init(d, 2)
        led = ledger_apply(
            led, stats_from_batch(m, rng.standard_normal((d, 2))), SufficientStats.zero(d, 2)
        )
        st = init_from_ledger(led)
        u = rng.standard_normal((int(rng.integers(1, 5)), d))
        g = rng.standard_normal((d, 2))
        back = smw_step(smw_step(st, u, g).state, u, g, delete=True).state
        assert rel_frobenius_dev(back.T, st.T) <= 1e-10


def test_psd_monotonicity_of_updates():
    rng = np.random.default_rng(15)
    for _ in range(20):
        d = int(rng.integers(2, 13))
        m = rng.standard_normal((d, d))
        led = ledger_init(d, 1)
        led = ledger_apply(
            led, stats_from_batch(m, rng.standard_normal((d, 1))), SufficientStats.zero(d, 1)
        )
        st = init_from_ledger(led)
        u = rng.standard_normal((2, d)) * 0.3
        floor = 1e-9 * frobenius_norm(st.T)
        deleted = smw_step(st, u, np.zeros((d, 1)), delete=True).state
        vals, _ = symmetric_eig(deleted.T - st.T)
        assert vals[-1] >= -floor  # deletes only increase T
        added = smw_step(st, u, np.zeros((d, 1))).state
        vals, _ = symmetric_eig(added.T - st.T)
        assert vals[0] <= floor  # adds only decrease T


@pytest.mark.parametrize("offset", [1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["inside", "outside"])
def test_downdate_conditions_agree_next_to_the_boundary(side, offset):
    # U is scaled so that λ = λ_max(U T Uᵀ) = 1 + side·offset.  The three lemma conditions,
    # (i) H - UᵀU is SPD, (ii) I - U T Uᵀ is SPD and (iii) λ < 1, and the delete step's own
    # check must all say feasible inside the boundary and infeasible outside it; a pivot test
    # shifted by as little as 1e-6 disagrees here, where λ drawn over [0.8, 1.2] seldom lands
    rng = np.random.default_rng(16)
    feasible = side < 0
    d = 6
    for trial in range(40):
        k = int(rng.integers(1, 5))
        m = rng.standard_normal((d, d))
        h = m.T @ m + float(rng.uniform(0.1, 2.0)) * np.eye(d)
        t = np.linalg.inv(h)
        t = (t + t.T) / 2
        u = rng.standard_normal((k, d))
        u *= np.sqrt((1.0 + side * offset) / np.linalg.eigvalsh(u @ t @ u.T)[-1])
        capacitance = u @ t @ u.T
        lam = float(np.linalg.eigvalsh(capacitance)[-1])
        conditions = []
        for a in (h - u.T @ u, np.eye(k) - (capacitance + capacitance.T) / 2):
            try:
                cholesky_spd(a)
                conditions.append(True)
            except NotSPD:
                conditions.append(False)
        conditions.append(lam < 1.0)
        try:
            step = smw_step(InverseState(t, np.zeros((d, 1))), u, np.zeros((d, 1)), delete=True)
            conditions.append(True)
            assert step.lambda_max == pytest.approx(lam, rel=1e-12), trial
        except DowndateInfeasible:
            conditions.append(False)
        assert conditions == [feasible] * 4, (trial, k, lam, conditions)
