"""Named property suites behind `fedridge verify`.

Each property measures one number and compares it against its stated
tolerance; `verify` prints one line per property.  The tolerances here are
the same ones the test suite pins, so a passing `verify` run is a quick
field check that the protocol's guarantees hold in this environment.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .client import (
    ClientStore,
    VARIANT_FULL,
    VARIANT_QR,
    variant_a_payload_scalars,
    variant_b_payload_scalars,
)
from .inverse import InverseState, smw_step
from .kernels import (
    NotSPD,
    cholesky_spd,
    frobenius_norm,
    rel_frobenius_dev,
    solve_spd,
    spd_inverse,
    spectral_norm,
    symmetric_eig,
    thin_qr_rfactor,
)
from .posterior import MatrixNormalPosterior, kl_matrix_normal, posterior_from_state
from .simulate import (
    Scenario,
    dirichlet_partition,
    gen_synthetic,
    grouped_round,
    run_scenario,
    schedule_churn,
)
from .stats import Ledger, stats_from_batch
from .wire import encode_message


@dataclass(frozen=True)
class Property:
    name: str
    description: str
    tolerance: float
    direction: str  # "le": measured <= tol passes; "ge": measured >= tol passes
    fn: Callable[[int], float]

    def run(self, seed: int, tol_override: float | None = None):
        measured = self.fn(seed)
        tol = self.tolerance if tol_override is None else tol_override
        ok = measured <= tol if self.direction == "le" else measured >= tol
        return ok, measured, tol


def _rng(seed, salt):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(zlib.crc32(salt.encode()),)))


def _symmetrize(a: np.ndarray) -> np.ndarray:
    return (a + a.T) / 2


# Every property reduces its measurements with np.max, which carries a NaN
# through (built-in max drops it or not by its position), and a NaN fails
# every tolerance comparison.
def _worst(values) -> float:
    return float(np.max(np.asarray(values, dtype=np.float64), initial=0.0))


def _random_spd(rng, d, gamma=1.0):
    m = rng.standard_normal((d, d))
    return m.T @ m + gamma * np.eye(d)


# ---------------------------------------------------------------------------
# kernel properties


def _kernel_roundtrip(seed):
    rng = _rng(seed, "kernel")
    devs = []
    for _ in range(20):
        d = int(rng.integers(1, 33))
        a = _random_spd(rng, d)
        x0 = rng.standard_normal((d, int(rng.integers(1, 5))))
        x = solve_spd(cholesky_spd(a), a @ x0)
        devs.append(rel_frobenius_dev(x, x0))
    return _worst(devs)


def _qr_gram(seed):
    rng = _rng(seed, "qr")
    devs = []
    for _ in range(20):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(1, 65))
        f = rng.standard_normal((n, d))
        r = thin_qr_rfactor(f)
        devs.append(rel_frobenius_dev(r.T @ r, f.T @ f))
    return _worst(devs)


def _eig_reconstruction(seed):
    rng = _rng(seed, "eig")
    devs = []
    for _ in range(10):
        d = int(rng.integers(2, 25))
        a = _random_spd(rng, d, gamma=0.0) + np.diag(rng.standard_normal(d))
        vals, vecs = symmetric_eig(a)
        devs.append(rel_frobenius_dev(vecs @ np.diag(vals) @ vecs.T, a))
    return _worst(devs)


def _eig_orthogonality(seed):
    rng = _rng(seed, "eigq")
    devs = []
    for _ in range(10):
        d = int(rng.integers(2, 25))
        vals, vecs = symmetric_eig(_random_spd(rng, d))
        devs.append(frobenius_norm(vecs.T @ vecs - np.eye(d)))
    return _worst(devs)


# ---------------------------------------------------------------------------
# statistics and head properties


def _second_order_lemma(seed):
    a = stats_from_batch(np.eye(2), np.ones((2, 1)))
    b = stats_from_batch(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))
    led_a = Ledger(a, 1, 1.0, "f64")
    led_b = Ledger(b, 1, 1.0, "f64")
    return rel_frobenius_dev(led_a.head, led_b.head)


@lru_cache(maxsize=4)
def _churn_result(seed):
    data = gen_synthetic(seed, 500, 16, 4, 2.0)
    assignments = dirichlet_partition(seed, data.classes[: data.n_train], 5, 0.5)
    schedule = schedule_churn(seed, assignments, rounds=30, adds_per_round=2, deletes_per_round=5)
    scenario = Scenario(
        seed=seed,
        d=16,
        c=4,
        clients=5,
        n=500,
        n_train=data.n_train,
        gamma=1.0,
        precision="f64",
        variant="both",
        partition={"kind": "dirichlet", "alpha": 0.5},
        schedule=schedule,
    )
    return run_scenario(scenario, data.features, data.labels)


def _retrain_equivalence(seed):
    result = _churn_result(seed)
    return float(np.max([rec.variants["A"].rel_dev for rec in result.records]))


def _variant_equivalence(seed):
    result = _churn_result(seed)
    return float(np.max([rec.variants["B"].rel_dev for rec in result.records]))


def _churn_kls(seed) -> np.ndarray:
    return np.array([m.kl for rec in _churn_result(seed).records for m in rec.variants.values()])


def _kl_certificate(seed):
    return float(np.max(_churn_kls(seed)))


def _kl_floor(seed):
    return float(np.maximum(0.0, -np.min(_churn_kls(seed))))


def _order_invariance(seed):
    heads = equivalent_shuffled_heads(seed, shuffles=6, n=240, d=12, c=3, clients=4)
    return _worst(
        [rel_frobenius_dev(heads[i], heads[j]) for i in range(len(heads)) for j in range(i + 1, len(heads))]
    )


# ---------------------------------------------------------------------------
# inverse-tracking properties


def _downdate_lemma(seed):
    rng = _rng(seed, "downdate")
    misses = []
    for trial in range(1000):
        d = 6
        k = int(rng.integers(1, 5))
        h = _random_spd(rng, d, gamma=float(rng.uniform(0.1, 2.0)))
        t = spd_inverse(h)
        u = rng.standard_normal((k, d))
        lam0 = spectral_norm(_symmetrize(u @ t @ u.T))
        if trial % 2 == 0 and lam0 > 0:
            u = u * math.sqrt(rng.uniform(0.8, 1.2) / lam0)
        lam = spectral_norm(_symmetrize(u @ t @ u.T))
        try:
            cholesky_spd(h - u.T @ u)
            cond_i = True
        except NotSPD:
            cond_i = False
        try:
            cholesky_spd(np.eye(u.shape[0]) - _symmetrize(u @ t @ u.T))
            cond_ii = True
        except NotSPD:
            cond_ii = False
        cond_iii = lam < 1.0
        if not (cond_i == cond_ii == cond_iii):
            misses.append(abs(lam - 1.0))
    return _worst(misses)


def _add_delete_roundtrip(seed):
    rng = _rng(seed, "roundtrip")
    devs = []
    for _ in range(50):
        d = int(rng.integers(2, 17))
        t0 = spd_inverse(_random_spd(rng, d))
        state = InverseState(t0, rng.standard_normal((d, 2)))
        u = rng.standard_normal((int(rng.integers(1, 5)), d))
        g = rng.standard_normal((d, 2))
        back = smw_step(smw_step(state, u, g).state, u, g, delete=True).state
        devs.append(rel_frobenius_dev(back.T, state.T))
    return _worst(devs)


def _psd_monotonicity(seed):
    rng = _rng(seed, "psd")
    devs = []
    for _ in range(50):
        d = int(rng.integers(2, 13))
        t0 = spd_inverse(_random_spd(rng, d))
        state = InverseState(t0, np.zeros((d, 1)))
        u = rng.standard_normal((int(rng.integers(1, 4)), d))
        lam = spectral_norm(_symmetrize(u @ t0 @ u.T))
        u = u * math.sqrt(0.5 / max(lam, 1e-12))
        ref = frobenius_norm(t0)
        after_del = smw_step(state, u, np.zeros((d, 1)), delete=True).state
        vals, _ = symmetric_eig(after_del.T - t0)
        devs.append(-float(vals[-1]) / ref)
        after_add = smw_step(state, u, np.zeros((d, 1))).state
        vals, _ = symmetric_eig(after_add.T - t0)
        devs.append(float(vals[0]) / ref)
    return _worst(devs)


# ---------------------------------------------------------------------------
# posteriors and bounds


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


def _kl_reduction(seed):
    rng = _rng(seed, "kl")
    gaps = []
    for trial in range(40):
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        if trial % 2:
            # a served state's posterior N(W, sigma2 T), carrying its covariance factor
            state = InverseState(spd_inverse(_random_spd(rng, d, 0.5)), rng.standard_normal((d, c)))
            p = posterior_from_state(state, float(rng.uniform(0.5, 2.0)))
        else:
            p = MatrixNormalPosterior(rng.standard_normal((d, c)), cholesky_spd(_random_spd(rng, d, 0.5)))
        q = MatrixNormalPosterior(rng.standard_normal((d, c)), cholesky_spd(_random_spd(rng, d, 0.5)))
        gaps.append(abs(kl_matrix_normal(p, q) - _dense_vectorized_kl(p, q)))
    return float(np.max(gaps))


def _perturbation_bound(seed):
    rng = _rng(seed, "bound")
    ratios = []
    for _ in range(500):
        d = 12
        h = _random_spd(rng, d, gamma=1.0)
        k = int(rng.integers(1, 7))
        a = rng.standard_normal((k, d)) * float(rng.uniform(0.2, 2.0))
        ds = a.T @ a
        r = int(rng.integers(0, k))
        vals, vecs = symmetric_eig(ds)
        kept = vecs[:, :r] * vals[:r]
        ds_r = _symmetrize(kept @ vecs[:, :r].T)
        err = ds - ds_r
        t_ap = spd_inverse(h + ds_r)
        # err ⪰ 0, so T ≼ T_ap and T_ap - T = T_ap err T bounds every trial, with no contraction test
        bound = spectral_norm(t_ap) ** 2 * spectral_norm(err)
        gap = spectral_norm(spd_inverse(h + ds) - t_ap)
        if bound == 0.0:
            ratios.append(math.inf if gap > 1e-12 else 0.0)
            continue
        ratios.append(gap / bound)
    return _worst(ratios)


def _comm_accounting(seed):
    rng = _rng(seed, "comm")
    gaps = []
    for _ in range(10):
        d = int(rng.integers(1, 9))
        c = int(rng.integers(1, 4))
        n_add = int(rng.integers(0, 6))
        features, labels = rng.standard_normal((n_add, d)), rng.standard_normal((n_add, c))
        msg = ClientStore(0, features, labels, "f64").make_round_message(1, range(n_add), [], VARIANT_FULL)
        # the empty delete side is a header-only frame
        expect = variant_a_payload_scalars(n_add, d, c) + variant_a_payload_scalars(0, d, c)
        gaps.append(abs(msg.scalar_count - expect))
        msg_b = ClientStore(1, features, labels, "f64").make_round_message(1, range(n_add), [], VARIANT_QR)
        expect_b = variant_b_payload_scalars(n_add, d, c) + variant_b_payload_scalars(0, d, c)
        gaps.append(abs(msg_b.scalar_count - expect_b))
        # the counts are what the frames hold: two 28-byte headers plus the scalars
        for m in (msg, msg_b):
            gaps.append(abs(len(encode_message(m, "f64")) - (2 * 28 + 8 * m.scalar_count)))
    return _worst(gaps)


# ---------------------------------------------------------------------------
# shared helpers for invariance checks


def equivalent_shuffled_heads(seed: int, shuffles: int, n: int, d: int, c: int, clients: int) -> list[np.ndarray]:
    """Final heads from randomized replays with the same final multiset.

    Every replay re-partitions the samples across clients, re-groups the
    additions into three waves, and spreads the same deletions (30% of the
    training split) over random later rounds; all of them retain exactly
    the same final multiset, so all final heads must agree up to floating
    reordering.
    """
    data = gen_synthetic(seed, n, d, c, 2.0)
    pool = list(range(data.n_train))
    base = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99,)))
    delete_ids = sorted(int(i) for i in base.choice(pool, int(len(pool) * 0.3), replace=False))
    heads = []
    for shuffle in range(shuffles):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(100 + shuffle,)))
        order = rng.permutation(pool)
        bounds = sorted(rng.choice(np.arange(1, len(pool)), clients - 1, replace=False))
        owners = {int(i): client for client, part in enumerate(np.split(order, bounds)) for i in part}
        waves = np.split(rng.permutation(pool), [len(pool) // 3, 2 * len(pool) // 3])
        add_round = {int(i): 1 + w for w, wave in enumerate(waves) for i in wave}
        last_add = 3
        del_round = {i: int(rng.integers(add_round[i] + 1, last_add + 4)) for i in delete_ids}
        schedule = [
            grouped_round(
                t, owners, [i for i in pool if add_round[i] == t], [i for i in delete_ids if del_round[i] == t]
            )
            for t in range(1, max([last_add, *del_round.values()]) + 1)
        ]
        scenario = Scenario(
            seed=seed,
            d=d,
            c=c,
            clients=clients,
            n=n,
            n_train=data.n_train,
            gamma=1.0,
            precision="f64",
            variant="A",
            partition={"kind": "shuffled"},
            schedule=schedule,
        )
        heads.append(run_scenario(scenario, data.features, data.labels).final_heads["A"])
    return heads


PROPERTIES = [
    Property("kernel-roundtrip", "Cholesky solve recovers planted solutions", 1e-9, "le", _kernel_roundtrip),
    Property("qr-gram", "R factor reproduces the Gram matrix", 1e-12, "le", _qr_gram),
    Property("eig-reconstruction", "LAPACK eigendecomposition reconstructs A", 1e-10, "le", _eig_reconstruction),
    Property("eig-orthogonality", "LAPACK eigenvectors are orthonormal", 1e-9, "le", _eig_orthogonality),
    Property("second-order-lemma", "first-moment twins yield distinct heads", 0.3, "ge", _second_order_lemma),
    Property("retrain-equivalence", "full-recompute head matches the oracle each round", 1e-9, "le", _retrain_equivalence),
    Property("variant-equivalence", "inverse-tracking head matches the oracle each round", 1e-8, "le", _variant_equivalence),
    Property("order-invariance", "shuffled replays agree on the final head", 1e-10, "le", _order_invariance),
    Property("downdate-lemma", "three downdate feasibility conditions agree", 1e-8, "le", _downdate_lemma),
    Property("add-delete-roundtrip", "delete undoes add exactly", 1e-10, "le", _add_delete_roundtrip),
    Property("psd-monotonicity", "deletes grow and adds shrink the tracked inverse", 1e-9, "le", _psd_monotonicity),
    Property("kl-reduction", "matrix-normal KL matches the dense Gaussian KL", 1e-10, "le", _kl_reduction),
    Property("kl-certificate", "protocol posterior has (near) zero KL to retrain", 1e-9, "le", _kl_certificate),
    Property("kl-floor", "computed KL never goes meaningfully negative", 1e-12, "le", _kl_floor),
    Property("perturbation-bound", "measured truncation gap within the stated bound", 1.0 + 1e-6, "le", _perturbation_bound),
    Property("comm-accounting", "message scalar counts match the size formulas and the frames", 0.0, "le", _comm_accounting),
]


def run_properties(seed: int = 7, only: str | None = None, tol_override: float | None = None):
    """Run the suites; yields (name, ok, measured, tolerance, description)."""
    selected = [p for p in PROPERTIES if only is None or p.name == only]
    if only is not None and not selected:
        raise KeyError(f"unknown property {only!r}; known: {', '.join(p.name for p in PROPERTIES)}")
    for prop in selected:
        ok, measured, tol = prop.run(seed, tol_override)
        yield prop.name, ok, measured, tol, prop.description
