"""Acceptance criteria, one test per criterion.

Each test prints one PASS line once its assertions hold; run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines alongside the pytest verdicts.
"""

import csv
import time
import zlib

import numpy as np
import pytest

from fedridge.cli import main
from fedridge.client import ClientStore, VARIANT_FULL, VARIANT_QR, payload_scalars
from fedridge.coordinator import RoundFold, account_round, aggregate, run_round_a
from fedridge.kernels import NotSPD, cholesky_spd, frobenius_norm, inverse_from_factor, rel_frobenius_dev, symmetric_eig
from fedridge.posterior import kl_matrix_normal, posterior_from_ledger
from fedridge.simulate import (
    RetainedGram,
    Scenario,
    dirichlet_partition,
    gen_synthetic,
    grouped_round,
    initial_round,
    metrics_csv,
    oracle_retrain,
    run_scenario,
    schedule_addback,
    schedule_burst,
    schedule_chunked,
    schedule_churn,
)
from fedridge.stats import Ledger, ledger_init, stats_from_batch
from fedridge.wire import read_feature_file


def _scenario(data, assignments, schedule, **kw):
    args = dict(
        seed=kw.pop("seed", 0),
        d=data.features.shape[1],
        c=data.labels.shape[1],
        clients=len(assignments),
        n=data.features.shape[0],
        n_train=data.n_train,
        gamma=1.0,
        precision="f64",
        variant="both",
        partition={"kind": "dirichlet", "alpha": 0.3},
        schedule=schedule,
    )
    args.update(kw)
    return Scenario(**args)


def test_criterion_01_retrain_equivalence_across_client_counts():
    worst = 0.0
    for clients in (10, 50, 100):
        started = time.monotonic()
        data = gen_synthetic(101, 5000, 64, 10, 4.0)
        parts = dirichlet_partition(101, data.classes[: data.n_train], clients, 0.3)
        schedule = schedule_churn(101, parts, rounds=6, adds_per_round=25, deletes_per_round=40)
        result = run_scenario(_scenario(data, parts, schedule, seed=101), data.features, data.labels)
        for rec in result.records:
            assert rec.variants["A"].rel_dev <= 1e-8
            assert rec.variants["B"].rel_dev <= 1e-8
            worst = max(worst, rec.variants["A"].rel_dev, rec.variants["B"].rel_dev)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, f"scenario with K={clients} took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 01 retrain-equivalence: PASS (worst per-round dev {worst:.3e} <= 1e-8)")


def test_criterion_02_precision_study():
    devs = {"f64": [], "f32": []}
    for seed in range(10):
        data = gen_synthetic(seed, 5000, 64, 10, 4.0)
        parts = dirichlet_partition(seed, data.classes[: data.n_train], 10, 0.3)
        schedule = [initial_round(parts)]
        for prec in devs:
            res = run_scenario(
                _scenario(data, parts, schedule, seed=seed, precision=prec),
                data.features,
                data.labels,
            )
            last = res.records[-1]
            devs[prec].append(max(last.variants["A"].rel_dev, last.variants["B"].rel_dev))
    med64 = float(np.median(devs["f64"]))
    med32 = float(np.median(devs["f32"]))
    assert med32 >= 100 * med64
    assert max(devs["f64"]) <= 1e-8
    assert min(devs["f32"]) >= 1e-7
    print(
        f"ACCEPTANCE 02 precision-study: PASS (median f32 {med32:.3e} >= 100x median f64 "
        f"{med64:.3e}; f64 max {max(devs['f64']):.3e}, f32 min {min(devs['f32']):.3e})"
    )


def test_criterion_03_burst_delete_then_addback():
    started = time.monotonic()
    data = gen_synthetic(103, 1250, 32, 4, 3.0)
    parts = dirichlet_partition(103, data.classes[: data.n_train], 10, 0.3)
    first = initial_round(parts)
    burst = schedule_burst(103, parts, 200)
    schedule = [first] + burst + schedule_addback(burst)
    scenario = _scenario(data, parts, schedule, seed=103)
    result = run_scenario(scenario, data.features, data.labels)
    initial = np.zeros(data.features.shape[0], dtype=bool)
    initial[[i for ids in parts for i in ids]] = True
    w_pre, _ = oracle_retrain(RetainedGram(data.features, data.labels), initial, scenario.gamma)
    # deletions-only phase: per-round oracle deviation
    for rec in result.records[: 1 + len(burst)]:
        assert rec.variants["A"].rel_dev <= 1e-9
        assert rec.variants["B"].rel_dev <= 1e-9
    dev_a = rel_frobenius_dev(result.final_heads["A"], w_pre)
    dev_b = rel_frobenius_dev(result.final_heads["B"], w_pre)
    assert dev_a <= 1e-9 and dev_b <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"burst + add-back took {elapsed:.1f}s"
    assert result.records[-1].retained == data.n_train
    print(
        f"ACCEPTANCE 03 delete-addback: PASS (final dev A {dev_a:.3e}, B {dev_b:.3e} "
        f"vs pre-deletion oracle; {elapsed:.1f}s)"
    )


def test_criterion_04_chunked_deletions():
    data = gen_synthetic(104, 1250, 32, 4, 3.0)
    parts = dirichlet_partition(104, data.classes[: data.n_train], 10, 0.3)
    schedule = [initial_round(parts)] + schedule_chunked(104, parts, 0.2, 4)
    result = run_scenario(_scenario(data, parts, schedule, seed=104), data.features, data.labels)
    n0 = data.n_train
    step = int(0.2 * n0)
    expected = [n0] + [n0 - step * (k + 1) for k in range(4)]
    assert [rec.retained for rec in result.records] == expected
    for rec in result.records:
        assert rec.variants["A"].rel_dev <= 1e-8
        assert rec.variants["B"].rel_dev <= 1e-8
    # targeted-class variant: recall of the deleted class decays monotonically
    data_t = gen_synthetic(11, 2000, 32, 4, 2.0)
    parts_t = dirichlet_partition(11, data_t.classes[: data_t.n_train], 8, 0.5)
    sched_t = [initial_round(parts_t)] + schedule_chunked(
        11, parts_t, 0.2, 4, classes=data_t.classes, target_class=0
    )
    result_t = run_scenario(
        _scenario(data_t, parts_t, sched_t, seed=11, variant="A"), data_t.features, data_t.labels
    )
    recalls = [rec.variants["A"].recall[0] for rec in result_t.records]
    assert all(b < a for a, b in zip(recalls, recalls[1:])), recalls
    print(
        f"ACCEPTANCE 04 chunked-deletions: PASS (retained counts {expected}; "
        f"targeted recall {['%.3f' % r for r in recalls]})"
    )


def _salted_rng(seed, salt):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(zlib.crc32(salt.encode()),)))


def _random_spd(rng, d, gamma):
    m = rng.standard_normal((d, d))
    return m.T @ m + gamma * np.eye(d)


def _symmetrize(a):
    return (a + a.T) / 2


def _equivalent_shuffled_heads(seed, shuffles, n, d, c, clients):
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


def test_criterion_05_order_and_partition_invariance():
    heads = _equivalent_shuffled_heads(105, shuffles=20, n=400, d=16, c=4, clients=5)
    worst = 0.0
    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            dev = rel_frobenius_dev(heads[i], heads[j])
            assert dev <= 1e-10, (i, j, dev)
            worst = max(worst, dev)
    print(f"ACCEPTANCE 05 order-invariance: PASS (20 shuffles, worst pairwise dev {worst:.3e})")


def test_criterion_06_downdate_feasibility_lemma():
    # the three conditions (i) H - UᵀU is SPD, (ii) I - U T Uᵀ is SPD and (iii) λ_max(U T Uᵀ) < 1 agree,
    # except within 1e-8 of the boundary λ = 1; every other instance is scaled to land near it
    rng = _salted_rng(106, "downdate")
    for trial in range(1000):
        d = 6
        k = int(rng.integers(1, 5))
        h = _random_spd(rng, d, float(rng.uniform(0.1, 2.0)))
        t = inverse_from_factor(cholesky_spd(h))
        u = rng.standard_normal((k, d))
        lam0 = np.linalg.norm(_symmetrize(u @ t @ u.T), 2)
        if trial % 2 == 0 and lam0 > 0:
            u = u * np.sqrt(rng.uniform(0.8, 1.2) / lam0)
        capacitance = _symmetrize(u @ t @ u.T)
        lam = np.linalg.norm(capacitance, 2)
        conditions = []
        for m in (h - u.T @ u, np.eye(k) - capacitance):
            try:
                cholesky_spd(m)
                conditions.append(True)
            except NotSPD:
                conditions.append(False)
        conditions.append(lam < 1.0)
        assert len(set(conditions)) == 1 or abs(lam - 1.0) <= 1e-8, (trial, conditions, lam)
    print("ACCEPTANCE 06 downdate-lemma: PASS (1000 instances, window 1e-08)")


def test_criterion_07_second_order_necessity():
    # two batches with the same first moment FᵀY but different Grams give heads far apart
    a = stats_from_batch(np.eye(2), np.ones((2, 1)))
    b = stats_from_batch(np.array([[1.0, 1.0], [0.0, 0.0]]), np.ones((2, 1)))
    np.testing.assert_array_equal(a.G, b.G)
    measured = rel_frobenius_dev(Ledger(a, 1, 1.0).head, Ledger(b, 1, 1.0).head)
    assert measured >= 0.3
    print(f"ACCEPTANCE 07 second-order-necessity: PASS (head deviation {measured:.3f} >= 0.3)")


def _fold_a(messages, d, c):
    """One round of Variant A messages folded in the order given, at f64."""
    return aggregate(messages, RoundFold(VARIANT_FULL, d, c, np.float64)).close()


def test_criterion_08_bayesian_certificate():
    rng = np.random.default_rng(108)
    d, c, n = 24, 3, 400
    features = rng.standard_normal((n, d)).astype(np.float32)
    labels = np.zeros((n, c), dtype=np.float32)
    labels[np.arange(n), rng.integers(0, c, n)] = 1.0
    store = ClientStore(0, features, labels, "f64")
    ledger = ledger_init(d, c)
    ledger, _ = run_round_a(ledger, _fold_a([store.make_round_message(1, list(range(n)), [], VARIANT_FULL)], d, c))
    retained = set(range(n))
    max_kl = -np.inf
    min_kl = np.inf
    targets = [int(i) for i in rng.choice(n, 15, replace=False)]
    rnd = 2

    def oracle_posterior(t):
        ids = sorted(retained)
        return posterior_from_ledger(
            Ledger(stats_from_batch(features[ids], labels[ids], np.float64), t, 1.0)
        )

    for phase, op_ids in (("delete", targets), ("add", targets[::-1])):
        for i in op_ids:
            before = posterior_from_ledger(ledger)
            if phase == "delete":
                msg = store.make_round_message(rnd, [], [i], VARIANT_FULL)
                retained.discard(i)
            else:
                msg = store.make_round_message(rnd, [i], [], VARIANT_FULL)
                retained.add(i)
            ledger, _ = run_round_a(ledger, _fold_a([msg], d, c))
            after = posterior_from_ledger(ledger)
            kl = kl_matrix_normal(after, oracle_posterior(ledger.t))
            max_kl = max(max_kl, kl)
            min_kl = min(min_kl, kl)
            # a deletion grows the covariance and an addition shrinks it, in the PSD order up to roundoff;
            # both posteriors carry the ledger's precision factor P, so each covariance is (P Pᵀ)^-1
            sigma_before, sigma_after = inverse_from_factor(before.P), inverse_from_factor(after.P)
            grown = sigma_after - sigma_before if phase == "delete" else sigma_before - sigma_after
            assert np.linalg.eigvalsh(grown)[0] >= -1e-9 * frobenius_norm(sigma_before), (phase, rnd)
            rnd += 1
    assert max_kl <= 1e-9
    assert min_kl >= -1e-12
    print(
        f"ACCEPTANCE 08 bayesian-certificate: PASS (max KL {max_kl:.3e} <= 1e-9, "
        f"min KL {min_kl:.3e} >= -1e-12, PSD order held on all 30 rounds)"
    )


def test_criterion_09_perturbation_bound_and_reset():
    # a truncated add keeps ΔS_r ⪯ ΔS, so T ⪯ T_ap and ||T_ap - T||₂ = ||T_ap E T||₂ <= ||T_ap||₂² ||E||₂
    rng = _salted_rng(109, "bound")
    d = 12
    for trial in range(500):
        h = _random_spd(rng, d, 1.0)
        k = int(rng.integers(1, 7))
        a = rng.standard_normal((k, d)) * float(rng.uniform(0.2, 2.0))
        ds = a.T @ a
        r = int(rng.integers(0, k))
        vals, vecs = symmetric_eig(ds)
        ds_r = _symmetrize((vecs[:, :r] * vals[:r]) @ vecs[:, :r].T)
        err = ds - ds_r
        t_ap = inverse_from_factor(cholesky_spd(h + ds_r))
        bound = np.linalg.norm(t_ap, 2) ** 2 * np.linalg.norm(err, 2)
        gap = np.linalg.norm(inverse_from_factor(cholesky_spd(h + ds)) - t_ap, 2)
        assert gap <= (1.0 + 1e-6) * bound, (trial, gap, bound)
    data = gen_synthetic(109, 600, 16, 4, 2.0)
    parts = dirichlet_partition(109, data.classes[: data.n_train], 4, 0.5)
    schedule = schedule_churn(109, parts, rounds=12, adds_per_round=6, deletes_per_round=0)
    sc = _scenario(data, parts, schedule, seed=109, variant="approx", rank=2, reset_every=4)
    result = run_scenario(sc, data.features, data.labels)
    resets = [rec for rec in result.records if rec.variants["approx"].report.reset]
    assert resets, "periodic reset never fired"
    for rec in resets:
        assert rec.variants["approx"].rel_dev <= 1e-9
    print(
        f"ACCEPTANCE 09 perturbation-bound: PASS (500 rounds, gap <= (1 + 1e-6) bound; "
        f"{len(resets)} resets all restored <= 1e-9)"
    )


def test_criterion_10_communication_accounting():
    rng = np.random.default_rng(110)
    d, c, r = 256, 4, 8
    features = rng.standard_normal((r, d))
    labels = rng.standard_normal((r, c))
    totals = {}
    for variant in (VARIANT_FULL, VARIANT_QR):
        msg = ClientStore(0, features, labels).make_round_message(1, range(r), [], variant)
        # the count rides in the frame header; the empty delete side is a header-only frame
        if variant == VARIANT_FULL:
            assert payload_scalars(msg.add) == d * (d + 1) // 2 + d * c
        else:
            assert payload_scalars(msg.add) == r * d - r * (r - 1) // 2 + r * c
        assert payload_scalars(msg.delete) == 0
        totals[variant] = account_round([msg], "f64").total_bytes
    ratio = totals[VARIANT_QR] / totals[VARIANT_FULL]
    assert ratio < 0.10
    print(
        f"ACCEPTANCE 10 communication-accounting: PASS (exact counts; B/A byte ratio "
        f"{ratio:.3f} < 0.10 at r=8, d=256)"
    )


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_criterion_11_determinism(precision):
    data = gen_synthetic(111, 500, 16, 4, 2.0)
    parts = dirichlet_partition(111, data.classes[: data.n_train], 5, 0.5)
    schedule = schedule_churn(111, parts, rounds=6, adds_per_round=4, deletes_per_round=6)
    sc = _scenario(data, parts, schedule, seed=111, precision=precision)
    csv1 = metrics_csv(run_scenario(sc, data.features, data.labels))
    csv2 = metrics_csv(run_scenario(sc, data.features, data.labels))
    assert csv1.encode() == csv2.encode()
    print(f"ACCEPTANCE 11 determinism[{precision}]: PASS (byte-identical metrics CSV)")


def _rounds_to_converge(step, a, g, tol=1e-9, limit=10_000):
    """Federated rounds an iterative solver of a W = G, from W = 0, needs to reach `tol` relative error in W.

    Each round is one product a @ p that the clients form from their own
    statistics and upload; the first round's is the residual G - a @ 0.
    `step(w, r, p, ap)` takes one iteration from the residual r and the
    direction p, and returns the new (w, r, p).
    """
    w_star = np.linalg.solve(a, g)
    w, r, p, rounds = np.zeros_like(g), g, g, 1
    while np.linalg.norm(w - w_star) > tol * np.linalg.norm(w_star):
        assert rounds < limit
        w, r, p = step(w, r, p, a @ p)
        rounds += 1
    return rounds


def _gradient_descent(a):
    """Steps of 1/λ_max(a) along the residual, which is minus the gradient."""
    eta = 1.0 / np.linalg.eigvalsh(a)[-1]

    def step(w, r, p, ap):
        r_new = r - eta * ap
        return w + eta * r, r_new, r_new

    return step


def _conjugate_gradient(w, r, p, ap):
    """One CG iteration on the c columns' block-diagonal system, with Frobenius inner products."""
    alpha = np.sum(r * r) / np.sum(p * ap)
    r_new = r - alpha * ap
    return w + alpha * p, r_new, r_new + (np.sum(r_new * r_new) / np.sum(r * r)) * p


def test_criterion_12_cost_against_retraining_baselines(tmp_path):
    # the paper: each request costs "orders-of-magnitude" less than federated retraining;
    # bytes and rounds are exact counts, so the claim is checked on a one-sample delete
    d, c, clients = 64, 10, 20
    features, scenario, out = tmp_path / "f.bin", tmp_path / "s.json", tmp_path / "out"
    assert main(["gen", "--n", "1500", "--d", str(d), "--c", str(c), "--clients", str(clients),
                 "--schedule", "burst", "--count", "1", "--variant", "both", "--seed", "1",
                 "--out-features", str(features), "--out-scenario", str(scenario)]) == 0
    assert main(["run", "--scenario", str(scenario), "--features", str(features), "--out-dir", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as fh:
        rows = {(int(r["round"]), r["variant"]): r for r in csv.DictReader(fh)}
    b_delete, a_delete = (int(rows[2, v]["scalars_sent"]) for v in ("B", "A"))
    # re-collection: every client holding data re-sends its full statistics, as in A's round 1
    recollect = int(rows[1, "A"]["scalars_sent"])
    assert b_delete == d + c
    # B serves the delete in its one round, exactly
    assert float(rows[2, "B"]["rel_dev_vs_oracle"]) <= 1e-9

    # the same retained set, solved iteratively: each round, each client holding data uploads d·c scalars
    sc = Scenario.from_json(scenario.read_text())
    f, y, _ = read_feature_file(features)
    first, delete = sc.schedule[:2]
    retained = sorted({i for ev in first.events for i in ev.add} - {i for ev in delete.events for i in ev.delete})
    holders = sum(1 for ev in first.events if set(ev.add) & set(retained))
    fr, yr = f[retained].astype(np.float64), y[retained].astype(np.float64)
    a, g = fr.T @ fr + sc.gamma * np.eye(d), fr.T @ yr
    rounds = {"GD": _rounds_to_converge(_gradient_descent(a), a, g), "CG": _rounds_to_converge(_conjugate_gradient, a, g)}
    iterative = {name: k * holders * d * c for name, k in rounds.items()}
    assert all(k > 1 for k in rounds.values())
    cheaper = min(iterative.values())
    assert recollect >= 100 * b_delete and cheaper >= 100 * b_delete
    print(
        f"ACCEPTANCE 12 cost-against-retraining: PASS (one-sample delete, d={d}, {holders} clients: "
        f"B {b_delete} scalars in 1 round; A {a_delete} ({a_delete / b_delete:.0f}x B); "
        f"re-collection {recollect} ({recollect / b_delete:.0f}x); "
        + "; ".join(f"{name} {rounds[name]} rounds, {iterative[name]} ({iterative[name] / b_delete:.0f}x)" for name in rounds)
        + ")"
    )
