"""Acceptance criteria, one test per criterion.

Each test prints one PASS line once its assertions hold; run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines alongside the pytest verdicts.
"""

import time

import numpy as np
import pytest

from fedridge.client import ClientStore, VARIANT_FULL, VARIANT_QR, payload_scalars
from fedridge.coordinator import account_round, aggregate, run_round_a
from fedridge.kernels import frobenius_norm, rel_frobenius_dev
from fedridge.posterior import posterior_from_ledger, psd_order_check
from fedridge.simulate import (
    RetainedGram,
    Scenario,
    dirichlet_partition,
    gen_synthetic,
    initial_round,
    metrics_csv,
    oracle_retrain,
    run_scenario,
    schedule_addback,
    schedule_burst,
    schedule_chunked,
    schedule_churn,
)
from fedridge.stats import ledger_init
from fedridge.verify import PROPERTIES, equivalent_shuffled_heads

PROPS = {p.name: p for p in PROPERTIES}


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


def test_criterion_05_order_and_partition_invariance():
    heads = equivalent_shuffled_heads(105, shuffles=20, n=400, d=16, c=4, clients=5)
    worst = 0.0
    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            worst = max(worst, rel_frobenius_dev(heads[i], heads[j]))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 05 order-invariance: PASS (20 shuffles, worst pairwise dev {worst:.3e})")


def test_criterion_06_downdate_feasibility_lemma():
    ok, measured, tol = PROPS["downdate-lemma"].run(106)
    assert ok, f"conditions disagreed at |lambda-1|={measured:.3e}"
    print(f"ACCEPTANCE 06 downdate-lemma: PASS (1000 instances, window {tol:.0e})")


def test_criterion_07_second_order_necessity():
    ok, measured, _ = PROPS["second-order-lemma"].run(107)
    assert ok and measured >= 0.3
    print(f"ACCEPTANCE 07 second-order-necessity: PASS (head deviation {measured:.3f} >= 0.3)")


def test_criterion_08_bayesian_certificate():
    rng = np.random.default_rng(108)
    d, c, n = 24, 3, 400
    features = rng.standard_normal((n, d)).astype(np.float32)
    labels = np.zeros((n, c), dtype=np.float32)
    labels[np.arange(n), rng.integers(0, c, n)] = 1.0
    store = ClientStore(0, features, labels, "f64")
    ledger = ledger_init(d, c)
    ledger, _ = run_round_a(ledger, aggregate([store.make_round_message(1, list(range(n)), [], VARIANT_FULL)]))
    retained = set(range(n))
    max_kl = -np.inf
    min_kl = np.inf
    targets = [int(i) for i in rng.choice(n, 15, replace=False)]
    rnd = 2
    from fedridge.posterior import kl_matrix_normal
    from fedridge.stats import Ledger, stats_from_batch

    def oracle_posterior(t):
        ids = sorted(retained)
        return posterior_from_ledger(
            Ledger(stats_from_batch(features[ids], labels[ids], np.float64), t, 1.0, "f64")
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
            ledger, _ = run_round_a(ledger, aggregate([msg]))
            after = posterior_from_ledger(ledger)
            kl = kl_matrix_normal(after, oracle_posterior(ledger.t))
            max_kl = max(max_kl, kl)
            min_kl = min(min_kl, kl)
            floor = -1e-9 * frobenius_norm(before.Sigma)
            if phase == "delete":
                assert psd_order_check(before.Sigma, after.Sigma), "deletion must grow covariance"
            else:
                assert psd_order_check(after.Sigma, before.Sigma), "addition must shrink covariance"
            rnd += 1
    assert max_kl <= 1e-9
    assert min_kl >= -1e-12
    print(
        f"ACCEPTANCE 08 bayesian-certificate: PASS (max KL {max_kl:.3e} <= 1e-9, "
        f"min KL {min_kl:.3e} >= -1e-12, PSD order held on all 30 rounds)"
    )


def test_criterion_09_perturbation_bound_and_reset():
    ok, ratio, tol = PROPS["perturbation-bound"].run(109)
    assert ok, f"bound violated: measured/bound = {ratio}"
    data = gen_synthetic(109, 600, 16, 4, 2.0)
    parts = dirichlet_partition(109, data.classes[: data.n_train], 4, 0.5)
    schedule = schedule_churn(109, parts, rounds=12, adds_per_round=6, deletes_per_round=0)
    sc = _scenario(data, parts, schedule, seed=109, variant="approx", rank=2, reset_every=4)
    result = run_scenario(sc, data.features, data.labels)
    resets = [rec for rec in result.records if rec.variants["approx"].reset]
    assert resets, "periodic reset never fired"
    for rec in resets:
        assert rec.variants["approx"].rel_dev <= 1e-9
    print(
        f"ACCEPTANCE 09 perturbation-bound: PASS (500 rounds, worst gap/bound {ratio:.3f} "
        f"<= {tol}; {len(resets)} resets all restored <= 1e-9)"
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
            assert payload_scalars(msg.add) == r * d - r * (r - 1) // 2 + d * c
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
