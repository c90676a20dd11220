"""Scenario generation, partitions, schedules and the round loop."""

import re
import tracemalloc

import numpy as np
import pytest

from fedridge import simulate
from fedridge.client import ClientStore
from fedridge.kernels import cholesky_spd, inverse_from_factor, rel_frobenius_dev
from fedridge.simulate import (
    ClientEvent,
    RetainedGram,
    RoundSpec,
    Scenario,
    check_schedule,
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
    score_head,
    writer_partition,
)
from fedridge.stats import regularized_gram, stats_from_batch


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
        partition={"kind": "dirichlet", "alpha": 0.5},
        schedule=schedule,
    )
    args.update(kw)
    return Scenario(**args)


def test_gen_synthetic_empty():
    data = gen_synthetic(0, 0, 4, 2, 1.0)
    assert data.features.shape == (0, 4)
    assert data.labels.shape == (0, 2)


def test_gen_synthetic_deterministic():
    a = gen_synthetic(3, 200, 8, 3, 2.0)
    b = gen_synthetic(3, 200, 8, 3, 2.0)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.features.dtype == np.float32


def _one_shot_features(seed, n, d, c, class_separation):
    """The draw as one n x d float64 sum, cast once: what the row blocks must equal."""
    rng = simulate.rng_stream(seed, "data")
    means = rng.standard_normal((c, d))
    norms = np.sqrt(np.sum(means**2, axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    means = means / norms * float(class_separation)
    classes = np.resize(np.arange(c), n)
    rng.shuffle(classes)
    features = (means[classes] + rng.standard_normal((n, d))).astype(np.float32)
    labels = np.zeros((n, c), dtype=np.float32)
    labels[np.arange(n), classes] = 1.0
    return features, labels


def _block_edge_cases():
    """(n, d) at each edge of a row block, for a narrow, a benchmark-wide and a wider-than-a-block d."""
    cases = []
    for d in (1, 64, 256, simulate.FEATURE_BLOCK_ELEMENTS + 1):
        step = max(1, simulate.FEATURE_BLOCK_ELEMENTS // d)
        # 5000 x 256 is the benchmark's widest matrix; more would only slow the suite
        cases += [(n, d) for n in sorted({1, step - 1, step, step + 1, 5000}) if 0 < n and n * d <= 5000 * 256]
    return cases


@pytest.mark.parametrize("n, d", _block_edge_cases())
def test_gen_synthetic_row_blocks_equal_the_one_shot_draw_bitwise(n, d):
    data = gen_synthetic(5, n, d, 10, 3.0)
    features, labels = _one_shot_features(5, n, d, 10, 3.0)
    assert data.features.dtype == np.float32
    assert data.features.tobytes() == features.tobytes()
    assert data.labels.tobytes() == labels.tobytes()


def test_gen_synthetic_allocates_its_output_and_a_few_blocks():
    # a full-size float64 temporary, as the one-shot draw made, would be 8 MB here
    tracemalloc.start()
    try:
        data = gen_synthetic(1, 4000, 256, 10, 3.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = data.features.nbytes + data.labels.nbytes
    assert peak <= output + 4 * simulate.FEATURE_BLOCK_ELEMENTS * 8, (peak, output)


def test_gen_synthetic_zero_separation_is_chance():
    data = gen_synthetic(5, 5000, 16, 10, 0.0)
    train = np.arange(data.features.shape[0]) < data.n_train
    w, _ = oracle_retrain(RetainedGram(data.features, data.labels), train, 1.0)
    test_f = data.features[data.n_train :].astype(np.float64)
    test_classes = data.classes[data.n_train :]
    acc, _ = score_head(w, test_f, test_classes, np.bincount(test_classes, minlength=10))
    assert abs(acc - 0.1) <= 0.05


def test_gen_synthetic_separated_clusters_learnable():
    data = gen_synthetic(7, 5000, 64, 10, 4.0)
    train = np.arange(data.features.shape[0]) < data.n_train
    w, _ = oracle_retrain(RetainedGram(data.features, data.labels), train, 1.0)
    test_f = data.features[data.n_train :].astype(np.float64)
    test_classes = data.classes[data.n_train :]
    acc, _ = score_head(w, test_f, test_classes, np.bincount(test_classes, minlength=10))
    assert acc >= 0.9


def test_dirichlet_partition_is_a_partition():
    data = gen_synthetic(9, 1000, 8, 4, 2.0)
    parts = dirichlet_partition(9, data.classes[: data.n_train], 7, 0.3)
    flat = [i for p in parts for i in p]
    assert sorted(flat) == list(range(data.n_train))


def test_dirichlet_single_client_gets_everything():
    data = gen_synthetic(9, 300, 4, 2, 1.0)
    parts = dirichlet_partition(9, data.classes[: data.n_train], 1, 0.3)
    assert parts[0] == list(range(data.n_train))


def test_dirichlet_large_alpha_is_nearly_uniform():
    data = gen_synthetic(11, 5000, 8, 10, 1.0)
    classes = data.classes[: data.n_train]
    parts = dirichlet_partition(11, classes, 10, 1e6)
    global_hist = np.bincount(classes, minlength=10) / len(classes)
    for ids in parts:
        hist = np.bincount(classes[ids], minlength=10) / len(ids)
        np.testing.assert_allclose(hist, global_hist, rtol=0.1)


def test_writer_partition_is_a_partition():
    parts = writer_partition(1, 500, 6, writers=30)
    flat = sorted(i for p in parts for i in p)
    assert flat == list(range(500))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 1000])
def test_writer_partition_matches_a_per_sample_grouping(seed, n):
    writer_of = simulate.rng_stream(seed, "partition").integers(0, 30, size=n)
    out = [[] for _ in range(7)]
    for i in range(n):
        out[int(writer_of[i]) % 7].append(i)
    assert writer_partition(seed, n, 7, writers=30) == out


def test_writer_partition_needs_a_client():
    with pytest.raises(ValueError, match="at least one client"):
        writer_partition(1, 500, 0, writers=30)


def test_schedule_chunked_counts():
    data = gen_synthetic(13, 500, 4, 2, 1.0)
    parts = dirichlet_partition(13, data.classes[: data.n_train], 3, 1.0)
    n_train = data.n_train
    rounds = schedule_chunked(13, parts, 0.2, 4)
    assert len(rounds) == 4
    deleted = [i for r in rounds for e in r.events for i in e.delete]
    assert len(deleted) == 4 * int(0.2 * n_train)
    assert len(set(deleted)) == len(deleted)  # never deletes twice
    assert schedule_chunked(13, parts, 0.2, 0) == []
    with pytest.raises(ValueError):
        schedule_chunked(13, parts, 0.3, 4)


def test_schedule_chunked_full_deletion_zeroes_head():
    data = gen_synthetic(17, 200, 6, 2, 1.5)
    parts = dirichlet_partition(17, data.classes[: data.n_train], 3, 1.0)
    schedule = [initial_round(parts)] + schedule_chunked(17, parts, 1.0, 1)
    result = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
    last = result.records[-1]
    assert last.retained == 0
    assert last.variants["A"].rel_dev == 0.0  # statistics cancel bitwise
    assert last.variants["B"].rel_dev <= 1e-12  # absolute norm at the zero oracle
    assert result.summary["final_dev_A"] == 0.0


def test_schedule_burst_and_addback():
    data = gen_synthetic(19, 400, 4, 2, 1.0)
    parts = dirichlet_partition(19, data.classes[: data.n_train], 4, 1.0)
    burst = schedule_burst(19, parts, 50)
    assert len(burst) == 50
    assert all(sum(len(e.delete) for e in r.events) == 1 for r in burst)
    back = schedule_addback(burst)
    assert len(back) == 50
    deleted = [e.delete[0] for r in burst for e in r.events if e.delete]
    readded = [e.add[0] for r in back for e in r.events if e.add]
    assert readded == deleted[::-1]
    assert schedule_burst(19, parts, 0) == []
    with pytest.raises(ValueError):
        schedule_burst(19, parts, data.n_train + 1)


def _churn_by_lists(seed, assignments, rounds, adds_per_round, deletes_per_round):
    # schedule_churn as it was written with Python lists, a dict of owners and a set per round
    owners = {i: client for client, ids in enumerate(assignments) for i in ids}
    rng = simulate.rng_stream(seed, "schedule")
    perm = rng.permutation(np.asarray(sorted(owners), dtype=np.int64)).tolist()
    n_hold = min(int(len(perm) * simulate.CHURN_HOLDBACK), rounds * adds_per_round)
    held, retained = perm[:n_hold], sorted(perm[n_hold:])
    out = [simulate.grouped_round(1, owners, adds=retained)]
    for step in range(rounds):
        adds = held[step * adds_per_round : (step + 1) * adds_per_round]
        del_pos = rng.choice(len(retained), size=min(deletes_per_round, len(retained)), replace=False)
        dels = sorted(retained[p] for p in del_pos)
        out.append(simulate.grouped_round(2 + step, owners, adds, dels))
        removed = set(dels)
        retained = [i for i in retained if i not in removed] + sorted(adds)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("rounds, adds, deletes", [(6, 20, 25), (12, 50, 0), (4, 0, 300), (3, 400, 10)])
def test_schedule_churn_draws_what_the_list_version_drew(seed, rounds, adds, deletes):
    data = gen_synthetic(seed, 1000, 4, 5, 1.0)
    parts = dirichlet_partition(seed, data.classes[: data.n_train], 6, 0.5)
    assert schedule_churn(seed, parts, rounds, adds, deletes) == _churn_by_lists(seed, parts, rounds, adds, deletes)


@pytest.mark.parametrize("fraction", [float("inf"), float("-inf"), float("nan"), 1e308, 2.0, -0.1])
def test_schedule_chunked_refuses_a_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match=re.escape(repr(fraction))):
        schedule_chunked(1, [[0, 1, 2], [3, 4]], fraction, 0)


def test_schedule_churn_never_deletes_fresh_adds():
    data = gen_synthetic(23, 300, 4, 2, 1.0)
    parts = dirichlet_partition(23, data.classes[: data.n_train], 3, 1.0)
    schedule = schedule_churn(23, parts, rounds=10, adds_per_round=3, deletes_per_round=5)
    retained = set()
    for spec in schedule:
        adds = {i for e in spec.events for i in e.add}
        dels = {i for e in spec.events for i in e.delete}
        assert dels <= retained
        assert not (adds & retained)
        retained |= adds
        retained -= dels


def test_oracle_retrain_cases():
    w, _ = oracle_retrain(RetainedGram(np.eye(2), np.ones((2, 1))), np.ones(2, bool), 1.0)
    np.testing.assert_allclose(w, [[0.5], [0.5]], rtol=1e-15)
    w0, _ = oracle_retrain(RetainedGram(np.zeros((0, 3)), np.zeros((0, 2))), np.zeros(0, bool), 1.0)
    np.testing.assert_array_equal(w0, np.zeros((3, 2)))


# 1,700 rows: in the ascending layout's 512-row blocks, block 1 (ids 512..1023)
# is never retained and block 3 (ids 1536..1699) is a partial one
_BLOCKED_N = 1700
_EMPTY_BLOCK = range(512, 1024)


def _layout_by_last_round(rounds, block_rows):
    """The scheduled layout by a loop over every named id: the reference for `RetainedGram.rows`."""
    last = {}
    for position, spec in enumerate(rounds):
        for ev in spec.events:
            for i in [*ev.add, *ev.delete]:
                last[int(i)] = position
    first = sorted(i for i, p in last.items() if p == 0)
    later = [i for _, i in sorted((p, i) for i, p in last.items() if p > 0)]
    return [group[a : a + block_rows] for group in (first, later) for a in range(0, len(group), block_rows)]


def _masks(rounds, n):
    """The retained mask after each round, kept as `run_scenario` keeps it."""
    retained = np.zeros(n, dtype=bool)
    out = []
    for spec in rounds:
        for ev in spec.events:
            retained[ev.delete] = False
            retained[ev.add] = True
        out.append(retained.copy())
    return out


def _blocked_churn_run(monkeypatch):
    """Replay a churn stream and return its checked rounds and, per round, the
    run's RetainedGram, the oracle's retained mask and the statistics it gives."""
    data = gen_synthetic(41, _BLOCKED_N, 6, 3, 2.0)
    live = [i for i in range(_BLOCKED_N) if i not in _EMPTY_BLOCK]
    parts = [live[k::3] for k in range(3)]
    schedule = schedule_churn(41, parts, rounds=6, adds_per_round=20, deletes_per_round=25)
    # every id streams as a training sample, so none is held out for scoring
    scenario = _scenario(data, parts, schedule, variant="A", n_train=_BLOCKED_N)
    rounds = []
    original = simulate.oracle_retrain

    def recording(gram, retained, *args):
        out = original(gram, retained, *args)
        rounds.append((gram, retained.copy(), gram.stats(retained)))
        return out

    monkeypatch.setattr(simulate, "oracle_retrain", recording)
    run_scenario(scenario, data.features, data.labels)
    assert len(rounds) == len(schedule) and len({id(g) for g, _, _ in rounds}) == 1
    checked = check_schedule(scenario)
    gram = rounds[0][0]
    assert gram.block_rows == 512
    assert [ids.tolist() for ids in gram.rows] == _layout_by_last_round(checked, 512)
    # round 1's 1,068 ids less the 146 deleted later, then those 146 and the 120 held-back adds
    assert [ids.size for ids in gram.rows] == [512, 410, 266]
    return data, checked, rounds


def test_oracle_cache_after_churn_is_bitwise_a_cold_cache(monkeypatch):
    data, checked, rounds = _blocked_churn_run(monkeypatch)
    for _, retained, warm in rounds:
        assert not retained[_EMPTY_BLOCK.start : _EMPTY_BLOCK.stop].any()
        cold = RetainedGram(data.features, data.labels, checked).stats(retained)
        assert warm.n == cold.n == np.count_nonzero(retained)
        assert np.array_equal(warm.S, cold.S) and np.array_equal(warm.G, cold.G)


def test_oracle_cache_after_churn_matches_one_gram_of_the_retained_rows(monkeypatch):
    data, _, rounds = _blocked_churn_run(monkeypatch)
    for _, retained, warm in rounds:
        direct = stats_from_batch(data.features[retained], data.labels[retained])
        assert warm.n == direct.n
        assert rel_frobenius_dev(warm.S, direct.S) <= 1e-13
        assert rel_frobenius_dev(warm.G, direct.G) <= 1e-13


def test_oracle_cache_recomputes_a_block_whose_count_is_unchanged():
    data = gen_synthetic(43, _BLOCKED_N, 5, 2, 2.0)
    gram = RetainedGram(data.features, data.labels)
    retained = np.ones(_BLOCKED_N, dtype=bool)
    retained[_EMPTY_BLOCK.start : _EMPTY_BLOCK.stop] = False
    retained[1100] = False
    before = gram.stats(retained)
    retained[1100], retained[1200] = True, False  # one delete, one add, both in block 2
    after = gram.stats(retained)
    cold = RetainedGram(data.features, data.labels).stats(retained)
    assert after.n == before.n
    assert not np.array_equal(after.S, before.S)
    assert np.array_equal(after.S, cold.S) and np.array_equal(after.G, cold.G)


def test_single_delete_round_forms_at_most_one_block(monkeypatch):
    data = gen_synthetic(47, _BLOCKED_N, 4, 2, 2.0)
    live = [i for i in range(_BLOCKED_N) if i not in _EMPTY_BLOCK]
    parts = [live[k::4] for k in range(4)]
    burst = schedule_burst(47, parts, 12)
    scenario = _scenario(data, parts, [initial_round(parts)] + burst, variant="A", n_train=_BLOCKED_N)
    rows_per_round: list[list[int]] = []
    original_oracle, original_stats = simulate.oracle_retrain, simulate.stats_from_batch

    def oracle(*args):
        rows_per_round.append([])
        return original_oracle(*args)

    def stats(f, y, *args):
        rows_per_round[-1].append(len(f))
        return original_stats(f, y, *args)

    monkeypatch.setattr(simulate, "oracle_retrain", oracle)
    monkeypatch.setattr(simulate, "stats_from_batch", stats)
    run_scenario(scenario, data.features, data.labels)
    assert len(rows_per_round) == 1 + len(burst)
    # round 1 forms each non-empty block once: three of the 1,176 ids it last
    # names, and one of the 12 the burst deletes
    assert rows_per_round[0] == [512, 512, 152, 12]
    for rows in rows_per_round[1:]:
        assert len(rows) <= 1 and sum(rows) <= 12


@pytest.mark.parametrize("d", [8, 640])
@pytest.mark.parametrize("scheduled", [False, True])
def test_oracle_cache_holds_no_more_than_the_features(d, scheduled):
    block = max(512, d)
    n = 4 * block
    # round 1 names one id past two blocks, so the cut after it leaves two partial blocks
    rounds = [
        RoundSpec(1, [ClientEvent(0, list(range(2 * block + 1)), [])]),
        RoundSpec(2, [ClientEvent(0, list(range(2 * block + 1, n)), [])]),
    ]
    gram = RetainedGram(
        np.zeros((n, d), dtype=np.float32), np.zeros((n, 2), dtype=np.float32), rounds if scheduled else None
    )
    assert gram.blocks == 4 + scheduled  # the cut after the first round's ids adds one block
    assert gram.blocks <= -(-n // block) + 1
    assert gram.blocks * d * d <= (n + scheduled * block) * d


_LAYOUT_N = 1500


def _layout_rounds(kind, seed, d, features=None):
    """A small run's scenario, features, labels and checked rounds for one `gen` schedule;
    chunked and churn take `gen`'s default settings, burst-addback a count of 12."""
    data = gen_synthetic(seed, _LAYOUT_N, d, 3, 2.0)
    parts = dirichlet_partition(seed, data.classes[: data.n_train], 4, 0.5)
    first = initial_round(parts)
    schedule = {
        "ingest": lambda: [first],
        "chunked": lambda: [first] + schedule_chunked(seed, parts, 0.2, 4),
        "burst-addback": lambda: [first] + (burst := schedule_burst(seed, parts, 12)) + schedule_addback(burst),
        "churn": lambda: schedule_churn(seed, parts, 8, 20, 20),
    }[kind]()
    f = data.features if features is None else features(data)
    scenario = _scenario(data, parts, schedule, variant="A")
    return scenario, f, data.labels, check_schedule(scenario)


_LAYOUT_KINDS = ["ingest", "chunked", "burst-addback", "churn"]


@pytest.mark.parametrize("block_rows", [64, 512])
@pytest.mark.parametrize("d", [6, 40])
@pytest.mark.parametrize("kind", _LAYOUT_KINDS)
def test_scheduled_layout_matches_the_ascending_one(monkeypatch, kind, d, block_rows):
    monkeypatch.setattr(simulate, "ORACLE_BLOCK_ROWS", block_rows)
    _, features, labels, rounds = _layout_rounds(kind, 51, d)
    gram = RetainedGram(features, labels, rounds)
    assert [ids.tolist() for ids in gram.rows] == _layout_by_last_round(rounds, block_rows)
    assert gram.blocks <= -(-_LAYOUT_N // block_rows) + 1
    ascending = RetainedGram(features, labels)
    for retained in _masks(rounds, _LAYOUT_N):
        got, want = gram.stats(retained), ascending.stats(retained)
        assert got.n == want.n == np.count_nonzero(retained)
        assert rel_frobenius_dev(got.S, want.S) <= 1e-13
        assert rel_frobenius_dev(got.G, want.G) <= 1e-13


@pytest.mark.parametrize("kind", _LAYOUT_KINDS)
def test_scheduled_cache_is_bitwise_a_cold_one_in_any_order(monkeypatch, kind):
    monkeypatch.setattr(simulate, "ORACLE_BLOCK_ROWS", 64)
    _, features, labels, rounds = _layout_rounds(kind, 53, 6)
    masks = _masks(rounds, _LAYOUT_N)
    cold = [RetainedGram(features, labels, rounds).stats(m) for m in masks]
    warm = RetainedGram(features, labels, rounds)
    for i in [*range(len(masks)), *np.random.default_rng(53).permutation(len(masks))]:
        st = warm.stats(masks[i])
        assert st.n == cold[i].n
        assert np.array_equal(st.S, cold[i].S) and np.array_equal(st.G, cold[i].G)


@pytest.mark.parametrize("block_rows", [64, 512])
def test_churn_round_forms_only_the_blocks_of_the_ids_it_names(monkeypatch, block_rows):
    monkeypatch.setattr(simulate, "ORACLE_BLOCK_ROWS", block_rows)

    def id_in_column_0(data):
        f = data.features.copy()
        f[:, 0] = np.arange(_LAYOUT_N)  # exact in float32, so a gathered row names its id
        return f

    scenario, features, labels, rounds = _layout_rounds("churn", 55, 6, id_in_column_0)
    grams, gathered = [], []
    original_oracle, original_stats = simulate.oracle_retrain, simulate.stats_from_batch

    def oracle(gram, *args):
        grams.append(gram)
        gathered.append([])
        return original_oracle(gram, *args)

    def stats(f, y, *args):
        gathered[-1].append(set(f[:, 0].astype(np.int64).tolist()))
        return original_stats(f, y, *args)

    monkeypatch.setattr(simulate, "oracle_retrain", oracle)
    monkeypatch.setattr(simulate, "stats_from_batch", stats)
    run_scenario(scenario, features, labels)
    blocks = [set(ids.tolist()) for ids in grams[0].rows]
    named = [{int(i) for ev in spec.events for i in [*ev.add, *ev.delete]} for spec in rounds]
    assert len(gathered) == len(rounds) and len(blocks) > 1
    assert set().union(*gathered[0]) <= named[0]
    for ids_named, formed in zip(named[1:], gathered[1:]):
        for ids in formed:
            block = next(b for b in blocks if ids <= b)
            assert block & ids_named
        if block_rows == 512:
            assert len(formed) <= 2
    # rows that no event names are never gathered
    assert set().union(*(ids for formed in gathered for ids in formed)) <= set().union(*named)
    assert set().union(*blocks) == set().union(*named)


def _edge_rounds(case):
    """Rounds over 24 ids and two clients that each must still give a valid layout."""
    if case == "empty":
        return []
    if case == "first-round-5":
        return [
            RoundSpec(5, [ClientEvent(0, [3, 1, 4, 9, 7], [])]),
            RoundSpec(9, [ClientEvent(0, [], [1]), ClientEvent(1, [0, 2, 11], [])]),
            RoundSpec(12, [ClientEvent(1, [], [11])]),
        ]
    # round 1 holds only some of the rows; round 2 adds others and deletes one of round 1's
    return [
        RoundSpec(1, [ClientEvent(0, list(range(10)), [])]),
        RoundSpec(2, [ClientEvent(0, [], [3]), ClientEvent(1, list(range(15, 10, -1)), [])]),
    ]


@pytest.mark.parametrize("case", ["empty", "first-round-5", "partial-first-round"])
def test_edge_schedules_build_a_valid_layout(monkeypatch, case):
    monkeypatch.setattr(simulate, "ORACLE_BLOCK_ROWS", 4)
    n, d = 24, 3
    rng = np.random.default_rng(57)
    features, labels = rng.standard_normal((n, d)), rng.standard_normal((n, 2))
    rounds = _edge_rounds(case)
    gram = RetainedGram(features, labels, rounds)
    assert gram.block_rows == 4 and gram.blocks <= -(-n // 4) + 1
    assert [ids.tolist() for ids in gram.rows] == _layout_by_last_round(rounds, 4)
    for retained in [np.zeros(n, dtype=bool), *_masks(rounds, n)]:
        got = gram.stats(retained)
        want = stats_from_batch(features[retained], labels[retained])
        assert got.n == want.n
        np.testing.assert_allclose(got.S, want.S, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(got.G, want.G, rtol=1e-13, atol=1e-13)
    w, _ = oracle_retrain(gram, np.zeros(n, dtype=bool), 1.0)
    np.testing.assert_array_equal(w, np.zeros((d, 2)))


def test_scheduled_cache_refuses_a_mask_that_retains_an_unnamed_row():
    features, labels = np.eye(6), np.ones((6, 2))
    gram = RetainedGram(features, labels, [RoundSpec(1, [ClientEvent(0, [0, 2, 4], [])])])
    retained = np.zeros(6, dtype=bool)
    retained[[0, 2, 4]] = True
    assert gram.stats(retained).n == 3
    retained[5] = True
    with pytest.raises(ValueError, match="no round"):
        gram.stats(retained)


@pytest.mark.parametrize("scheduled", [False, True])
def test_oracle_cache_forms_only_the_blocks_whose_mask_changed(monkeypatch, scheduled):
    monkeypatch.setattr(simulate, "ORACLE_BLOCK_ROWS", 64)
    n, d = 700, 5
    rng = np.random.default_rng(61)
    features, labels = rng.standard_normal((n, d)), rng.standard_normal((n, 2))
    features[:, 0] = np.arange(n)  # a gathered row names its id
    # round 1 names every id, round 2 deletes every seventh: 600 + 100 ids in 10 + 2 blocks
    rounds = [
        RoundSpec(1, [ClientEvent(0, list(range(n)), [])]),
        RoundSpec(2, [ClientEvent(0, [], list(range(0, n, 7)))]),
    ] if scheduled else None
    gram = RetainedGram(features, labels, rounds)
    assert gram.blocks == (12 if scheduled else 11)
    formed = []
    original = simulate.stats_from_batch

    def counting(f, y, *args):
        formed.append(set(f[:, 0].astype(int).tolist()))
        return original(f, y, *args)

    monkeypatch.setattr(simulate, "stats_from_batch", counting)
    retained = rng.random(n) < 0.6
    first = gram.stats(retained)
    assert len(formed) == gram.blocks  # a cold cache forms every block that retains a row
    formed.clear()
    # an unchanged mask, even through the same array, forms no block and gives the same bits
    again = gram.stats(retained)
    assert not formed
    assert again.n == first.n and np.array_equal(again.S, first.S) and np.array_equal(again.G, first.G)
    assert again.S is not first.S  # a fresh sum each call, which the oracle may write
    # flip one id in block 1 and two in the last block but one: exactly those two blocks are re-formed
    b1, b2 = 1, gram.blocks - 2
    retained[gram.rows[b1][5]] ^= True
    retained[gram.rows[b2][[0, -1]]] ^= True
    changed = gram.stats(retained)
    blocks = [set(ids.tolist()) for ids in gram.rows]
    assert len(formed) == 2
    assert formed[0] <= blocks[b1] and formed[1] <= blocks[b2]
    cold = RetainedGram(features, labels, rounds).stats(retained)
    assert changed.n == cold.n == np.count_nonzero(retained)
    assert np.array_equal(changed.S, cold.S) and np.array_equal(changed.G, cold.G)
    assert not np.array_equal(changed.S, first.S)
    # back to the first mask: the same two blocks again, and the first result's bits
    formed.clear()
    retained[gram.rows[b1][5]] ^= True
    retained[gram.rows[b2][[0, -1]]] ^= True
    back = gram.stats(retained)
    assert len(formed) == 2
    assert np.array_equal(back.S, first.S) and np.array_equal(back.G, first.G)


def test_score_head_matches_per_class_loop():
    rng = np.random.default_rng(30)
    d, c = 5, 4
    w = rng.standard_normal((d, c))
    test_f = rng.standard_normal((50, d))
    true = rng.integers(0, c - 1, size=50)  # class c - 1 has no test sample
    for f, t in ((test_f, true), (test_f[:0], true[:0])):
        hits = (f @ w).argmax(axis=1) == t
        want_acc = float(np.mean(hits)) if hits.size else float("nan")
        want_recall = [float(np.mean(hits[t == k])) if np.any(t == k) else float("nan") for k in range(c)]
        acc, recall = score_head(w, f, t, np.bincount(t, minlength=c))
        np.testing.assert_array_equal([acc] + recall, [want_acc] + want_recall)
        assert all(type(x) is float for x in [acc] + recall)
    assert np.isnan(recall).all() and np.isnan(acc)


def _per_class_scores(w, data):
    """Accuracy and recall of head w on data's test split, by a loop over its classes."""
    test_f = data.features[data.n_train :].astype(np.float64)
    true = data.classes[data.n_train :]
    hits = (test_f @ w).argmax(axis=1) == true
    recall = [float(np.mean(hits[true == k])) if np.any(true == k) else float("nan") for k in range(data.labels.shape[1])]
    return float(np.mean(hits)), recall


def test_two_runs_in_one_process_each_score_their_own_test_split():
    runs = []
    for seed, n, c in ((71, 300, 3), (72, 420, 4), (71, 300, 3)):
        data = gen_synthetic(seed, n, 6, c, 1.0)
        parts = dirichlet_partition(seed, data.classes[: data.n_train], 4, 0.5)
        schedule = schedule_churn(seed, parts, rounds=3, adds_per_round=6, deletes_per_round=5)
        result = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
        for v, m in result.records[-1].variants.items():
            acc, recall = _per_class_scores(result.final_heads[v], data)
            assert len(m.recall) == c
            np.testing.assert_array_equal([m.accuracy, *m.recall], [acc, *recall])
        runs.append(metrics_csv(result))
    assert runs[0] == runs[2] != runs[1]  # the second split left nothing behind for the third run


def test_run_scenario_makes_stores_only_for_the_clients_it_names(monkeypatch):
    # a scenario may declare clients that no round names; a store was made for each, so
    # `clients` = 10**6 cost 0.9 GB and 6 s, and a larger count exhausted memory
    data = gen_synthetic(30, 300, 8, 3, 2.0)
    parts = dirichlet_partition(30, data.classes[: data.n_train], 4, 0.5)
    schedule = schedule_churn(30, parts, rounds=2, adds_per_round=2, deletes_per_round=2)
    made = []
    monkeypatch.setattr(simulate, "ClientStore", lambda k, *a: made.append(k) or ClientStore(k, *a))
    base = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
    named = {ev.client for spec in schedule for ev in spec.events}
    assert sorted(made) == sorted([*named, *named])  # one store per named client, per variant
    made.clear()
    wide = run_scenario(_scenario(data, parts, schedule, clients=10**5), data.features, data.labels)
    assert sorted(made) == sorted([*named, *named])
    assert metrics_csv(wide) == metrics_csv(base)


def test_run_scenario_oracle_equivalence_and_bookkeeping():
    data = gen_synthetic(29, 600, 12, 3, 2.0)
    parts = dirichlet_partition(29, data.classes[: data.n_train], 5, 0.5)
    schedule = schedule_churn(29, parts, rounds=12, adds_per_round=4, deletes_per_round=10)
    result = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
    assert len(result.records) == len(schedule)
    for rec in result.records:
        assert rec.variants["A"].rel_dev <= 1e-9
        assert rec.variants["B"].rel_dev <= 1e-8
        for variant in ("A", "B"):
            assert -1e-12 <= rec.variants[variant].kl <= 1e-9, (rec.round, variant)
    assert result.summary["final_dev_A"] <= 1e-9
    assert result.summary["final_dev_B"] <= 1e-8
    assert result.summary["total_bytes_B"] < result.summary["total_bytes_A"]


def _certified_scenario(kind):
    if kind == "churn":  # the long churn run the removed property suite measured
        data = gen_synthetic(7, 500, 16, 4, 2.0)
        parts = dirichlet_partition(7, data.classes[: data.n_train], 5, 0.5)
        return data, parts, schedule_churn(7, parts, rounds=30, adds_per_round=2, deletes_per_round=5)
    data = gen_synthetic(41, 400, 12, 3, 2.0)
    if kind == "writer":
        parts = writer_partition(41, data.n_train, 4, 12)
        return data, parts, schedule_churn(41, parts, rounds=8, adds_per_round=3, deletes_per_round=6)
    parts = dirichlet_partition(41, data.classes[: data.n_train], 4, 0.5)
    first = initial_round(parts)
    if kind == "chunked":
        return data, parts, [first] + schedule_chunked(41, parts, 0.2, 4)
    if kind == "targeted":
        return data, parts, [first] + schedule_chunked(41, parts, 0.3, 3, classes=data.classes, target_class=1)
    burst = schedule_burst(41, parts, 15)
    return data, parts, [first] + burst + schedule_addback(burst)


@pytest.mark.parametrize("kind", ["churn", "writer", "chunked", "targeted", "burst-addback"])
def test_every_round_of_every_schedule_kind_is_exact_and_certified(kind):
    data, parts, schedule = _certified_scenario(kind)
    result = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
    assert len(result.records) == len(schedule)
    for rec in result.records:
        assert rec.variants["A"].rel_dev <= 1e-9, (rec.round, rec.variants["A"].rel_dev)
        assert rec.variants["B"].rel_dev <= 1e-8, (rec.round, rec.variants["B"].rel_dev)
        for variant in ("A", "B"):
            assert -1e-12 <= rec.variants[variant].kl <= 1e-9, (rec.round, variant, rec.variants[variant].kl)


def test_run_scenario_single_variant_b():
    data = gen_synthetic(53, 300, 8, 2, 2.0)
    parts = dirichlet_partition(53, data.classes[: data.n_train], 3, 0.5)
    schedule = schedule_churn(53, parts, rounds=6, adds_per_round=3, deletes_per_round=4)
    result = run_scenario(_scenario(data, parts, schedule, variant="B"), data.features, data.labels)
    assert set(result.final_heads) == {"B"}
    assert result.summary["final_dev_A"] is None
    assert result.summary["final_dev_B"] <= 1e-8
    assert result.summary["total_bytes_A"] == 0


def test_run_scenario_deterministic_csv():
    data = gen_synthetic(31, 400, 8, 2, 2.0)
    parts = dirichlet_partition(31, data.classes[: data.n_train], 4, 0.5)
    schedule = schedule_churn(31, parts, rounds=8, adds_per_round=3, deletes_per_round=6)
    res1 = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
    res2 = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
    assert metrics_csv(res1) == metrics_csv(res2)


def test_run_scenario_precision_gap():
    data = gen_synthetic(37, 2000, 32, 4, 3.0)
    parts = dirichlet_partition(37, data.classes[: data.n_train], 6, 0.5)
    schedule = [initial_round(parts)]
    dev, dev_a = {}, {}
    for prec in ("f64", "f32"):
        res = run_scenario(
            _scenario(data, parts, schedule, precision=prec), data.features, data.labels
        )
        dev[prec] = res.records[-1].variants["B"].rel_dev
        dev_a[prec] = res.records[-1].variants["A"].rel_dev
    assert dev["f64"] <= 1e-8
    # criterion 02's floor: a tall round 1 is rebuilt, so B's f32 error is A's, not an SMW step's
    assert 1e-7 <= dev["f32"] <= 1e-2
    assert dev["f32"] <= 10 * dev_a["f32"]
    assert dev["f32"] >= 100 * dev["f64"]


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_b_churn_is_as_exact_as_a(precision):
    # round 1 is tall and rebuilt, so no rank-d SMW step onto I/gamma leaves B behind A;
    # the churn rounds fold 10 factor rows, within rebuild_rows(32), and take SMW steps
    data = gen_synthetic(43, 2000, 32, 4, 3.0)
    parts = dirichlet_partition(43, data.classes[: data.n_train], 6, 0.5)
    schedule = schedule_churn(43, parts, rounds=6, adds_per_round=5, deletes_per_round=5)
    result = run_scenario(_scenario(data, parts, schedule, precision=precision), data.features, data.labels)
    resets = [rec.variants["B"].report.reset for rec in result.records]
    assert resets[0] and not any(resets[1:])
    dev_a = max(rec.variants["A"].rel_dev for rec in result.records)
    dev_b = max(rec.variants["B"].rel_dev for rec in result.records)
    assert dev_b <= 10 * dev_a


def test_run_scenario_approx_variant_reports():
    data = gen_synthetic(41, 400, 8, 2, 2.0)
    parts = dirichlet_partition(41, data.classes[: data.n_train], 3, 0.5)
    schedule = schedule_churn(41, parts, rounds=10, adds_per_round=6, deletes_per_round=0)
    sc = _scenario(data, parts, schedule, variant="approx", rank=2, reset_every=4)
    result = run_scenario(sc, data.features, data.labels)
    assert "max_bound" in result.summary
    assert result.summary["resets"] >= 1
    reset_rounds = [rec for rec in result.records if rec.variants["approx"].report.reset]
    assert reset_rounds
    for rec in reset_rounds:
        assert rec.variants["approx"].rel_dev <= 1e-9  # reset restores the oracle head
    _assert_no_inf_bound(result)

    # a round with deletions re-syncs to the exact ledger: flagged and counted as a reset
    schedule = [initial_round(parts)] + schedule_chunked(41, parts, 0.2, 3)
    sc = _scenario(data, parts, schedule, variant="approx", rank=2, reset_every=16)
    result = run_scenario(sc, data.features, data.labels)
    for rec in result.records[1:]:
        assert rec.variants["approx"].report.reset
        assert rec.variants["approx"].rel_dev <= 1e-9
    assert result.summary["resets"] == 3
    _assert_no_inf_bound(result)


def test_approx_sends_variant_b_messages(monkeypatch):
    # approx mode ships B's R-factor payloads, so its uplink equals B's on one stream
    import fedridge.coordinator as coordinator_mod
    from fedridge.client import QrPayload

    payload_types = set()
    real = coordinator_mod.aggregate

    def recording(messages, fold):
        payload_types.update(type(p) for m in messages for p in (m.add, m.delete))
        return real(messages, fold)

    monkeypatch.setattr(coordinator_mod, "aggregate", recording)
    data = gen_synthetic(43, 300, 8, 2, 2.0)
    parts = dirichlet_partition(43, data.classes[: data.n_train], 3, 0.5)
    schedule = schedule_churn(43, parts, rounds=5, adds_per_round=6, deletes_per_round=3)
    approx = run_scenario(_scenario(data, parts, schedule, variant="approx"), data.features, data.labels)
    assert payload_types == {QrPayload}
    exact = run_scenario(_scenario(data, parts, schedule, variant="B"), data.features, data.labels)
    assert approx.summary["total_bytes_approx"] == exact.summary["total_bytes_B"] > 0


def test_run_scenario_folds_each_message_once_as_it_arrives(monkeypatch):
    import weakref

    import fedridge.coordinator as coordinator_mod
    from fedridge.coordinator import account_round

    real = coordinator_mod.aggregate
    # (round, variant) -> (client id, account_round of the message) in arrival order;
    # the messages themselves are not kept, so the round loop's references are the only ones
    seen: dict[tuple[int, str], list] = {}
    alive_at_fold: list[int] = []
    a_payloads: dict[int, list] = {}  # round -> weakrefs to A's payloads

    def recording(messages, fold):
        assert isinstance(messages, list) and len(messages) == 1
        msg = messages[0]
        if msg.variant == "A":
            refs = a_payloads.setdefault(msg.round, [])
            alive_at_fold.append(sum(ref() is not None for ref in refs))
            refs += [weakref.ref(msg.add), weakref.ref(msg.delete)]
        seen.setdefault((msg.round, msg.variant), []).append((msg.client_id, account_round([msg], "f64")))
        return real(messages, fold)

    monkeypatch.setattr(coordinator_mod, "aggregate", recording)
    data = gen_synthetic(59, 400, 10, 3, 2.0)
    parts = dirichlet_partition(59, data.classes[: data.n_train], 6, 0.5)
    schedule = schedule_churn(59, parts, rounds=4, adds_per_round=5, deletes_per_round=7)
    result = run_scenario(_scenario(data, parts, schedule), data.features, data.labels)
    # while a message is folded, no earlier A payload of its round is alive
    assert alive_at_fold and not any(alive_at_fold)
    assert sum(variant == "A" for _, variant in seen) == len(schedule)
    for spec, rec in zip(schedule, result.records):
        expected = sorted(ev.client for ev in spec.events)
        for variant in ("A", "B"):
            arrivals = seen[(spec.round, variant)]
            assert [client for client, _ in arrivals] == expected  # each client once, ascending
            assert rec.variants[variant].comm.total_bytes == sum(comm.total_bytes for _, comm in arrivals)
            assert rec.variants[variant].comm.total_scalars == sum(comm.total_scalars for _, comm in arrivals)


def test_run_scenario_shares_the_read_only_rows_of_a_feature_file(monkeypatch, tmp_path):
    from fedridge.wire import read_feature_file, write_feature_file

    stores = []

    class Recording(simulate.ClientStore):
        def __post_init__(self):
            super().__post_init__()
            stores.append(self)

    monkeypatch.setattr(simulate, "ClientStore", Recording)
    data = gen_synthetic(47, 300, 8, 3, 2.0)
    parts = dirichlet_partition(47, data.classes[: data.n_train], 4, 0.5)
    scenario = _scenario(data, parts, schedule_churn(47, parts, rounds=2, adds_per_round=4, deletes_per_round=4))
    write_feature_file(tmp_path / "features.bin", data.features, data.labels, "f32")
    features, labels, _ = read_feature_file(tmp_path / "features.bin")
    run_scenario(scenario, features, labels)
    assert len(stores) == 2 * len(parts)
    assert all(np.shares_memory(s.features, features) and np.shares_memory(s.labels, labels) for s in stores)
    # a writable matrix is copied once, and the copy is shared by every store
    stores.clear()
    run_scenario(scenario, data.features, data.labels)
    assert not np.shares_memory(stores[0].features, data.features)
    assert all(s.features is stores[0].features and s.labels is stores[0].labels for s in stores)


def _b_churn(variant="both"):
    # each churn round folds at most 4 + 2 factor rows, within rebuild_rows(12) = 6, so B
    # serves it by SMW steps; round 1 is tall and rebuilt
    data = gen_synthetic(61, 400, 12, 3, 2.0)
    parts = dirichlet_partition(61, data.classes[: data.n_train], 4, 0.5)
    schedule = schedule_churn(61, parts, rounds=8, adds_per_round=4, deletes_per_round=2)
    sc = _scenario(data, parts, schedule, variant=variant)
    return lambda: run_scenario(sc, data.features, data.labels)


@pytest.mark.parametrize("field", ["W", "T"])
def test_b_kl_reads_a_nudge_of_the_served_state(monkeypatch, field):
    # B is certified from the state it serves, so a 5e-8 nudge of it shows in B's kl and not in A's;
    # compounded over the rounds, a W nudge of 5e-8 keeps B's head 4.4e-7 off the retrain, within
    # the 1e-6 ceiling that run_scenario holds every B row to (a 1e-6 nudge trips it)
    import dataclasses

    import fedridge.coordinator as coordinator_mod

    run = _b_churn()
    clean = run()
    real = coordinator_mod.run_round_b

    def nudged(ledger, state, agg):
        ledger, state, _, info = real(ledger, state, agg)
        state = dataclasses.replace(state, **{field: getattr(state, field) * (1 + 5e-8)})
        return ledger, state, state.W, info

    monkeypatch.setattr(coordinator_mod, "run_round_b", nudged)
    dirty = run()
    for before, after in zip(clean.records, dirty.records):
        assert before.variants["B"].kl <= 1e-18
        assert after.variants["B"].kl > 1e-15
        assert after.variants["A"].kl == before.variants["A"].kl


@pytest.mark.parametrize("scale, stops", [(2e-6, True), (5e-7, False)])
def test_run_scenario_holds_each_exact_row_to_the_ceiling_as_it_is_served(monkeypatch, scale, stops):
    # a library caller gets the ceiling too: B's round 2 head, 2e-6 off the retrain, stops the replay
    # there, before any later round is served; 5e-7 off it is a result
    import fedridge.coordinator as coordinator_mod

    real = coordinator_mod.Server.serve
    served = []

    def serve(self, messages):
        w, report, comm = real(self, messages)
        served.append((self.ledger.t, self.variant))
        return (w * (1 + scale) if served[-1] == (2, "B") else w), report, comm

    monkeypatch.setattr(coordinator_mod.Server, "serve", serve)
    run = _b_churn()
    if stops:
        with pytest.raises(RuntimeError, match=r"round 2: B's exact row deviates by 2\.000e-06, above the f64 ceiling 1e-06"):
            run()
        assert served[-2:] == [(2, "A"), (2, "B")]
    else:
        assert run().records[1].variants["B"].rel_dev == pytest.approx(scale, rel=1e-3)
        assert served[-1] == (9, "B")


@pytest.mark.parametrize("threshold", [None, 100.0])
def test_b_round_without_reset_factors_no_ledger_and_solves_no_triangle(monkeypatch, threshold):
    import fedridge.coordinator as coordinator_mod
    import fedridge.kernels as kernels_mod
    import fedridge.posterior as posterior_mod
    import fedridge.simulate as simulate_mod
    import fedridge.stats as stats_mod

    counts = {"ledger_factor": 0, "certify_triangular": 0}
    certifying = []
    real_cholesky = stats_mod.cholesky_spd  # in `stats`, only `Ledger.factor` calls it
    real_triangular = kernels_mod.triangular_solve_lower
    real_lower_solve = kernels_mod.lower_solve

    def ledger_cholesky(a):
        counts["ledger_factor"] += 1
        return real_cholesky(a)

    def triangular(*args):
        counts["certify_triangular"] += bool(certifying)
        return real_triangular(*args)

    def lower_solve(*args):  # the KL's solve of P_p⁻¹P_q, which only a ledger's posterior takes
        counts["certify_triangular"] += bool(certifying)
        return real_lower_solve(*args)

    def certify_span(fn):
        def wrapped(*args):
            certifying.append(1)
            try:
                return fn(*args)
            finally:
                certifying.pop()

        return wrapped

    monkeypatch.setattr(stats_mod, "cholesky_spd", ledger_cholesky)
    monkeypatch.setattr(kernels_mod, "triangular_solve_lower", triangular)
    monkeypatch.setattr(kernels_mod, "lower_solve", lower_solve)
    monkeypatch.setattr(posterior_mod, "lower_solve", lower_solve)
    for module, name in ((coordinator_mod, "posterior_from_state"), (coordinator_mod, "posterior_from_ledger"),
                         (simulate_mod, "kl_matrix_normal")):
        monkeypatch.setattr(module, name, certify_span(getattr(module, name)))
    if threshold is not None:  # a gate this low no longer matters to round 1, which takes no SMW step
        monkeypatch.setattr(coordinator_mod, "CONDITION_THRESHOLD", threshold)
    result = _b_churn(variant="B")()
    resets = [rec.variants["B"].report.reset for rec in result.records]
    # round 1 is tall and rebuilt; the churn rounds' steps amplify rounding by under 1.1
    assert resets[0] and not any(resets[1:])
    resets = sum(resets)
    # the state's start and each reset factor the ledger; nothing else does
    assert counts == {"ledger_factor": 1 + resets, "certify_triangular": 0}


def test_max_kl_carries_a_nan(monkeypatch):
    import fedridge.simulate as simulate_mod

    real = simulate_mod.kl_matrix_normal
    calls = []

    def one_nan(p, q):
        calls.append(1)
        return float("nan") if len(calls) == 2 else real(p, q)

    monkeypatch.setattr(simulate_mod, "kl_matrix_normal", one_nan)
    result = _b_churn()()
    assert np.isnan(result.records[0].variants["B"].kl)
    assert np.isnan(result.summary["max_kl"])


def _approx_d64(rank, reset_every, seed=1):
    # the approx-d64 benchmark workload: 50 clients, 12 add-only rounds of 50 samples at d=64
    data = gen_synthetic(seed, 5000, 64, 10, 3.0)
    parts = dirichlet_partition(seed, data.classes[: data.n_train], 50, 0.3)
    schedule = schedule_churn(seed, parts, rounds=12, adds_per_round=50, deletes_per_round=0)
    return data, _scenario(data, parts, schedule, seed=seed, variant="approx", rank=rank, reset_every=reset_every)


@pytest.mark.parametrize("rank, reset_every", [(8, 8), (2, 8), (32, 8), (8, 0), (32, 0)])
def test_approx_bound_holds_across_truncated_steps(monkeypatch, rank, reset_every):
    # a bound counting only the current step's dropped mass fails here (rank 8: rounds 11-13)
    import fedridge.coordinator as coordinator_mod

    served = []
    real = coordinator_mod.run_round_approx

    def recording(*args):
        out = real(*args)
        served.append(out[:2])  # the round's ledger and state
        return out

    monkeypatch.setattr(coordinator_mod, "run_round_approx", recording)
    data, sc = _approx_d64(rank, reset_every)
    result = run_scenario(sc, data.features, data.labels)
    truncated = 0
    for rec, (ledger, state) in zip(result.records, served, strict=True):
        m = rec.variants["approx"].report
        if m.reset:
            assert m.bound is None
            continue
        truncated += 1
        gap = np.linalg.norm(state.T - inverse_from_factor(cholesky_spd(regularized_gram(ledger))), 2)
        # a row with nothing dropped has bound 0 and is held to rounding (||T|| <= 1/γ = 1)
        assert gap <= m.bound + 1e-12, (rec.round, gap, m.bound)
        assert m.bound <= 1 / sc.gamma, (rec.round, m.bound)
    assert truncated >= 8


def test_max_bound_carries_a_nan(monkeypatch):
    import dataclasses

    import fedridge.coordinator as coordinator_mod

    real = coordinator_mod.run_round_approx
    calls = []

    def one_nan(*args):
        out = real(*args)
        calls.append(1)
        return (*out[:3], dataclasses.replace(out[3], bound=float("nan"))) if len(calls) == 2 else out

    monkeypatch.setattr(coordinator_mod, "run_round_approx", one_nan)
    data = gen_synthetic(41, 400, 8, 2, 2.0)
    parts = dirichlet_partition(41, data.classes[: data.n_train], 3, 0.5)
    schedule = schedule_churn(41, parts, rounds=4, adds_per_round=6, deletes_per_round=0)
    sc = _scenario(data, parts, schedule, variant="approx", rank=2, reset_every=0)
    result = run_scenario(sc, data.features, data.labels)
    assert np.isnan(result.records[1].variants["approx"].report.bound)
    assert np.isnan(result.summary["max_bound"])


def _assert_no_inf_bound(result):
    # every truncated round's bound is finite, and the summary counts no infinite ones
    rows = [line.split(",") for line in metrics_csv(result).splitlines()[1:]]
    assert all(row[7] != "inf" for row in rows)
    assert "inf_bound_rounds" not in result.summary


def test_partition_invariance_across_client_counts():
    data = gen_synthetic(47, 600, 12, 3, 2.0)
    heads = []
    for k in (1, 10, 50):
        parts = dirichlet_partition(47, data.classes[: data.n_train], k, 0.5)
        schedule = [initial_round(parts)]
        result = run_scenario(
            _scenario(data, parts, schedule, variant="A"), data.features, data.labels
        )
        heads.append(result.final_heads["A"])
    for i in range(len(heads)):
        for j in range(i + 1, len(heads)):
            assert rel_frobenius_dev(heads[i], heads[j]) <= 1e-10


def test_scenario_json_round_trip():
    data = gen_synthetic(43, 100, 4, 2, 1.0)
    parts = dirichlet_partition(43, data.classes[: data.n_train], 2, 1.0)
    schedule = [initial_round(parts)] + schedule_burst(43, parts, 5)
    sc = _scenario(data, parts, schedule, seed=43)
    again = Scenario.from_json(sc.to_json())
    assert again == sc


@pytest.mark.parametrize(
    "field,value",
    [
        ("variant", "C"),
        ("precision", "f16"),
        ("gamma", 0.0),
        ("gamma", float("nan")),
        ("gamma", float("inf")),
        ("gamma", 10**400),
        ("rank", 0),
        ("reset_every", -1),
        ("n_train", -5),
        ("n_train", 101),
        ("clients", 0),
        ("d", 0),
        ("c", 1),
        # each value below is in range but not an integer (or, for gamma, a bool)
        ("reset_every", 2.5),
        ("rank", 2.5),
        ("rank", True),
        ("seed", "x"),
        ("seed", None),
        ("d", 4.0),
        ("c", 2.0),
        ("clients", 2.0),
        ("n", 100.0),
        ("n_train", 80.0),
        ("gamma", True),
        ("gamma", "1.0"),
    ],
)
def test_scenario_rejects_invalid_settings(field, value):
    data = gen_synthetic(43, 100, 4, 2, 1.0)
    parts = dirichlet_partition(43, data.classes[: data.n_train], 2, 1.0)
    with pytest.raises(ValueError):
        _scenario(data, parts, [initial_round(parts)], **{field: value})


def test_check_schedule_accepts_numpy_integer_ids():
    data = gen_synthetic(43, 200, 4, 2, 1.0)
    parts = dirichlet_partition(43, data.classes[: data.n_train], 3, 1.0)
    schedule = schedule_churn(43, parts, rounds=4, adds_per_round=5, deletes_per_round=6)
    plain = check_schedule(_scenario(data, parts, schedule))
    kinds = [np.int64, np.int32, np.uint16, int]  # one round mixes numpy and Python integers
    as_numpy = [
        RoundSpec(
            spec.round,
            [
                ClientEvent(np.uint64(ev.client) if i % 2 else ev.client,
                            [kinds[(i + j) % 4](x) for j, x in enumerate(ev.add)],
                            [kinds[(i + j) % 3](x) for j, x in enumerate(ev.delete)])
                for i, ev in enumerate(spec.events)
            ],
        )
        for spec in schedule
    ]
    checked = check_schedule(_scenario(data, parts, as_numpy))
    assert [(s.round, [(e.client, e.add.tolist(), e.delete.tolist()) for e in s.events]) for s in checked] == [
        (s.round, [(e.client, e.add.tolist(), e.delete.tolist()) for e in s.events]) for s in plain
    ]


def test_scenario_accepts_numpy_integers():
    data = gen_synthetic(43, 100, 4, 2, 1.0)
    parts = dirichlet_partition(43, data.classes[: data.n_train], 2, 1.0)
    ints = {name: np.int64(value) for name, value in (("seed", 43), ("d", 4), ("clients", 2), ("rank", 3))}
    sc = _scenario(data, parts, [initial_round(parts)], **ints)
    assert sc.rank == 3
