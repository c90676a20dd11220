"""Scenario generation and the end-to-end federated round loop.

A scenario bundles everything needed to replay a federated add/delete
stream deterministically: the data seed, the client partition, an explicit
per-round event schedule, and the server configuration.  The harness
drives client stores and the coordinator round by round, and after every
round retrains the centralized head on the currently retained samples; the
relative deviation against that oracle is the headline metric everywhere.
The oracle's Gram is a sum of per-block Grams over fixed blocks of sample
ids (`RetainedGram`): a round re-forms only the blocks whose retained ids
changed, and the sum is never downdated, so the oracle is a function of the
retained set alone and equals a retrain from scratch up to the order of
summation.

Synthetic features stand in for a frozen feature extractor: Gaussian
clusters with controllable mean separation, generated in single precision
regardless of the precision the protocol later accumulates in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .client import ClientStore, Sample, VARIANT_FULL, VARIANT_QR
from .coordinator import RoundFold, aggregate, run_round_a, run_round_approx, run_round_b
from .coordinator import AUDIT_EVERY, CONDITION_THRESHOLD, DRIFT_THRESHOLD
from .inverse import init_from_ledger
from .kernels import cholesky_spd, frobenius_norm, rel_frobenius_dev
from .posterior import MatrixNormalPosterior, kl_matrix_normal, posterior_from_ledger
from .stats import PRECISION_DTYPES, SufficientStats, ledger_init, stats_from_batch

_SUBSTREAMS = {"data": 0, "partition": 1, "schedule": 2}


def rng_stream(seed: int, name: str) -> np.random.Generator:
    """Named child generator so each pipeline stage has its own stream."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(_SUBSTREAMS[name],)))


# ---------------------------------------------------------------------------
# synthetic data and partitions


@dataclass(frozen=True)
class SyntheticData:
    features: np.ndarray  # n x d, float32
    labels: np.ndarray  # n x c one-hot, float32
    n_train: int

    @property
    def classes(self) -> np.ndarray:
        return np.argmax(self.labels, axis=1)


def gen_synthetic(seed: int, n: int, d: int, c: int, class_separation: float) -> SyntheticData:
    """Gaussian cluster features with an 80/20 train/test split.

    Cluster means are random directions scaled to `class_separation`;
    zero separation makes every class identically distributed, so any
    head can only reach chance accuracy.
    """
    if c < 2:
        raise ValueError("need at least two classes for one-hot labels")
    rng = rng_stream(seed, "data")
    means = rng.standard_normal((c, d))
    norms = np.sqrt(np.sum(means**2, axis=1, keepdims=True))
    norms[norms == 0] = 1.0
    means = means / norms * float(class_separation)
    if n == 0:
        return SyntheticData(
            np.zeros((0, d), dtype=np.float32), np.zeros((0, c), dtype=np.float32), 0
        )
    classes = np.resize(np.arange(c), n)
    rng.shuffle(classes)
    features = (means[classes] + rng.standard_normal((n, d))).astype(np.float32)
    labels = np.zeros((n, c), dtype=np.float32)
    labels[np.arange(n), classes] = 1.0
    return SyntheticData(features, labels, int(n * 0.8))


def dirichlet_partition(seed: int, classes: np.ndarray, k: int, alpha: float) -> list[list[int]]:
    """Class-wise Dirichlet split of sample ids across k clients.

    Per class, proportions are drawn from Dirichlet(alpha, ..., alpha) and
    the class's shuffled ids split at the cumulative boundaries.  Small
    alpha concentrates classes on few clients; empty clients can happen.
    """
    if k < 1:
        raise ValueError("need at least one client")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rng = rng_stream(seed, "partition")
    classes = np.asarray(classes)
    out: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(classes):
        ids = np.flatnonzero(classes == cls)
        rng.shuffle(ids)
        props = rng.dirichlet(np.full(k, float(alpha)))
        bounds = (np.cumsum(props)[:-1] * len(ids)).astype(int)
        for client, part in enumerate(np.split(ids, bounds)):
            out[client].extend(int(i) for i in part)
    return [sorted(ids) for ids in out]


def writer_partition(seed: int, n: int, k: int, writers: int) -> list[list[int]]:
    """Writer-style grouping: samples belong to writers, writers to clients."""
    if writers < k:
        raise ValueError("need at least as many writers as clients")
    rng = rng_stream(seed, "partition")
    writer_of = rng.integers(0, writers, size=n)
    out: list[list[int]] = [[] for _ in range(k)]
    for i in range(n):
        out[int(writer_of[i]) % k].append(i)
    return [sorted(ids) for ids in out]


# ---------------------------------------------------------------------------
# event schedules


@dataclass
class ClientEvent:
    client: int
    add: list[int] = field(default_factory=list)
    delete: list[int] = field(default_factory=list)


@dataclass
class RoundSpec:
    round: int
    events: list[ClientEvent]


def initial_round(assignments: list[list[int]]) -> RoundSpec:
    """Round 1: every client adds its whole initial partition."""
    events = [ClientEvent(k, list(ids), []) for k, ids in enumerate(assignments) if ids]
    return RoundSpec(1, events)


def _owner_map(assignments: list[list[int]]) -> dict[int, int]:
    owners: dict[int, int] = {}
    for client, ids in enumerate(assignments):
        for i in ids:
            owners[i] = client
    return owners


def _delete_round(round_index: int, ids, owners: dict[int, int]) -> RoundSpec:
    per_client: dict[int, list[int]] = {}
    for i in ids:
        per_client.setdefault(owners[i], []).append(int(i))
    events = [ClientEvent(k, [], sorted(v)) for k, v in sorted(per_client.items())]
    return RoundSpec(round_index, events)


def schedule_chunked(
    seed: int,
    assignments: list[list[int]],
    fraction: float,
    steps: int,
    start_round: int = 2,
    classes: np.ndarray | None = None,
    target_class: int | None = None,
) -> list[RoundSpec]:
    """Rounds deleting a fixed fraction of the initially retained ids.

    Each step removes `fraction` of the original pool, drawn uniformly
    across all clients without replacement between steps.  With a target
    class set, the pool is restricted to that class's ids and the
    fraction applies to the class pool instead.
    """
    if fraction < 0 or steps < 0 or fraction * steps > 1 + 1e-12:
        raise ValueError("fraction * steps must stay within the available pool")
    owners = _owner_map(assignments)
    pool = sorted(owners)
    if target_class is not None:
        if classes is None:
            raise ValueError("target_class requires the class labels")
        pool = [i for i in pool if int(classes[i]) == target_class]
    rng = rng_stream(seed, "schedule")
    perm = rng.permutation(np.asarray(pool, dtype=np.int64))
    size = int(fraction * len(pool))
    rounds = []
    for step in range(steps):
        ids = perm[step * size : (step + 1) * size]
        rounds.append(_delete_round(start_round + step, ids, owners))
    return rounds


def schedule_burst(
    seed: int, assignments: list[list[int]], count: int, start_round: int = 2
) -> list[RoundSpec]:
    """`count` rounds, each deleting exactly one retained sample."""
    owners = _owner_map(assignments)
    pool = sorted(owners)
    if count > len(pool):
        raise ValueError(f"cannot burst-delete {count} of {len(pool)} retained samples")
    rng = rng_stream(seed, "schedule")
    chosen = rng.permutation(np.asarray(pool, dtype=np.int64))[:count]
    return [
        _delete_round(start_round + i, [int(sid)], owners) for i, sid in enumerate(chosen)
    ]


def schedule_addback(burst: list[RoundSpec], start_round: int | None = None) -> list[RoundSpec]:
    """Re-add the ids of a burst schedule, one per round, in reverse order."""
    if start_round is None:
        start_round = (burst[-1].round + 1) if burst else 2
    rounds = []
    for i, spec in enumerate(reversed(burst)):
        events = [ClientEvent(ev.client, list(ev.delete), []) for ev in spec.events if ev.delete]
        rounds.append(RoundSpec(start_round + i, events))
    return rounds


def schedule_churn(
    seed: int,
    assignments: list[list[int]],
    rounds: int,
    adds_per_round: int,
    deletes_per_round: int,
    holdback_fraction: float = 0.2,
    start_round: int = 1,
) -> list[RoundSpec]:
    """Initial ingest plus rounds mixing additions and deletions.

    A held-back slice of the pool is kept out of the first round and fed
    in over the churn rounds, while deletions draw from whatever was
    retained before the round started (a sample added in round t can only
    be deleted from round t+1 on).
    """
    owners = _owner_map(assignments)
    rng = rng_stream(seed, "schedule")
    perm = list(rng.permutation(np.asarray(sorted(owners), dtype=np.int64)))
    n_hold = min(int(len(perm) * holdback_fraction), rounds * adds_per_round)
    held = [int(i) for i in perm[:n_hold]]
    initial = sorted(int(i) for i in perm[n_hold:])
    per_client: dict[int, list[int]] = {}
    for i in initial:
        per_client.setdefault(owners[i], []).append(i)
    out = [RoundSpec(start_round, [ClientEvent(k, v, []) for k, v in sorted(per_client.items())])]
    retained = list(initial)
    for step in range(rounds):
        adds = held[step * adds_per_round : (step + 1) * adds_per_round]
        n_del = min(deletes_per_round, len(retained))
        del_pos = rng.choice(len(retained), size=n_del, replace=False)
        dels = sorted(retained[p] for p in del_pos)
        events: dict[int, ClientEvent] = {}
        for i in adds:
            events.setdefault(owners[i], ClientEvent(owners[i])).add.append(i)
        for i in dels:
            events.setdefault(owners[i], ClientEvent(owners[i])).delete.append(i)
        out.append(RoundSpec(start_round + 1 + step, [events[k] for k in sorted(events)]))
        removed = set(dels)
        retained = [i for i in retained if i not in removed] + sorted(adds)
    return out


# ---------------------------------------------------------------------------
# scenario container


SCENARIO_VARIANTS = {"A": ["A"], "B": ["B"], "both": ["A", "B"], "approx": ["approx"]}

SCENARIO_VERSION = 2
# Version 1 files also carried Variant B's reset policy, now fixed in
# `coordinator`; they load only when they hold these values.
_RETIRED_V1_FIELDS = {
    "audit_every": AUDIT_EVERY,
    "drift_threshold": DRIFT_THRESHOLD,
    "condition_threshold": CONDITION_THRESHOLD,
}


class UnsupportedVersion(Exception):
    """A scenario file declares a format version this code cannot read."""


@dataclass
class Scenario:
    seed: int
    d: int
    c: int
    clients: int
    n: int
    n_train: int
    gamma: float
    precision: str
    variant: str  # "A", "B", "both" or "approx"
    partition: dict
    schedule: list[RoundSpec]
    rank: int = 8
    reset_every: int = 16
    sigma2: float = 1.0

    def __post_init__(self):
        if self.variant not in SCENARIO_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected A, B, both or approx")
        if self.precision not in PRECISION_DTYPES:
            raise ValueError(f"unknown precision {self.precision!r}, expected 'f32' or 'f64'")
        if self.gamma <= 0 or self.sigma2 <= 0:
            raise ValueError("gamma and sigma2 must be positive")
        if self.rank < 1:
            raise ValueError(f"rank must be at least 1, got {self.rank}")
        if self.reset_every < 0:
            raise ValueError("reset_every must be non-negative")

    def to_json(self) -> str:
        doc = asdict(self)
        doc["version"] = SCENARIO_VERSION
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        """Load a version 2 file, or a version 1 file that keeps the fixed reset policy."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"a scenario file holds a JSON object, not {type(doc).__name__}")
        version = doc.pop("version", None)
        if version == 1:
            for key, fixed in _RETIRED_V1_FIELDS.items():
                value = doc.pop(key, fixed)
                if value != fixed:
                    raise ValueError(f"scenario sets {key}={value!r}; version 2 fixes it at {fixed:g}")
        elif version != SCENARIO_VERSION:
            raise UnsupportedVersion(f"unsupported scenario version {version!r}; expected 1 or 2")
        doc["schedule"] = [
            RoundSpec(r["round"], [ClientEvent(e["client"], e["add"], e["delete"]) for e in r["events"]])
            for r in doc["schedule"]
        ]
        return Scenario(**doc)


# ---------------------------------------------------------------------------
# oracle and evaluation helpers


ORACLE_BLOCK_ROWS = 512


class RetainedGram:
    """Float64 (S, G, n) of a retained subset of rows, from cached id blocks.

    Sample ids are cut into fixed blocks of `block_rows = max(512, d)`
    consecutive rows.  Each block's statistics are formed by one
    `stats_from_batch` over its retained rows and cached under the block's
    retained mask, so a call recomputes only the blocks whose mask changed
    since the previous call.  The total is the sum of the non-empty blocks
    in ascending order and is never updated by subtraction: it is a pure
    function of the mask, bitwise the same whatever masks came before.
    With block_rows >= d the cached Grams hold at most about as many
    scalars as the feature matrix.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray):
        self.features = features
        self.labels = labels
        n, self.d = features.shape
        self.c = labels.shape[1]
        self.block_rows = max(ORACLE_BLOCK_ROWS, self.d)
        self.blocks = -(-n // self.block_rows)
        self._masks: list[np.ndarray | None] = [None] * self.blocks
        self._stats: list[SufficientStats | None] = [None] * self.blocks

    def stats(self, retained: np.ndarray) -> SufficientStats:
        """Statistics of the rows where the boolean mask `retained` is set."""
        if retained.dtype != np.bool_ or retained.shape != (self.features.shape[0],):
            raise ValueError(f"need a boolean mask over {self.features.shape[0]} rows")
        s = np.zeros((self.d, self.d))
        g = np.zeros((self.d, self.c))
        count = 0
        for b in range(self.blocks):
            rows = slice(b * self.block_rows, (b + 1) * self.block_rows)
            mask = retained[rows]
            if self._masks[b] is None or not np.array_equal(mask, self._masks[b]):
                self._masks[b] = mask.copy()
                self._stats[b] = (
                    stats_from_batch(self.features[rows][mask], self.labels[rows][mask])
                    if mask.any()
                    else None
                )
            st = self._stats[b]
            if st is not None:
                s += st.S
                g += st.G
                count += st.n
        return SufficientStats(s, g, count)


def oracle_retrain(
    gram: RetainedGram, retained: np.ndarray, gamma: float, sigma2: float = 1.0
) -> tuple[np.ndarray, MatrixNormalPosterior]:
    """Centralized float64 ridge head and posterior of the retained rows.

    The Gram comes from `gram`'s id blocks (only blocks whose retained rows
    changed are recomputed) and depends on the retained set alone; a fresh
    `RetainedGram` gives the from-scratch retrain.  The head is an LU
    solve, independent of the protocol's Cholesky path, and is also the
    posterior's mean; the posterior's precision factor is the Cholesky
    factor of the same S + gamma*I.
    """
    st = gram.stats(retained)
    h = st.S + float(gamma) * np.eye(st.d, dtype=st.S.dtype)
    head = np.linalg.solve(h, st.G)
    return head, MatrixNormalPosterior(head, cholesky_spd(h) / math.sqrt(sigma2))


def safe_rel_dev(w, w_ref) -> float:
    """Relative deviation, falling back to the absolute norm at a zero ref.

    An empty retained set has a zero oracle head; the protocol heads are
    then judged by their absolute Frobenius norm instead.
    """
    if frobenius_norm(w_ref) == 0.0:
        return frobenius_norm(w)
    return rel_frobenius_dev(w, w_ref)


def score_head(w, test_features, true_classes, c: int) -> tuple[float, list[float]]:
    """Accuracy and per-class recall of head `w` from one scoring pass.

    `test_features` is the float64 test matrix and `true_classes` its
    labels' argmax, both fixed for a run.  Empty sets and classes score NaN.
    """
    pred = (test_features @ np.asarray(w, dtype=np.float64)).argmax(axis=1)
    hits = pred == true_classes
    accuracy = float(np.count_nonzero(hits) / hits.size) if hits.size else float("nan")
    with np.errstate(invalid="ignore"):  # 0/0 is the NaN of an empty class
        recall = np.bincount(true_classes[hits], minlength=c) / np.bincount(true_classes, minlength=c)
    return accuracy, recall.tolist()


# ---------------------------------------------------------------------------
# the round loop


@dataclass
class VariantMetrics:
    rel_dev: float
    reset: bool
    scalars: int
    bytes: int
    lambda_max: float | None
    bound: float | None
    accuracy: float
    kl: float
    recall: list[float]


@dataclass
class RoundMetrics:
    round: int
    retained: int
    variants: dict[str, VariantMetrics]


@dataclass
class ScenarioResult:
    scenario: Scenario
    records: list[RoundMetrics]
    final_heads: dict[str, np.ndarray]
    summary: dict


def run_scenario(scenario: Scenario, features: np.ndarray, labels: np.ndarray) -> ScenarioResult:
    """Replay a scenario and collect per-round metrics for each variant."""
    if features.shape[0] != scenario.n:
        raise ValueError(f"feature file has {features.shape[0]} rows, scenario says {scenario.n}")
    if features.shape[1] != scenario.d or labels.shape[1] != scenario.c:
        raise ValueError(
            f"feature file has d={features.shape[1]} and c={labels.shape[1]}, "
            f"scenario says d={scenario.d} and c={scenario.c}"
        )
    variants = SCENARIO_VARIANTS[scenario.variant]
    test_f = features[scenario.n_train :].astype(np.float64)
    test_classes = labels[scenario.n_train :].argmax(axis=1)
    stores = {
        v: {
            k: ClientStore(k, scenario.d, scenario.c, scenario.precision)
            for k in range(scenario.clients)
        }
        for v in variants
    }
    ledgers = {
        v: ledger_init(scenario.d, scenario.c, scenario.gamma, scenario.precision)
        for v in variants
    }
    # Variant B and approx mode track T = (S + gamma*I)^-1 from the same start
    states = {v: init_from_ledger(ledgers[v]) for v in variants if v != "A"}
    owner = np.full(scenario.n, -1, dtype=np.int64)  # retaining client per sample id, -1 if none
    gram = RetainedGram(features, labels)  # per run, so `run --jobs` threads share no cache
    records: list[RoundMetrics] = []
    resets = 0
    total_bytes = {v: 0 for v in variants}
    max_kl = 0.0
    max_bound = 0.0
    inf_bound_rounds = 0
    heads: dict[str, np.ndarray] = {}

    for spec in scenario.schedule:
        events = sorted(spec.events, key=lambda e: e.client)
        if not events:
            continue
        clients = [ev.client for ev in events]
        if len(set(clients)) < len(clients):
            raise RuntimeError(f"round {spec.round} lists a client in more than one event")
        for ev in events:
            add = np.asarray(ev.add)
            delete = np.asarray(ev.delete)
            for ids in (add, delete):
                if ids.size and ids.dtype.kind not in "iu":
                    raise RuntimeError(f"round {spec.round} names an id that is not an integer")
                if ids.size and (ids.min() < 0 or ids.max() >= scenario.n):
                    raise RuntimeError(f"round {spec.round} names ids outside the feature file")
            add = add.astype(np.int64)
            delete = delete.astype(np.int64)
            if np.unique(add).size < add.size or np.unique(delete).size < delete.size:
                raise RuntimeError(f"round {spec.round} repeats an id within one client's event")
            if (owner[add] >= 0).any():
                raise RuntimeError(f"round {spec.round} re-adds retained ids")
            if (owner[delete] != ev.client).any():
                raise RuntimeError(f"round {spec.round} deletes ids client {ev.client} does not retain")
            owner[add] = ev.client
            owner[delete] = -1
        retained = owner >= 0
        n_retained = int(np.count_nonzero(retained))
        w_oracle, oracle_post = oracle_retrain(gram, retained, scenario.gamma, scenario.sigma2)

        round_variants: dict[str, VariantMetrics] = {}
        for v in variants:
            wire_variant = VARIANT_FULL if v == "A" else VARIANT_QR
            fold = RoundFold()
            for ev in events:
                store = stores[v][ev.client]
                store.ingest(Sample(i, features[i], labels[i]) for i in ev.add)
                # folded as soon as it is formed, so no message outlives its turn
                aggregate([store.make_round_message(spec.round, ev.add, ev.delete, wire_variant)], fold)
            agg = fold.close()
            lam = None
            bound = None
            reset = False
            if v == "A":
                ledgers[v], w = run_round_a(ledgers[v], agg)
            elif v == "B":
                ledgers[v], states[v], w, info = run_round_b(ledgers[v], states[v], agg)
                reset = info.reset
                lam = info.lambda_max
            else:
                ledgers[v], states[v], w, report = run_round_approx(
                    ledgers[v], states[v], agg, scenario.rank, scenario.reset_every
                )
                reset = report is None  # served exactly from the ledger, with no bound
                if not reset:
                    bound = report.inverse_bound
                    if math.isfinite(bound):
                        max_bound = max(max_bound, bound)
                    else:
                        inf_bound_rounds += 1
            if reset:
                resets += 1
            if ledgers[v].stats.n != n_retained:
                raise RuntimeError(
                    f"retained-count bookkeeping broke in round {spec.round}: "
                    f"ledger says {ledgers[v].stats.n}, stream says {n_retained}"
                )
            comm = fold.comm(scenario.precision)
            total_bytes[v] += comm.total_bytes
            kl = kl_matrix_normal(posterior_from_ledger(ledgers[v], scenario.sigma2), oracle_post)
            max_kl = max(max_kl, kl)
            heads[v] = w
            accuracy, recall = score_head(w, test_f, test_classes, scenario.c)
            round_variants[v] = VariantMetrics(
                rel_dev=safe_rel_dev(w, w_oracle),
                reset=reset,
                scalars=comm.total_scalars,
                bytes=comm.total_bytes,
                lambda_max=lam,
                bound=bound,
                accuracy=accuracy,
                kl=kl,
                recall=recall,
            )
        records.append(RoundMetrics(spec.round, n_retained, round_variants))

    last = records[-1].variants if records else {}
    summary = {
        "schema_version": 2,
        "final_dev_A": last["A"].rel_dev if "A" in last else None,
        "final_dev_B": last["B"].rel_dev if "B" in last else None,
        "resets": resets,
        "total_bytes_A": total_bytes.get("A", 0),
        "total_bytes_B": total_bytes.get("B", 0),
        "max_kl": max_kl,
    }
    if "approx" in variants:
        summary["final_dev_approx"] = last["approx"].rel_dev if "approx" in last else None
        summary["max_bound"] = max_bound
        summary["inf_bound_rounds"] = inf_bound_rounds
        summary["total_bytes_approx"] = total_bytes.get("approx", 0)
    return ScenarioResult(scenario, records, heads, summary)


# ---------------------------------------------------------------------------
# output files


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def metrics_csv(result: ScenarioResult) -> str:
    """CSV with one row per round per variant, deterministic formatting."""
    lines = ["round,variant,rel_dev_vs_oracle,reset_flag,scalars_sent,bytes_sent,lambda_max,bound,accuracy,kl"]
    for rec in result.records:
        for v in sorted(rec.variants):
            m = rec.variants[v]
            lines.append(
                ",".join(
                    [
                        str(rec.round),
                        v,
                        _fmt(m.rel_dev),
                        _fmt(m.reset),
                        str(m.scalars),
                        str(m.bytes),
                        _fmt(m.lambda_max),
                        _fmt(m.bound),
                        _fmt(m.accuracy),
                        _fmt(m.kl),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def events_jsonl(scenario: Scenario) -> str:
    lines = []
    for spec in scenario.schedule:
        for ev in sorted(spec.events, key=lambda e: e.client):
            for op, ids in (("add", ev.add), ("delete", ev.delete)):
                if ids:
                    lines.append(
                        json.dumps(
                            {
                                "round": spec.round,
                                "client_id": ev.client,
                                "op": op,
                                "sample_ids": list(ids),
                                "variant": scenario.variant,
                            },
                            sort_keys=True,
                        )
                    )
    return "\n".join(lines) + ("\n" if lines else "")


def summary_json(result: ScenarioResult) -> str:
    return json.dumps(result.summary, sort_keys=True, indent=2) + "\n"
