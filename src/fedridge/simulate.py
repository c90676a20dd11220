"""Scenario generation and the end-to-end federated round loop.

A scenario bundles everything needed to replay a federated add/delete
stream deterministically: the data seed, the client partition, an explicit
per-round event schedule, and the server configuration.  The harness
feeds client stores' messages to one `coordinator.Server` per variant,
round by round, and after every round retrains the centralized head on
the retained samples; the relative deviation against that oracle is the
headline metric everywhere.
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
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np

from .client import ClientStore, read_only
from .coordinator import Server
from .kernels import DimensionMismatch, NotSPD, cholesky_spd, frobenius_norm
from .posterior import MatrixNormalPosterior, kl_matrix_normal
from .stats import PRECISION_DTYPES, SufficientStats, stats_from_batch

_SUBSTREAMS = {"data": 0, "partition": 1, "schedule": 2}


def _is_int(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
    if not math.isfinite(class_separation):
        raise ValueError(f"class separation must be finite, got {class_separation!r}")
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
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
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
    fraction applies to the class pool instead.  A step that would delete
    no id, because ⌊fraction·|pool|⌋ = 0, is refused.
    """
    if fraction < 0 or steps < 0 or fraction * steps > 1 + 1e-12:
        raise ValueError("fraction * steps must stay within the available pool")
    owners = _owner_map(assignments)
    pool = sorted(owners)
    if target_class is not None:
        if classes is None:
            raise ValueError("target_class requires the class labels")
        pool = [i for i in pool if int(classes[i]) == target_class]
        if not pool:
            raise ValueError(f"no retained sample has target class {target_class}")
    rng = rng_stream(seed, "schedule")
    perm = rng.permutation(np.asarray(pool, dtype=np.int64))
    size = int(fraction * len(pool))
    if steps and not size:
        raise ValueError(f"a fraction of {fraction!r} deletes no id of a pool of {len(pool)}")
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
    if not 0 <= count <= len(pool):
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
    if min(rounds, adds_per_round, deletes_per_round) < 0:
        raise ValueError(
            f"rounds, adds and deletes per round must be non-negative, "
            f"got {rounds}, {adds_per_round} and {deletes_per_round}"
        )
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
        for name in ("seed", "d", "c", "clients", "n", "n_train", "rank", "reset_every"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.clients < 1 or self.d < 1 or self.c < 2:
            raise ValueError(f"need clients >= 1, d >= 1 and c >= 2, got {self.clients}, {self.d} and {self.c}")
        if not 0 <= self.n_train <= self.n:
            raise ValueError(f"n_train must lie in [0, n={self.n}], got {self.n_train}")
        if self.variant not in SCENARIO_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected A, B, both or approx")
        if self.precision not in PRECISION_DTYPES:
            raise ValueError(f"unknown precision {self.precision!r}, expected 'f32' or 'f64'")
        for name in ("gamma", "sigma2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
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
        """Load a version 2 file; any other version raises UnsupportedVersion."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise TypeError(f"a scenario file holds a JSON object, not {type(doc).__name__}")
        version = doc.pop("version", None)
        if version != SCENARIO_VERSION:
            raise UnsupportedVersion(f"unsupported scenario version {version!r}; expected {SCENARIO_VERSION}")
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
    then judged by their absolute Frobenius norm instead.  Otherwise this is
    `kernels.rel_frobenius_dev`, bitwise, with ||w_ref||_F formed once.
    """
    w = np.asarray(w, dtype=np.float64)
    w_ref = np.asarray(w_ref, dtype=np.float64)
    if w.shape != w_ref.shape:
        raise DimensionMismatch(f"shape mismatch {w.shape} vs {w_ref.shape}")
    ref = frobenius_norm(w_ref)
    if ref == 0.0:
        return frobenius_norm(w)
    return frobenius_norm(w - w_ref) / ref


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
    # every client store shares these rows; a writable matrix is copied here once
    features, labels = read_only(features), read_only(labels)
    test_f = features[scenario.n_train :].astype(np.float64)
    test_classes = labels[scenario.n_train :].argmax(axis=1)
    servers = {
        v: Server(v, scenario.d, scenario.c, scenario.gamma, scenario.precision, scenario.rank, scenario.reset_every)
        for v in variants
    }
    stores = {
        v: {k: ClientStore(k, features, labels, scenario.precision) for k in range(scenario.clients)} for v in variants
    }
    owner = np.full(scenario.n, -1, dtype=np.int64)  # retaining client per sample id, -1 if none
    gram = RetainedGram(features, labels)
    records: list[RoundMetrics] = []

    previous_round = None
    for spec in scenario.schedule:
        if not _is_int(spec.round) or (previous_round is not None and spec.round <= previous_round):
            raise RuntimeError(
                f"round {spec.round!r} is not an integer above the round before it ({previous_round!r})"
            )
        previous_round = spec.round
        events = sorted(spec.events, key=lambda e: e.client)
        if not events:
            continue
        clients = [ev.client for ev in events]
        if len(set(clients)) < len(clients):
            raise RuntimeError(f"round {spec.round} lists a client in more than one event")
        for ev in events:
            if not _is_int(ev.client) or ev.client not in range(scenario.clients):
                raise RuntimeError(f"round {spec.round} names client {ev.client!r}, not an integer in [0, {scenario.clients})")
            add, delete = np.asarray(ev.add), np.asarray(ev.delete)
            for ids in (add, delete):
                if ids.size and ids.dtype.kind not in "iu":
                    raise RuntimeError(f"round {spec.round} names an id that is not an integer")
                if ids.size and (ids.min() < 0 or ids.max() >= scenario.n):
                    raise RuntimeError(f"round {spec.round} names ids outside the feature file")
            add, delete = add.astype(np.int64), delete.astype(np.int64)
            if add.size and add.max() >= scenario.n_train:
                raise RuntimeError(f"round {spec.round} adds ids of the test split (n_train={scenario.n_train})")
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
        for v, server in servers.items():
            # a generator: each message is formed only when the server folds it
            messages = (
                stores[v][ev.client]
                .ingest(ev.add)
                .make_round_message(spec.round, ev.add, ev.delete, server.wire_variant)
                for ev in events
            )
            try:
                w, report, comm = server.serve(messages)
            except NotSPD as exc:
                raise RuntimeError(f"round {spec.round}: {v}'s ledger or state is not SPD: {exc}") from exc
            if server.ledger.stats.n != n_retained:
                raise RuntimeError(
                    f"retained-count bookkeeping broke in round {spec.round}: "
                    f"ledger says {server.ledger.stats.n}, stream says {n_retained}"
                )
            try:
                kl = kl_matrix_normal(server.posterior(scenario.sigma2), oracle_post)
            except NotSPD as exc:
                raise RuntimeError(f"round {spec.round}: {v}'s served T cannot be certified: {exc}") from exc
            accuracy, recall = score_head(w, test_f, test_classes, scenario.c)
            round_variants[v] = VariantMetrics(
                rel_dev=safe_rel_dev(w, w_oracle),
                reset=report.reset,
                scalars=comm.total_scalars,
                bytes=comm.total_bytes,
                lambda_max=report.lambda_max,
                bound=report.bound,
                accuracy=accuracy,
                kl=kl,
                recall=recall,
            )
        records.append(RoundMetrics(spec.round, n_retained, round_variants))

    rows = [rec.variants for rec in records]
    last = rows[-1] if rows else {}
    summary = {
        "schema_version": 3,
        "final_dev_A": last["A"].rel_dev if "A" in last else None,
        "final_dev_B": last["B"].rel_dev if "B" in last else None,
        "resets": sum(m.reset for row in rows for m in row.values()),
        "total_bytes_A": sum(row["A"].bytes for row in rows if "A" in row),
        "total_bytes_B": sum(row["B"].bytes for row in rows if "B" in row),
        # np.max, unlike max(), carries a NaN through; so does max_bound's
        "max_kl": float(np.max([m.kl for row in rows for m in row.values()], initial=0.0)),
    }
    if "approx" in variants:
        summary["final_dev_approx"] = last["approx"].rel_dev if "approx" in last else None
        bounds = [row["approx"].bound for row in rows if not row["approx"].reset]
        summary["max_bound"] = float(np.max(bounds, initial=0.0))
        summary["total_bytes_approx"] = sum(row["approx"].bytes for row in rows)
    return ScenarioResult(scenario, records, {v: server.head for v, server in servers.items()}, summary)


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
