"""Scenario generation and the end-to-end federated round loop.

A scenario bundles everything needed to replay a federated add/delete
stream deterministically: the data seed, the client partition, an explicit
per-round event schedule, and the server configuration.  The harness
checks the whole schedule once (`check_schedule`) before round 1, then
feeds client stores' messages to one `coordinator.Server` per variant,
round by round, and after every round retrains the centralized head on
the retained samples (`oracle_retrain`); the relative deviation against
that oracle is the headline metric everywhere.

Each variant's round is one record, `VariantMetrics`: the `RoundReport`
and `CommRecord` that `Server.serve` returned, and the harness's own
scores.  `metrics.csv` takes its header and its cells from one column
table (`METRICS_COLUMNS`), the summary totals the same records, and each
row `exact_row` names is held to `HARD_DEVIATION_CEILING` once served.

Synthetic features stand in for a frozen feature extractor: Gaussian
clusters with controllable mean separation, generated in single precision
regardless of the precision the protocol later accumulates in.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from itertools import accumulate, chain
from operator import attrgetter

import numpy as np

from .client import ClientStore, read_only
from .coordinator import APPROX_DEFAULTS, CommRecord, RoundReport, Server, check_approx_settings
from .kernels import NotSPD, add_to_diagonal, cholesky_spd, rel_frobenius_dev
from .posterior import MatrixNormalPosterior, kl_matrix_normal
from .stats import PRECISION_DTYPES, SufficientStats, check_gamma, is_int, is_int_type, stats_from_batch
from .wire import MAX_COUNT, MAX_DIM

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


FEATURE_BLOCK_ELEMENTS = 2**16  # float64 scalars in one block of `gen_synthetic`'s draw


def gen_synthetic(seed: int, n: int, d: int, c: int, class_separation: float) -> SyntheticData:
    """Gaussian cluster features with an 80/20 train/test split.

    Cluster means are random directions scaled to `class_separation`;
    zero separation makes every class identically distributed, so any
    head can only reach chance accuracy.  A separation whose features do
    not fit in float32 is refused, since no run could read them.
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
    classes = np.resize(np.arange(c), n)
    rng.shuffle(classes)
    # float32 rows filled a block at a time: the generator draws sequentially
    # and addition commutes, so this is bitwise one n x d float64 draw plus
    # means[classes], cast once, without that sum's float64 temporaries
    features = np.empty((n, d), dtype=np.float32)
    step = max(1, FEATURE_BLOCK_ELEMENTS // d)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, step):
            cls = classes[start : start + step]
            rows = features[start : start + cls.size]
            block = rng.standard_normal(rows.shape)
            block += means[cls]
            rows[...] = block
            if not np.isfinite(rows).all():
                raise ValueError(
                    f"class separation {class_separation!r} gives features that are not finite in float32"
                )
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
            out[client].extend(part.tolist())
    return [sorted(ids) for ids in out]


def writer_partition(seed: int, n: int, k: int, writers: int) -> list[list[int]]:
    """Writer-style grouping: samples belong to writers, writers to clients."""
    if k < 1:
        raise ValueError("need at least one client")
    if writers < k:
        raise ValueError("need at least as many writers as clients")
    rng = rng_stream(seed, "partition")
    client_of = rng.integers(0, writers, size=n) % k
    # a stable sort of the ids by client keeps each client's ids ascending
    bounds = np.cumsum(np.bincount(client_of, minlength=k))[:-1]
    return [part.tolist() for part in np.split(np.argsort(client_of, kind="stable"), bounds)]


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


def _owners(assignments: list[list[int]]) -> tuple[list[int], np.ndarray]:
    """Each id's client as a list indexed by id (-1 where none), and the assigned ids ascending."""
    sizes = [len(ids) for ids in assignments]
    ids = np.fromiter(chain.from_iterable(assignments), dtype=np.int64, count=sum(sizes))
    owner = np.full(ids.max() + 1 if ids.size else 0, -1, dtype=np.int64)
    owner[ids] = np.repeat(np.arange(len(assignments)), sizes)
    return owner.tolist(), np.unique(ids)


def grouped_round(round_index: int, owners, adds=(), deletes=()) -> RoundSpec:
    """One round listing each id under the client `owners[id]` that owns it.

    `owners` maps an id to its client: a list indexed by id, or a dict.
    Clients come in ascending order, and each client's ids in the order given.
    """
    add: dict[int, list[int]] = {}
    delete: dict[int, list[int]] = {}
    for i in adds:
        add.setdefault(owners[i], []).append(i)
    for i in deletes:
        delete.setdefault(owners[i], []).append(i)
    events = [ClientEvent(k, add.get(k, []), delete.get(k, [])) for k in sorted(add.keys() | delete.keys())]
    return RoundSpec(round_index, events)


def schedule_chunked(
    seed: int,
    assignments: list[list[int]],
    fraction: float,
    steps: int,
    classes: np.ndarray | None = None,
    target_class: int | None = None,
) -> list[RoundSpec]:
    """Rounds 2, 3, ... deleting a fixed fraction of the initially retained ids.

    Each step removes `fraction` of the original pool, drawn uniformly
    across all clients without replacement between steps.  With a target
    class set, the pool is restricted to that class's ids and the
    fraction applies to the class pool instead.  A step that would delete
    no id, because ⌊fraction·|pool|⌋ = 0, is refused, and so is a fraction
    that is not a finite number in [0, 1].
    """
    if not (math.isfinite(fraction) and 0 <= fraction <= 1):
        raise ValueError(f"fraction must be a finite number in [0, 1], got {fraction!r}")
    if steps < 0 or fraction * steps > 1 + 1e-12:
        raise ValueError("fraction * steps must stay within the available pool")
    owners, pool = _owners(assignments)
    if target_class is not None:
        if classes is None:
            raise ValueError("target_class requires the class labels")
        pool = pool[np.asarray(classes)[pool] == target_class]
        if not pool.size:
            raise ValueError(f"no retained sample has target class {target_class}")
    rng = rng_stream(seed, "schedule")
    perm = rng.permutation(pool)
    size = int(fraction * len(pool))
    if steps and not size:
        raise ValueError(f"a fraction of {fraction!r} deletes no id of a pool of {len(pool)}")
    return [
        grouped_round(2 + step, owners, deletes=np.sort(perm[step * size : (step + 1) * size]).tolist())
        for step in range(steps)
    ]


def schedule_burst(seed: int, assignments: list[list[int]], count: int) -> list[RoundSpec]:
    """Rounds 2 to count + 1, each deleting exactly one retained sample."""
    owners, pool = _owners(assignments)
    if not 0 <= count <= len(pool):
        raise ValueError(f"cannot burst-delete {count} of {len(pool)} retained samples")
    rng = rng_stream(seed, "schedule")
    chosen = rng.permutation(pool)[:count].tolist()
    return [grouped_round(2 + i, owners, deletes=[sid]) for i, sid in enumerate(chosen)]


def schedule_addback(burst: list[RoundSpec]) -> list[RoundSpec]:
    """Re-add the ids of a burst schedule, one round each in reverse order, after its last round."""
    return [
        RoundSpec(burst[-1].round + 1 + i, [ClientEvent(ev.client, list(ev.delete)) for ev in spec.events if ev.delete])
        for i, spec in enumerate(reversed(burst))
    ]


CHURN_HOLDBACK = 0.2  # the share of the pool that churn keeps out of round 1


def schedule_churn(
    seed: int,
    assignments: list[list[int]],
    rounds: int,
    adds_per_round: int,
    deletes_per_round: int,
) -> list[RoundSpec]:
    """Initial ingest in round 1 plus rounds 2 to rounds + 1 mixing additions and deletions.

    A held-back slice (`CHURN_HOLDBACK`) of the pool is kept out of the
    first round and fed in over the churn rounds, while deletions draw from
    whatever was retained before the round started (a sample added in round
    t can only be deleted from round t+1 on).
    """
    if min(rounds, adds_per_round, deletes_per_round) < 0:
        raise ValueError(
            f"rounds, adds and deletes per round must be non-negative, "
            f"got {rounds}, {adds_per_round} and {deletes_per_round}"
        )
    owners, pool = _owners(assignments)
    rng = rng_stream(seed, "schedule")
    perm = rng.permutation(pool)
    n_hold = min(int(len(perm) * CHURN_HOLDBACK), rounds * adds_per_round)
    held = perm[:n_hold]
    retained = np.sort(perm[n_hold:])  # in the order deletions draw positions from
    out = [grouped_round(1, owners, adds=retained.tolist())]
    for step in range(rounds):
        adds = held[step * adds_per_round : (step + 1) * adds_per_round]
        del_pos = rng.choice(len(retained), size=min(deletes_per_round, len(retained)), replace=False)
        out.append(grouped_round(2 + step, owners, adds.tolist(), np.sort(retained[del_pos]).tolist()))
        retained = np.concatenate([np.delete(retained, del_pos), np.sort(adds)])
    return out


# ---------------------------------------------------------------------------
# scenario container


SCENARIO_VARIANTS = {"A": ["A"], "B": ["B"], "both": ["A", "B"], "approx": ["approx"]}

SCENARIO_VERSION = 3


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
    rank: int = APPROX_DEFAULTS["rank"]
    reset_every: int = APPROX_DEFAULTS["reset_every"]

    def __post_init__(self):
        for name in ("seed", "d", "c", "clients", "n", "n_train"):
            if not is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        # every count a frame header or the feature file's header carries fits there
        if not (1 <= self.clients <= MAX_COUNT + 1 and 1 <= self.d <= MAX_DIM and 2 <= self.c <= MAX_DIM):
            raise ValueError(
                f"need clients in [1, 2^32], d in [1, {MAX_DIM}] and c in [2, {MAX_DIM}], "
                f"got {self.clients}, {self.d} and {self.c}"
            )
        if not 1 <= self.n <= MAX_COUNT:
            raise ValueError(f"n must lie in [1, 2^32), got {self.n}")
        if not 0 <= self.n_train <= self.n:
            raise ValueError(f"n_train must lie in [0, n={self.n}], got {self.n_train}")
        if self.variant not in SCENARIO_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected A, B, both or approx")
        if self.precision not in PRECISION_DTYPES:
            raise ValueError(f"unknown precision {self.precision!r}, expected 'f32' or 'f64'")
        # an int past the largest double is refused here, not by an OverflowError later
        gamma = self.gamma
        if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not 0 < gamma <= sys.float_info.max:
            raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
        check_gamma(gamma, self.precision)
        check_approx_settings(self.rank, self.reset_every)

    def to_json(self) -> str:
        """The version 3 document, built from the fields; `partition` goes in as given."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["schedule"] = [
            {
                "round": spec.round,
                "events": [{"client": ev.client, "add": ev.add, "delete": ev.delete} for ev in spec.events],
            }
            for spec in self.schedule
        ]
        doc["version"] = SCENARIO_VERSION
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Scenario":
        """Load a version 3 file; any other version raises UnsupportedVersion."""
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

    Sample ids are laid out in a fixed order and cut into blocks of
    `block_rows = max(512, d)` rows; `rows[b]` holds block b's ids.
    Without `rounds` the order is the ids ascending over all n rows.
    Given the event rounds a run will replay, the layout leaves out every
    row no event names, puts the rows whose last event is in the first
    round in blocks of their own (ids ascending), and orders the others
    by the round of their last event, ties by id.  A round after the
    first then changes the mask of only the blocks holding the rows it
    names, and the first round's blocks never change again.

    Each block's statistics are formed by one `stats_from_batch` over its
    retained rows and cached, with the retained mask of the whole layout
    at the previous call.  A call gathers the mask in layout order once,
    compares it with that one at once (one `!=`, reduced per block), and
    re-forms only the blocks where the two differ.  The total is the sum
    of the non-empty blocks in block order and is never updated by
    subtraction: for the fixed layout it is a pure function of the mask,
    bitwise the same whatever masks came before, and its S is a fresh
    array each call.  A mask that retains a row outside the layout raises
    ValueError before any block is re-formed.  The
    first round's cut adds at most one block to the ⌈n/block_rows⌉ of the
    ascending layout, so with block_rows >= d the cached d×d Grams hold
    at most (⌈n/block_rows⌉ + 1)·block_rows·d scalars: (n + block_rows)·d
    when block_rows divides n.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray, rounds: list[RoundSpec] | None = None):
        self.features = features
        self.labels = labels
        n, self.d = features.shape
        self.c = labels.shape[1]
        self.block_rows = max(ORACLE_BLOCK_ROWS, self.d)
        if rounds is None:
            groups = [np.arange(n)]
        else:
            last = np.full(n, -1, dtype=np.int64)  # position in `rounds` of each row's last event
            for i, spec in enumerate(rounds):
                for ev in spec.events:
                    last[ev.add] = i
                    last[ev.delete] = i
            later = np.flatnonzero(last > 0)
            groups = [np.flatnonzero(last == 0), later[np.argsort(last[later], kind="stable")]]
        self._order = np.concatenate(groups)  # every laid-out id, block by block
        sizes = [min(self.block_rows, g.size - a) for g in groups for a in range(0, g.size, self.block_rows)]
        self._starts = np.cumsum([0, *sizes])  # block b is _order[_starts[b]:_starts[b + 1]]
        self.rows = [self._order[a:b] for a, b in zip(self._starts[:-1], self._starts[1:])]
        self.blocks = len(self.rows)
        self._mask: np.ndarray | None = None  # the laid-out mask the cached blocks were formed under
        self._stats: list[SufficientStats | None] = [None] * self.blocks

    def stats(self, retained: np.ndarray) -> SufficientStats:
        """Statistics of the rows where the boolean mask `retained` is set."""
        if retained.dtype != np.bool_ or retained.shape != (self.features.shape[0],):
            raise ValueError(f"need a boolean mask over {self.features.shape[0]} rows")
        mask = retained[self._order]
        count = np.count_nonzero(mask)
        if count != np.count_nonzero(retained):
            raise ValueError("the mask retains rows that no round of the layout names")
        if self._mask is None:
            changed = range(self.blocks)
        else:
            changed = np.flatnonzero(np.logical_or.reduceat(mask != self._mask, self._starts[:-1]))
        for b in changed:
            kept = self.rows[b][mask[self._starts[b] : self._starts[b + 1]]]
            self._stats[b] = stats_from_batch(self.features[kept], self.labels[kept]) if kept.size else None
        self._mask = mask
        s = np.zeros((self.d, self.d))
        g = np.zeros((self.d, self.c))
        for st in self._stats:
            if st is not None:
                s += st.S
                g += st.G
        return SufficientStats(s, g, count)


def oracle_retrain(gram: RetainedGram, retained: np.ndarray, gamma: float) -> tuple[np.ndarray, MatrixNormalPosterior]:
    """Centralized float64 ridge head and posterior of the retained rows.

    The Gram comes from `gram`'s id blocks (only blocks whose retained rows
    changed are recomputed) and, for the gram's fixed layout, depends on
    the retained set alone; a fresh `RetainedGram` of the same rounds gives
    the from-scratch retrain bitwise, and one of another layout within
    rounding.  The head is an LU solve, independent of the protocol's
    Cholesky path, and is also the posterior's mean; the posterior's
    precision factor is the Cholesky factor of the same S + gamma*I,
    formed by adding gamma on the diagonal of the fresh sum `gram` returns.
    """
    st = gram.stats(retained)
    h = add_to_diagonal(st.S, float(gamma))
    head = np.linalg.solve(h, st.G)
    return head, MatrixNormalPosterior(head, cholesky_spd(h))


def score_head(w, test_features, true_classes, class_totals) -> tuple[float, list[float]]:
    """Accuracy and per-class recall of head `w` from one scoring pass.

    `test_features` is the float64 test matrix, `true_classes` its labels'
    argmax and `class_totals` each of the c classes' number of test rows,
    `np.bincount(true_classes, minlength=c)`; all three are fixed for a
    run, which computes them once.  Empty sets and classes score NaN.
    """
    pred = (test_features @ np.asarray(w, dtype=np.float64)).argmax(axis=1)
    hits = pred == true_classes
    accuracy = float(np.count_nonzero(hits) / hits.size) if hits.size else float("nan")
    with np.errstate(invalid="ignore"):  # 0/0 is the NaN of an empty class
        recall = np.bincount(true_classes[hits], minlength=len(class_totals)) / class_totals
    return accuracy, recall.tolist()


# ---------------------------------------------------------------------------
# the round loop


@dataclass
class VariantMetrics:
    """One variant's row of a round: `Server.serve`'s report and uplink, then the harness's own figures."""

    report: RoundReport
    comm: CommRecord
    rel_dev: float
    accuracy: float
    kl: float
    recall: list[float]


def exact_row(variant: str, report: RoundReport) -> bool:
    """Whether a row's head is served exactly: every A and B row, and approx's reset rows."""
    return variant in ("A", "B") or report.reset


# In double precision any oracle deviation of an exact row above this is a bug, not a result.
HARD_DEVIATION_CEILING = 1e-6


@dataclass
class RoundMetrics:
    round: int
    retained: int
    variants: dict[str, VariantMetrics]


@dataclass
class ScenarioResult:
    records: list[RoundMetrics]
    final_heads: dict[str, np.ndarray]
    summary: dict


def _repeat(ids: np.ndarray) -> int | None:
    """The smallest id that occurs twice, by one sort, or None."""
    if ids.size < 2:
        return None
    ids = np.sort(ids)
    same = ids[1:] == ids[:-1]
    return int(ids[same.argmax()]) if same.any() else None


def check_schedule(scenario: Scenario) -> list[RoundSpec]:
    """The rounds that have events, sorted by client with int64 ids, once all are valid.

    Rounds are strictly increasing integers in [0, 2^32), which a frame
    header holds, each naming a client at most once, by an integer in [0,
    clients), with flat integer id lists in [0, n) and adds in the training
    split.  As of the round's start, its adds are distinct ids no client
    retains and each delete a distinct id its own client retains; a
    violation raises RuntimeError naming the round.

    A round is checked in one pass over one flat list of all its ids, the
    adds of every event and then the deletes: one integer test per distinct
    type in the list, one int64 array with one range check, then, each with
    its own message, the adds' largest id against the training split, one
    sort each of the adds and the deletes for repeats (naming the smallest
    repeated id), and one gather of the client that retains each id, against
    no client for an add and the event's own for a delete (naming the first
    id that differs, adds before deletes, and the client that retains it or
    was to).  A returned event's ids are views of its round's array, in
    file order.
    """
    owner = np.full(scenario.n, -1, dtype=np.int64)  # retaining client per sample id, -1 if none
    rounds: list[RoundSpec] = []
    numbers = [spec.round for spec in scenario.schedule]
    for previous, spec in zip([None, *numbers], scenario.schedule):
        r = spec.round
        if not is_int(r) or not 0 <= r <= MAX_COUNT or (previous is not None and r <= previous):
            raise RuntimeError(f"round {r!r} is not an integer in [0, 2^32) above the round before it ({previous!r})")
        for ev in spec.events:
            if not is_int(ev.client) or ev.client not in range(scenario.clients):
                raise RuntimeError(f"round {r} names client {ev.client!r}, not an integer in [0, {scenario.clients})")
        events = sorted(spec.events, key=lambda e: e.client)
        if not events:
            continue
        sides = [ev.add for ev in events] + [ev.delete for ev in events]  # every add, then every delete
        if not all(isinstance(ids, list) for ids in sides):
            raise RuntimeError(f"round {r} gives ids that are not a list")
        flat = list(chain.from_iterable(sides))
        if not all(map(is_int_type, set(map(type, flat)))):
            raise RuntimeError(f"round {r} names an id that is not an integer")
        try:
            ids = np.array(flat, dtype=np.int64)
        except OverflowError:  # an integer beyond int64 is beyond the feature file
            ids = None
        if ids is None or (ids.size and (ids.min() < 0 or ids.max() >= scenario.n)):
            raise RuntimeError(f"round {r} names ids outside the feature file")
        if len({ev.client for ev in events}) < len(events):
            raise RuntimeError(f"round {r} lists a client in more than one event")
        m = len(events)
        clients = [ev.client for ev in events]
        sizes = [len(side) for side in sides]
        bounds = list(accumulate(sizes, initial=0))
        views = [ids[a:b] for a, b in zip(bounds, bounds[1:])]
        events = [ClientEvent(k, add, delete) for k, add, delete in zip(clients, views[:m], views[m:])]
        adds, deletes = ids[: bounds[m]], ids[bounds[m] :]
        if adds.size and adds.max() >= scenario.n_train:
            raise RuntimeError(f"round {r} adds ids of the test split (n_train={scenario.n_train})")
        for verb, side in (("adds", adds), ("deletes", deletes)):
            if (twice := _repeat(side)) is not None:
                raise RuntimeError(f"round {r} {verb} id {twice} more than once")
        expected = np.array([-1] * m + clients, dtype=np.int64).repeat(sizes)
        wrong = owner[ids] != expected
        if wrong.any():
            at = int(wrong.argmax())
            i = int(ids[at])
            if at < bounds[m]:
                raise RuntimeError(f"round {r} re-adds id {i}, which client {owner[i]} retains")
            raise RuntimeError(f"round {r} deletes id {i}, which client {expected[at]} does not retain")
        # an add's client retains it from now on, and a deleted id no client
        owner[ids] = np.array(clients + [-1] * m, dtype=np.int64).repeat(sizes)
        rounds.append(RoundSpec(r, events))
    return rounds


def run_scenario(scenario: Scenario, features: np.ndarray, labels: np.ndarray) -> ScenarioResult:
    """Replay a scenario and collect per-round metrics for each variant.

    RuntimeError names the round of an invalid schedule (`check_schedule`,
    before round 1), of a matrix that does not factor, and of an exact row
    (`exact_row`) whose deviation is NaN or, in double precision, above
    `HARD_DEVIATION_CEILING`, held to it as soon as the row is served.
    """
    if features.shape[0] != scenario.n:
        raise ValueError(f"feature file has {features.shape[0]} rows, scenario says {scenario.n}")
    if features.shape[1] != scenario.d or labels.shape[1] != scenario.c:
        raise ValueError(
            f"feature file has d={features.shape[1]} and c={labels.shape[1]}, "
            f"scenario says d={scenario.d} and c={scenario.c}"
        )
    schedule = check_schedule(scenario)
    variants = SCENARIO_VARIANTS[scenario.variant]
    # every client store shares these rows; a writable matrix is copied here once
    features, labels = read_only(features), read_only(labels)
    test_f = features[scenario.n_train :].astype(np.float64)
    test_classes = labels[scenario.n_train :].argmax(axis=1)
    class_totals = np.bincount(test_classes, minlength=scenario.c)
    ceiling = HARD_DEVIATION_CEILING if scenario.precision == "f64" else math.inf
    servers = {
        v: Server(v, scenario.d, scenario.c, scenario.gamma, scenario.precision, scenario.rank, scenario.reset_every)
        for v in variants
    }
    # stores for the clients the schedule names, so memory does not grow with an unused `clients`
    named = {ev.client for spec in schedule for ev in spec.events}
    stores = {v: {k: ClientStore(k, features, labels, scenario.precision) for k in named} for v in variants}
    gram = RetainedGram(features, labels, schedule)
    retained = np.zeros(scenario.n, dtype=bool)
    records: list[RoundMetrics] = []

    for spec in schedule:
        for ev in spec.events:
            retained[ev.delete] = False
            retained[ev.add] = True
        n_retained = int(np.count_nonzero(retained))
        try:
            w_oracle, oracle_post = oracle_retrain(gram, retained, scenario.gamma)
        except NotSPD as exc:
            raise RuntimeError(f"round {spec.round}: the retrain's S+γI is not SPD: {exc}") from exc

        round_variants: dict[str, VariantMetrics] = {}
        for v, server in servers.items():
            # a generator: each message is formed only when the server folds it
            messages = (
                stores[v][ev.client].make_round_message(spec.round, ev.add, ev.delete, server.wire_variant)
                for ev in spec.events
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
            rel_dev = rel_frobenius_dev(w, w_oracle)
            # a NaN fails the `<=` in either precision
            if exact_row(v, report) and not rel_dev <= ceiling:
                raise RuntimeError(
                    f"round {spec.round}: {v}'s exact row deviates by {rel_dev:.3e}, "
                    f"above the {scenario.precision} ceiling {ceiling:.0e}; treating as a bug"
                )
            try:
                kl = kl_matrix_normal(server.posterior(), oracle_post)
            except NotSPD as exc:
                raise RuntimeError(f"round {spec.round}: {v}'s served T cannot be certified: {exc}") from exc
            accuracy, recall = score_head(w, test_f, test_classes, class_totals)
            round_variants[v] = VariantMetrics(report, comm, rel_dev, accuracy, kl, recall)
        records.append(RoundMetrics(spec.round, n_retained, round_variants))

    rows = [rec.variants for rec in records]
    last = rows[-1] if rows else {}
    summary = {
        "schema_version": 3,
        "resets": sum(m.report.reset for row in rows for m in row.values()),
        # np.max, unlike max(), carries a NaN through; so does max_bound's
        "max_kl": float(np.max([m.kl for row in rows for m in row.values()], initial=0.0)),
    }
    for v in ("A", "B", *(["approx"] if "approx" in variants else [])):
        summary[f"final_dev_{v}"] = last[v].rel_dev if v in last else None
        summary[f"total_bytes_{v}"] = sum(row[v].comm.total_bytes for row in rows if v in row)
    if "approx" in variants:
        bounds = [m.report.bound for row in rows for v, m in row.items() if not exact_row(v, m.report)]
        summary["max_bound"] = float(np.max(bounds, initial=0.0))
    return ScenarioResult(records, {v: server.head for v, server in servers.items()}, summary)


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


# metrics.csv's columns after `round` and `variant`, each with its cell's path in
# the row's VariantMetrics.  Every RoundReport field is a column, `reset` as
# `reset_flag`, so a new server-side figure is one RoundReport field.
METRICS_COLUMNS = (
    ("rel_dev_vs_oracle", "rel_dev"),
    ("reset_flag", "report.reset"),
    ("scalars_sent", "comm.total_scalars"),
    ("bytes_sent", "comm.total_bytes"),
    *((f.name, f"report.{f.name}") for f in fields(RoundReport) if f.name != "reset"),
    ("accuracy", "accuracy"),
    ("kl", "kl"),
)
METRICS_HEADER = ("round", "variant", *(name for name, _ in METRICS_COLUMNS))
_metrics_cells = attrgetter(*(path for _, path in METRICS_COLUMNS))


def metrics_csv(result: ScenarioResult) -> str:
    """CSV with one row per round per variant under `METRICS_HEADER`, deterministic formatting."""
    lines = [",".join(METRICS_HEADER)]
    for rec in result.records:
        for v in sorted(rec.variants):
            lines.append(",".join([str(rec.round), v, *map(_fmt, _metrics_cells(rec.variants[v]))]))
    return "\n".join(lines) + "\n"


def events_jsonl(scenario: Scenario) -> str:
    encode = json.JSONEncoder(sort_keys=True).encode  # what json.dumps(..., sort_keys=True) builds per call
    lines = [
        encode({"round": spec.round, "client_id": ev.client, "op": op, "sample_ids": ids, "variant": scenario.variant})
        for spec in scenario.schedule
        for ev in sorted(spec.events, key=lambda e: e.client)
        for op, ids in (("add", ev.add), ("delete", ev.delete))
        if ids
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def summary_json(result: ScenarioResult) -> str:
    return json.dumps(result.summary, sort_keys=True, indent=2) + "\n"
