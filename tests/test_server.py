"""The three servers driven by their clients directly, without the scenario harness.

A hypothesis state machine stages adds of fresh ids, deletes of retained
ids and re-adds of deleted ids on three clients, and serves a round with
whatever is staged.  After every round each server's ledger counts the
retained samples, A's, B's and every approx reset round's head match a
from-scratch retrain, and every truncated approx round's tracked inverse
lies within the bound it reports.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from fedridge.client import VARIANT_FULL, VARIANT_QR, ClientStore
from fedridge.coordinator import MixedPrecision, MixedVariant, OutOfOrder, Server
from fedridge.kernels import DimensionMismatch, cholesky_spd, inverse_from_factor, rel_frobenius_dev
from fedridge.simulate import RetainedGram, oracle_retrain
from fedridge.stats import dtype_of, regularized_gram

D, C, CLIENTS, N, GAMMA = 8, 3, 3, 48, 1.0
_rng = np.random.default_rng(14)
FEATURES = _rng.standard_normal((N, D))
LABELS = np.eye(C)[_rng.integers(0, C, N)]
OWNER = np.arange(N) % CLIENTS  # sample i belongs to client i % CLIENTS


class ServerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.servers = [Server(v, D, C, GAMMA, "f64", rank=2, reset_every=3) for v in ("A", "B", "approx")]
        self.stores = [[ClientStore(k, FEATURES, LABELS) for k in range(CLIENTS)] for _ in self.servers]
        self.retained = np.zeros(N, bool)
        self.added = np.zeros(N, bool)  # ever added: an added id that is not retained was deleted
        self.adds: set[int] = set()  # staged for the next round
        self.deletes: set[int] = set()
        self.round = 0

    def _stage(self, data, staged: set, candidates) -> None:
        ids = [int(i) for i in np.flatnonzero(candidates) if i not in staged]
        if ids:
            client = data.draw(st.sampled_from(sorted({int(OWNER[i]) for i in ids})))
            mine = [i for i in ids if OWNER[i] == client]
            staged |= data.draw(st.sets(st.sampled_from(mine), min_size=1, max_size=3))

    @rule(data=st.data())
    def add_fresh(self, data):
        self._stage(data, self.adds, ~self.added)

    @rule(data=st.data())
    def delete_retained(self, data):
        self._stage(data, self.deletes, self.retained)

    @rule(data=st.data())
    def readd_deleted(self, data):
        self._stage(data, self.adds, self.added & ~self.retained)

    @precondition(lambda self: self.adds or self.deletes)
    @rule()
    def serve_round(self):
        self.round += 1
        clients = sorted({int(OWNER[i]) for i in self.adds | self.deletes})
        events = [(k, sorted(i for i in self.adds if OWNER[i] == k), sorted(i for i in self.deletes if OWNER[i] == k))
                  for k in clients]
        self.retained[list(self.adds)] = True
        self.retained[list(self.deletes)] = False
        self.added[list(self.adds)] = True
        self.adds, self.deletes = set(), set()
        w_oracle, _ = oracle_retrain(RetainedGram(FEATURES, LABELS), self.retained, GAMMA)
        for server, stores in zip(self.servers, self.stores):
            w, report, _ = server.serve(
                stores[k].make_round_message(self.round, adds, deletes, server.wire_variant)
                for k, adds, deletes in events
            )
            assert server.ledger.stats.n == np.count_nonzero(self.retained)
            if server.variant == "approx" and not report.reset:
                gap = np.linalg.norm(server.state.T - inverse_from_factor(cholesky_spd(regularized_gram(server.ledger))), 2)
                # a round with nothing dropped has bound 0 and is held to rounding
                assert gap <= report.bound + 1e-12, (self.round, gap, report.bound)
            else:
                assert rel_frobenius_dev(w, w_oracle) <= 1e-8, (server.variant, self.round)


TestServerMachine = ServerMachine.TestCase
TestServerMachine.settings = settings(max_examples=40, stateful_step_count=30)


@pytest.mark.parametrize("bad", [{"rank": -1}, {"rank": 0}, {"rank": 2.5}, {"reset_every": -3}], ids=str)
def test_server_refuses_a_rank_or_reset_period_that_scenario_refuses(bad):
    # rank -1 would keep d-1 eigenpairs, rank 0 none, and 2.5 fail at the first truncated add;
    # Scenario refuses all of them
    with pytest.raises(ValueError):
        Server("approx", 6, 3, 1.0, **bad)


def _refuses_then_serves(server, bad, good):
    """The round `bad` is refused with the ledger, state and round count as they were; `good`, which
    adds the first six samples, then serves exactly."""
    ledger, state = server.ledger, server.state
    with pytest.raises((MixedVariant, MixedPrecision, DimensionMismatch, OutOfOrder)) as refused:
        server.serve(bad)
    assert server.ledger is ledger and server.state is state and server.ledger.t == 0
    w, _, _ = server.serve(good)
    retained = np.zeros(N, bool)
    retained[:6] = True
    tol = 1e-5 if server.ledger.precision == "f32" else 1e-8
    assert rel_frobenius_dev(w, oracle_retrain(RetainedGram(FEATURES, LABELS), retained, GAMMA)[0]) <= tol
    return refused.type


@pytest.mark.parametrize("variant", ["A", "B", "approx"])
def test_server_refuses_a_message_of_another_wire_variant(variant):
    server = Server(variant, D, C, GAMMA)
    other = VARIANT_QR if server.wire_variant == VARIANT_FULL else VARIANT_FULL
    bad = ClientStore(0, FEATURES, LABELS).make_round_message(1, list(range(6)), [], other)
    good = ClientStore(0, FEATURES, LABELS).make_round_message(1, list(range(6)), [], server.wire_variant)
    assert _refuses_then_serves(server, [bad], [good]) is MixedVariant


@pytest.mark.parametrize("variant", ["A", "B", "approx"])
@pytest.mark.parametrize("precision, other", [("f32", "f64"), ("f64", "f32")])
def test_server_refuses_a_message_of_another_precision(variant, precision, other):
    server = Server(variant, D, C, GAMMA, precision)
    bad = ClientStore(0, FEATURES, LABELS, other).make_round_message(1, list(range(6)), [], server.wire_variant)
    good = ClientStore(0, FEATURES, LABELS, precision).make_round_message(1, list(range(6)), [], server.wire_variant)
    assert _refuses_then_serves(server, [bad], [good]) is MixedPrecision
    assert server.ledger.stats.S.dtype == server.ledger.dtype


@pytest.mark.parametrize("variant", ["A", "B", "approx"])
@pytest.mark.parametrize("precision, other", [("f32", "f64"), ("f64", "f32")])
def test_server_refuses_a_payload_whose_two_matrices_differ_in_precision(variant, precision, other):
    # the moment (A's G, B's Z) in another precision than the matrix (S, R) the round's dtype is checked on
    server = Server(variant, D, C, GAMMA, precision)
    good = ClientStore(0, FEATURES, LABELS, precision).make_round_message(1, list(range(6)), [], server.wire_variant)
    moment = "G" if server.wire_variant == VARIANT_FULL else "Z"
    mixed = dataclasses.replace(good.add, **{moment: getattr(good.add, moment).astype(dtype_of(other))})
    assert _refuses_then_serves(server, [dataclasses.replace(good, add=mixed)], [good]) is MixedPrecision
    assert server.ledger.stats.G.dtype == server.ledger.dtype


@pytest.mark.parametrize("variant", ["A", "B", "approx"])
@pytest.mark.parametrize("size", ["one", "extra"])
def test_server_refuses_a_payload_whose_shapes_do_not_hold_together(variant, size):
    # A's packed S of other than d(d+1)/2 entries (one entry would broadcast over the whole
    # triangle), or B's Z with other than R's rows, is refused before any count moves
    server = Server(variant, D, C, GAMMA)
    good = ClientStore(0, FEATURES, LABELS).make_round_message(1, list(range(6)), [], server.wire_variant)
    name = "S" if server.wire_variant == VARIANT_FULL else "Z"
    part = getattr(good.add, name)
    misshapen = part[:1] if size == "one" else np.concatenate([part, part[:1]])
    bad = dataclasses.replace(good, add=dataclasses.replace(good.add, **{name: misshapen}))
    assert _refuses_then_serves(server, [bad], [good]) is DimensionMismatch


@pytest.mark.parametrize("variant", ["A", "B", "approx"])
def test_server_refuses_a_round_out_of_ascending_client_id(variant):
    # the server folds in arrival order and sorts nothing: a round in descending client id is
    # refused whole, and the same round in ascending order then serves
    server = Server(variant, D, C, GAMMA)
    round_one = [ClientStore(k, FEATURES, LABELS).make_round_message(1, [2 * k, 2 * k + 1], [], server.wire_variant)
                 for k in range(CLIENTS)]
    assert _refuses_then_serves(server, round_one[::-1], round_one) is OutOfOrder
