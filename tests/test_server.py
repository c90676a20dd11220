"""The three servers driven by their clients directly, without the scenario harness.

A hypothesis state machine stages adds of fresh ids, deletes of retained
ids and re-adds of deleted ids on three clients, and serves a round with
whatever is staged.  After every round each server's ledger counts the
retained samples, A's, B's and every approx reset round's head match a
from-scratch retrain, and every truncated approx round's tracked inverse
lies within the bound it reports.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from fedridge.client import ClientStore
from fedridge.coordinator import Server
from fedridge.kernels import rel_frobenius_dev, spd_inverse, spectral_norm
from fedridge.simulate import RetainedGram, oracle_retrain
from fedridge.stats import regularized_gram

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
                gap = spectral_norm(server.state.T - spd_inverse(regularized_gram(server.ledger)))
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
