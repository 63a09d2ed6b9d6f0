"""Hypothesis stateful testing: adversarial interleavings of everything.

Two rule-based machines drive live star sessions through arbitrary
interleavings of the system's moving parts -- local edits at any client,
partial simulation advances (messages stay in flight between rules),
undo, and late joins -- checking the global invariants after every step
(history pruning is automatic: the membership machine runs pruned, the
oracle machine keeps everything, and ``test_history_pruning`` compares
the two):

* FIFO is never violated on any channel;
* timestamp traffic is 8 bytes/message whatever happened;
* whenever the system is quiescent, all replicas are identical;
* with fixed membership, every concurrency verdict agrees with the
  full-vector oracle (enforced inline by ``verify_with_oracle``).
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.editor.star import StarSession
from repro.editor.star_client import UndoError
from repro.workloads.random_session import RandomSessionConfig, random_positional_op

CONFIG = RandomSessionConfig(n_sites=4, initial_document="The five boxing wizards")


class StarMachine(RuleBasedStateMachine):
    """Fixed membership, oracle on: the strictest configuration."""

    def __init__(self):
        super().__init__()
        self.session = StarSession(
            4,
            initial_state=CONFIG.initial_document,
            verify_with_oracle=True,
        )

    @rule(site=st.integers(1, 4), seed=st.integers(0, 2**16))
    def edit(self, site, seed):
        client = self.session.client(site)
        rng = random.Random(seed)
        client.generate(random_positional_op(rng, client.document, CONFIG))

    @rule(delta=st.floats(0.01, 0.2))
    def let_time_pass(self, delta):
        self.session.sim.run(until=self.session.sim.now + delta)

    @rule()
    def drain(self):
        self.session.run()

    @rule(site=st.integers(1, 4))
    def undo(self, site):
        try:
            self.session.client(site).undo_last()
        except UndoError:
            pass  # nothing undoable right now -- fine

    @invariant()
    def fifo_holds(self):
        assert self.session.topology.fifo_respected()

    @invariant()
    def timestamps_constant(self):
        stats = self.session.wire_stats()
        assert stats.timestamp_bytes == 8 * stats.messages

    @invariant()
    def quiescent_implies_converged(self):
        if self.session.quiescent():
            assert self.session.converged(), self.session.documents()


class StarMembershipMachine(RuleBasedStateMachine):
    """Dynamic membership (joins racing traffic), oracle off."""

    MAX_SITES = 8

    def __init__(self):
        super().__init__()
        self.session = StarSession(
            2,
            initial_state=CONFIG.initial_document,
            record_events=False,
            record_checks=False,
        )

    @rule(pick=st.integers(0, 10**6), seed=st.integers(0, 2**16))
    def edit(self, pick, seed):
        client = self.session.clients[pick % len(self.session.clients)]
        if not client.active:
            return  # joiner still waiting for its snapshot
        rng = random.Random(seed)
        client.generate(random_positional_op(rng, client.document, CONFIG))

    @rule()
    def join(self):
        if len(self.session.clients) < self.MAX_SITES:
            self.session.add_client(at=self.session.sim.now)

    @rule(delta=st.floats(0.01, 0.2))
    def let_time_pass(self, delta):
        self.session.sim.run(until=self.session.sim.now + delta)

    @rule()
    def drain(self):
        self.session.run()

    @invariant()
    def fifo_holds(self):
        assert self.session.topology.fifo_respected()

    @invariant()
    def quiescent_implies_converged(self):
        if not self.session.quiescent():
            return
        docs = [self.session.notifier.document] + [
            c.document for c in self.session.clients if c.active
        ]
        assert all(doc == docs[0] for doc in docs), docs


TestStarMachine = StarMachine.TestCase
TestStarMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestStarMembershipMachine = StarMembershipMachine.TestCase
TestStarMembershipMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
