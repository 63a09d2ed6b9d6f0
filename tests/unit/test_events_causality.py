"""Unit tests for the event log and causality oracle."""

import pytest

from repro.analysis.causality import CausalityOracle
from repro.clocks.events import EventKind, EventLog, transfer_key
from repro.clocks.vector import VectorClock


def fig2_log():
    """Rebuild the paper's Fig. 2 computation as an event log.

    Sites: 0 notifier, 1..3 clients.  Original operations only (the
    notifier relays without renaming here), with executions in the
    figure's orders.
    """
    log = EventLog(4)
    log.generate(2, "O2")
    log.generate(1, "O1")
    log.execute(0, "O2")
    log.execute(0, "O1")
    log.execute(3, "O2")
    log.generate(3, "O4")
    log.execute(0, "O4")
    log.execute(1, "O2")
    log.execute(2, "O1")
    log.generate(2, "O3")
    log.execute(0, "O3")
    log.execute(3, "O1")
    log.execute(2, "O4")
    log.execute(1, "O4")
    log.execute(3, "O3")
    log.execute(1, "O3")
    return log


class TestEventLog:
    def test_generation_assigns_ticked_clock(self):
        log = EventLog(2)
        log.generate(0, "a")
        assert log.generation_clock("a") == VectorClock.of([1, 0])

    def test_execute_merges_generation_clock(self):
        log = EventLog(2)
        log.generate(0, "a")
        log.execute(1, "a")
        log.generate(1, "b")  # the next tick at site 1 shows the merge
        assert log.generation_clock("b") == VectorClock.of([1, 2])

    def test_double_generation_rejected(self):
        log = EventLog(2)
        log.generate(0, "a")
        with pytest.raises(ValueError):
            log.generate(1, "a")

    def test_a_name_no_other_site_executed_may_be_reissued(self):
        """A crashed client re-issues the ordinals of its ops the notifier
        never executed: the re-issue replaces the lost generation."""
        log = EventLog(2)
        log.generate(1, "c1_1")
        log.generate(1, "c1_2")  # lost with the crash
        log.generate(1, "c1_2")
        assert log.generation_clock("c1_2") == VectorClock.of([0, 3])
        log.execute(0, "c1_2")
        log.generate(0, "a")
        assert log.generation_clock("a") == VectorClock.of([2, 3])

    def test_a_name_another_site_executed_is_not_reissued(self):
        log = EventLog(2)
        log.generate(1, "c1_1")
        log.execute(0, "c1_1")
        with pytest.raises(ValueError, match="generated twice"):
            log.generate(1, "c1_1")
        # ... nor one a different site generated, executed or not.
        log.generate(0, "x")
        with pytest.raises(ValueError, match="generated twice"):
            log.generate(1, "x")

    def test_execute_before_generate_rejected(self):
        with pytest.raises(ValueError):
            EventLog(2).execute(0, "ghost")

    def test_site_out_of_range(self):
        with pytest.raises(ValueError):
            EventLog(2).generate(5, "a")

    def test_op_ids_in_generation_order(self):
        log = fig2_log()
        assert log.op_ids() == ["O2", "O1", "O4", "O3"]

    def test_event_kinds_recorded(self):
        log = fig2_log()
        kinds = {event.kind for event in log.events}
        assert kinds == {EventKind.GENERATE, EventKind.EXECUTE}


class TestCausalityOracle:
    def test_fig2_causal_pairs(self):
        """Paper Section 2.4: O1->O3, O2->O3, O2->O4 (and nothing else)."""
        oracle = CausalityOracle(fig2_log())
        assert oracle.causal_pairs() == {("O1", "O3"), ("O2", "O3"), ("O2", "O4")}

    def test_fig2_concurrent_pairs(self):
        """Paper Section 2.4: O1||O2, O1||O4, O3||O4."""
        oracle = CausalityOracle(fig2_log())
        assert oracle.concurrent_pairs() == {
            frozenset(("O1", "O2")),
            frozenset(("O1", "O4")),
            frozenset(("O3", "O4")),
        }

    def test_op_not_concurrent_with_itself(self):
        oracle = CausalityOracle(fig2_log())
        assert not oracle.concurrent("O1", "O1")

    def test_happened_before_is_irreflexive_and_antisymmetric(self):
        oracle = CausalityOracle(fig2_log())
        for a in ("O1", "O2", "O3", "O4"):
            assert not oracle.happened_before(a, a)
        assert oracle.happened_before("O2", "O3")
        assert not oracle.happened_before("O3", "O2")

    def test_same_site_program_order(self):
        log = EventLog(2)
        log.generate(0, "a")
        log.generate(0, "b")
        oracle = CausalityOracle(log)
        assert oracle.happened_before("a", "b")
        assert not oracle.concurrent("a", "b")

    def test_isolated_sites_concurrent(self):
        log = EventLog(2)
        log.generate(0, "a")
        log.generate(1, "b")
        oracle = CausalityOracle(log)
        assert oracle.concurrent("a", "b")

    def test_a_state_transfer_is_an_edge_of_both_constructions(self):
        """Site 0's op reaches site 1 only through a resync snapshot: the
        DAG edge and the clock merge agree, so the oracle answers."""
        log = EventLog(3)
        log.generate(0, "a")
        key = transfer_key(1, 1, "resync")
        log.snapshot(0, key)
        log.generate(2, "c")  # concurrent with everything at sites 0 and 1
        log.install(1, key)
        log.generate(1, "b")
        oracle = CausalityOracle(log)
        assert oracle.causal_pairs() == {("a", "b")}
        assert log.generation_clock("b") == VectorClock.of([2, 2, 0])

    def test_an_install_without_its_snapshot_merges_nothing(self):
        log = EventLog(2)
        log.generate(0, "a")
        log.snapshot(0, transfer_key(1, 1, "failover"))
        log.install(1, transfer_key(1, 1, "resync"))  # another transfer
        log.generate(1, "b")
        assert CausalityOracle(log).concurrent("a", "b")


class TestTransferKey:
    def test_a_join_is_a_transfer_of_its_own(self):
        # The joiner's snapshot embodies the history before it.
        assert transfer_key(4, 0, "join") == (4, 0, "join")
        assert transfer_key(4, 0, "join") != transfer_key(4, 0, "resync")

    def test_crash_and_notifier_epochs_are_kept_apart(self):
        assert transfer_key(3, 1, "resync") != transfer_key(3, 1, "failover")

    def test_a_trace_without_a_kind_is_a_resync(self):
        assert transfer_key(3, None, None) == (3, 0, "resync")
