"""End-to-end notifier failover: the star survives losing its centre.

The acceptance scenario of the failover subsystem: the notifier crashes
permanently mid-workload, a surviving client detects the silence
(retransmit-budget exhaustion confirmed by a bounded liveness probe),
is elected successor, reconstructs the notifier state from per-client
contributions, and re-admits every survivor under notifier epoch 1 --
after which the session must converge with every compressed concurrency
verdict matching the full-vector-clock oracle, including across the
epoch boundary in the recorded trace.
"""

import random

import pytest

from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan, NotifierCrash
from repro.net.reliability import ReliabilityConfig, RetransmitPolicy
from repro.obs import TraceCausality, cross_check_causality, verify_check_records
from repro.obs.tracer import Tracer
from repro.ot.operations import Insert

# A small budget so detection fires in seconds of virtual time instead
# of the production default's ~minute.
FAST_DETECT = ReliabilityConfig(retransmit=RetransmitPolicy(max_retries=4))


def latency_factory(src, dst):
    return UniformLatency(0.02, 0.15, random.Random(src * 13 + dst * 101))


def failover_session(standby=None, crashes=(), crash_at=5.0, tracer=None,
                     oracle=True):
    plan = FaultPlan(
        notifier_crash=NotifierCrash(at=crash_at), crashes=tuple(crashes)
    )
    return StarSession(
        3,
        latency_factory=latency_factory,
        verify_with_oracle=oracle,
        record_checks=True,
        fault_plan=plan,
        reliability=FAST_DETECT,
        standby_site=standby,
        tracer=tracer,
    )


def drive_across_the_crash(session):
    """Three edits fully settled before the crash, three generated after."""
    for at, (site, char) in enumerate(
        [(1, "a"), (2, "b"), (3, "c"), (1, "d"), (2, "e"), (3, "f")], start=1
    ):
        # at 1..3 pre-crash, 6..8 post-crash (the crash is at t=5.0)
        session.generate_at(site, Insert(char, 0), at=float(at if at <= 3 else at + 2))
    session.run()


class TestFailoverAcceptance:
    def test_standby_promotion_converges_with_oracle(self):
        tracer = Tracer()
        session = failover_session(standby=1, tracer=tracer)
        drive_across_the_crash(session)

        assert session.quiescent()
        assert session.converged(), session.documents()
        # The centre role moved to the warm standby under epoch 1.
        assert session.promoted_notifier is not None
        assert session.promoted_notifier.notifier_epoch == 1
        assert session.client(1).promoted
        assert len(session.endpoints()) == 3  # new centre + 2 survivors
        # No operation was lost across the failover: every insert from
        # both sides of the crash is in the converged document.
        assert sorted(session.documents()[0]) == list("abcdef")
        report = session.fault_report()
        assert report.promotions == 1
        assert report.handoffs == 2  # both survivors re-homed
        assert report.give_ups >= 1  # the detection signal actually fired
        assert report.probes_sent >= 1  # ... and was probe-confirmed
        assert session.reliable_delivery_in_order()
        # promoted_from wrote SV_0's counts directly; formulas (1)-(2)
        # must still read them, with and without the broadcast's total.
        sv = session.promoted_notifier.sv
        assert sum(sv.counts) == 6
        for dest in (1, 2, 3):
            expected = [sum(sv.counts) - sv.counts[dest - 1], sv.counts[dest - 1]]
            assert sv.compress_for_destination(dest).as_paper_list() == expected
            assert sv.compress_for_destination(
                dest, sv.total()).as_paper_list() == expected

    def test_trace_cross_check_spans_the_epoch_boundary(self):
        tracer = Tracer()
        session = failover_session(standby=1, tracer=tracer)
        drive_across_the_crash(session)

        causality = TraceCausality(tracer.events)
        report = cross_check_causality(causality, session.event_log)
        assert report.ok, report.summary()
        assert session.all_checks()
        assert verify_check_records(causality, session.all_checks()) == []

    def test_without_standby_the_lowest_live_site_wins(self):
        session = failover_session(standby=None)
        drive_across_the_crash(session)
        assert session.converged(), session.documents()
        assert session.client(1).promoted
        assert session.fault_report().promotions == 1

    def test_standby_preference_overrides_lowest_id(self):
        session = failover_session(standby=2)
        drive_across_the_crash(session)
        assert session.converged(), session.documents()
        assert session.client(2).promoted
        assert not session.client(1).promoted

    def test_detection_is_activity_triggered(self):
        """A crash after the last settled edit is never even noticed."""
        session = failover_session(standby=1, crash_at=50.0)
        for at, (site, char) in enumerate([(1, "a"), (2, "b")], start=1):
            session.generate_at(site, Insert(char, 0), at=float(at))
        session.run()
        assert session.converged()
        assert session.promoted_notifier is None
        assert session.fault_report().promotions == 0


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "pruned"])
class TestHistoryRetentionAcrossFailover:
    """Promotion with and without the oracle: every other failover test
    runs under the oracle, which never prunes."""

    @staticmethod
    def assert_retention(centre, oracle):
        if oracle:
            assert centre.hb.op_ids() == centre.executed_op_ids
        else:
            # Promotion starts from an empty history and empty debts;
            # nothing acknowledged by everyone is still at the head.
            assert len(centre.hb) < len(centre.executed_op_ids)
            assert centre.hb[0].op_id in {
                queue[0].op_id for queue in centre.sent_to.values() if queue
            }

    def test_promotion_converges_and_unpins_history(self, oracle):
        session = failover_session(standby=1, oracle=oracle)
        drive_across_the_crash(session)
        # Two more settled rounds under the promoted centre, whose own
        # edits take the centre-local path.
        start = session.sim.now
        for turn, site in enumerate([2, 3, 1, 2, 3, 1], start=1):
            session.generate_at(site, Insert("z", 0), at=start + 2.0 * turn)
        session.run()
        assert session.quiescent()
        assert session.converged(), session.documents()
        assert sorted(session.documents()[0]) == list("abcdef" + "z" * 6)
        assert session.fault_report().promotions == 1
        assert session.reliable_delivery_in_order()
        self.assert_retention(session.notifier, oracle)
        self.assert_retention(session.promoted_notifier, oracle)

    def test_resync_racing_the_promotion_converges(self, oracle):
        session = failover_session(
            standby=1,
            crashes=[ClientCrash(site=3, at=2.0, restart_at=4.0)],
            crash_at=3.0,
            oracle=oracle,
        )
        session.generate_at(1, Insert("a", 0), at=1.0)
        session.generate_at(2, Insert("b", 0), at=2.5)
        session.generate_at(3, Insert("c", 0), at=40.0)
        session.generate_at(2, Insert("d", 0), at=45.0)
        session.run()
        assert session.quiescent()
        assert session.converged(), session.documents()
        assert sorted(session.documents()[0]) == list("abcd")
        assert session.fault_report().recoveries == 1
        assert session.reliable_delivery_in_order()
        self.assert_retention(session.promoted_notifier, oracle)


class TestFailoverMidResync:
    def test_client_resyncing_from_the_dead_centre_completes(self):
        """A client whose crash-recovery resync targets the old notifier
        must end up served by the successor -- no duplicate, no loss."""
        tracer = Tracer()
        session = failover_session(
            standby=1,
            crashes=[ClientCrash(site=3, at=2.0, restart_at=4.0)],
            crash_at=3.0,
            tracer=tracer,
        )
        # One edit before anything fails, one while site 3 is down, one
        # from the recovered site 3 after the new centre is in place.
        session.generate_at(1, Insert("a", 0), at=1.0)
        session.generate_at(2, Insert("b", 0), at=2.5)
        session.generate_at(3, Insert("c", 0), at=40.0)
        session.run()

        assert session.quiescent()
        assert session.converged(), session.documents()
        assert sorted(session.documents()[0]) == list("abc")
        report = session.fault_report()
        assert report.promotions == 1
        assert report.recoveries == 1  # site 3's restart completed
        assert report.resyncs_served >= 1
        causality = TraceCausality(tracer.events)
        assert cross_check_causality(causality, session.event_log).ok
        assert session.reliable_delivery_in_order()


class TestFailoverGuards:
    def test_standby_without_reliability_is_rejected(self):
        with pytest.raises(ValueError):
            StarSession(3, standby_site=1)

    def test_standby_site_must_exist(self):
        with pytest.raises(ValueError):
            StarSession(3, reliability=FAST_DETECT, standby_site=9)

    def test_notifier_crash_without_reliability_cannot_be_planned(self):
        # A notifier crash in the plan implies a fault plan, which in
        # turn forces the reliability protocol on -- so this constructs.
        plan = FaultPlan(notifier_crash=NotifierCrash(at=1.0))
        session = StarSession(2, fault_plan=plan)
        assert session.reliability is not None


class TestWhatTheSurroundingsMayAsk:
    """The three public names a deployment reads instead of the
    election's private state: ``settled``, ``live``, ``arm_failover``."""

    def test_settled_is_false_exactly_while_failover_work_is_owed(self):
        from repro.obs.tracer import TraceEventKind as K

        tracer = Tracer()
        session = failover_session(standby=1, tracer=tracer)
        samples = []  # (site, event, that client's `settled` as it was emitted)
        tracer.bind_sink(lambda event: 1 <= event.site <= 3 and samples.append(
            (event.site, event, session.client(event.site).settled)))
        drive_across_the_crash(session)
        assert session.converged(), session.documents()

        for member in (2, 3):
            mine = [(event, settled) for site, event, settled in samples
                    if site == member]
            kinds = [event.kind for event, _ in mine]
            handoff = kinds.index(K.HANDOFF)  # PROMOTE processed
            recovered = next(
                i for i, (event, _) in enumerate(mine)
                if event.kind is K.RECOVERED and event.via == "failover")
            assert handoff < recovered
            assert all(settled for _, settled in mine[:handoff])
            assert not any(settled for _, settled in mine[handoff:recovered])
        # The successor owes work while it collects contributions.
        successor = [(event, settled) for site, event, settled in samples
                     if site == 1]
        kinds = [event.kind for event, _ in successor]
        elected, promoted = kinds.index(K.ELECTED), kinds.index(K.PROMOTED)
        assert all(settled for _, settled in successor[:elected])
        assert not all(settled for _, settled in successor[elected:promoted])
        assert all(session.client(site).settled for site in (1, 2, 3))

    def test_live_is_the_promoted_notifier_for_the_successor_only(self):
        session = failover_session(standby=1)
        assert all(client.live is client for client in session.clients)
        drive_across_the_crash(session)
        assert session.client(1).live is session.promoted_notifier
        assert session.client(2).live is session.client(2)
        assert session.client(3).live is session.client(3)

    def test_arm_failover_tracks_successor_evidence_on_a_raw_transport(self):
        from repro.editor.failover import FailoverManager

        session = StarSession(2)  # no reliability: nothing is tracked ...
        armed, plain = session.client(1), session.client(2)
        armed.arm_failover(FailoverManager(session), degraded_limit=4)
        assert armed.degraded_limit == 4 and plain.degraded_limit == 0
        session.generate_at(1, Insert("a", 0), at=1.0)
        session.generate_at(2, Insert("b", 0), at=2.0)
        session.run()
        assert session.converged()
        # ... except at the armed client: its own op and the one relayed.
        assert len(armed._incorporated) == 2
        assert armed._received_per_origin == {2: 1}
        assert plain._incorporated == set() and plain._received_per_origin == {}
