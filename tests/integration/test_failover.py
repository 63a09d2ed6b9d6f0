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

from repro.analysis.causality import CausalityOracle
from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan, NotifierCrash
from repro.obs import check_verdicts, cross_check_causality, replay_event_log
from repro.obs.tracer import Tracer
from repro.ot.operations import Insert

def latency_factory(src, dst):
    return UniformLatency(0.02, 0.15, random.Random(src * 13 + dst * 101))


def failover_session(crashes=(), crash_at=5.0, tracer=None, oracle=True):
    plan = FaultPlan(
        notifier_crash=NotifierCrash(at=crash_at), crashes=tuple(crashes)
    )
    return StarSession(
        3,
        latency_factory=latency_factory,
        verify_with_oracle=oracle,
        # Without the oracle, a diagnostic session still keeps (and
        # prunes) the history the retention tests read.
        record_checks=not oracle,
        fault_plan=plan,
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
    def test_promotion_converges_with_oracle(self):
        tracer = Tracer()
        session = failover_session(tracer=tracer)
        drive_across_the_crash(session)

        assert session.quiescent()
        assert session.converged(), session.documents()
        # The centre role moved to the lowest live site under epoch 1.
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
        session = failover_session(tracer=tracer)
        drive_across_the_crash(session)

        replayed = CausalityOracle(replay_event_log(tracer.events))
        report = cross_check_causality(replayed, session.event_log)
        assert report.ok, report.summary()
        checked, disagreements = check_verdicts(tracer.events, replayed)
        assert checked
        assert disagreements == []

    def test_without_standby_the_lowest_live_site_wins(self):
        session = failover_session()
        drive_across_the_crash(session)
        assert session.converged(), session.documents()
        assert session.client(1).promoted
        assert session.fault_report().promotions == 1

    def test_detection_is_activity_triggered(self):
        """A crash after the last settled edit is never even noticed."""
        session = failover_session(crash_at=50.0)
        for at, (site, char) in enumerate([(1, "a"), (2, "b")], start=1):
            session.generate_at(site, Insert(char, 0), at=float(at))
        session.run()
        assert session.converged()
        assert session.promoted_notifier is None
        assert session.fault_report().promotions == 0


class TestPerOriginCountsSurviveAFailover:
    """The counts that name each arrival carry across the failover
    snapshot instead of restarting: at quiescence every survivor's count
    for origin ``j`` is the promoted centre's ``SV_0[j]``, and its own
    column is its ``SV_i[2]`` (the precondition of a second election)."""

    @pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "pruned"])
    def test_survivor_counts_equal_the_promoted_sv0(self, oracle):
        session = failover_session(oracle=oracle)
        drive_across_the_crash(session)
        assert session.quiescent() and session.converged()
        sv0 = session.promoted_notifier.sv.counts
        survivors = [client for client in session.clients if not client.promoted]
        assert [client.pid for client in survivors] == [2, 3]
        for client in survivors:
            for origin in range(1, len(sv0) + 1):
                if origin != client.pid:
                    assert client._received_per_origin.get(origin, 0) == \
                        sv0[origin - 1], (client.pid, origin)
            assert client.sv.generated_locally == sv0[client.pid - 1]


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
        session = failover_session(oracle=oracle)
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
            crashes=[ClientCrash(site=3, at=2.0, restart_at=4.0)],
            crash_at=3.0,
            oracle=oracle,
        )
        session.generate_at(1, Insert("a", 0), at=1.0)
        session.generate_at(2, Insert("b", 0), at=2.5)
        session.generate_at(3, Insert("c", 0), at=140.0)
        session.generate_at(2, Insert("d", 0), at=145.0)
        session.run()
        assert session.quiescent()
        assert session.converged(), session.documents()
        assert sorted(session.documents()[0]) == list("abcd")
        assert session.fault_report().recoveries == 1
        assert session.reliable_delivery_in_order()
        self.assert_retention(session.promoted_notifier, oracle)


def cut_spoke_session(site):
    """No crash: the spoke between ``site`` and the centre is cut both
    ways from t=3 to t=400, which looks like a dead centre to ``site``
    and like a dead ``site`` to the centre."""
    cut = ChannelFaults(outages=((3.0, 400.0),))
    plan = FaultPlan(per_channel={(site, 0): cut, (0, site): cut})
    session = StarSession(
        3,
        latency_factory=latency_factory,
        verify_with_oracle=True,
        fault_plan=plan,
    )
    drive_across_the_crash(session)
    return session


class TestSuspicionOfALiveCentre:
    def test_an_aborted_election_unparks_the_suspected_link(self):
        """Site 2 gives up on the centre, and the centre on site 2; site
        1's probe is answered, so the election aborts.  The detector's
        link must retry again, or neither end ever sends another packet
        and site 2 is left behind for good."""
        session = cut_spoke_session(2)
        assert session.quiescent()
        assert session.sim.now > 400.0  # it waited the outage out
        assert session.converged(), session.documents()
        assert session.documents()[0] == "fdecba"
        assert session.fault_report().promotions == 0
        # Site 2 gave up once per budget until the outage ended, and
        # each give-up opened one election at site 1 that its probe
        # aborted.
        assert session.client(2).transport.stats.give_ups == 5
        assert session.client(1).transport.stats.elections == 5

    @pytest.mark.xfail(strict=True, reason="ROADMAP 4(a)")
    def test_a_successor_that_cannot_reach_the_live_centre_does_not_promote(self):
        """Site 1 is its own successor and confirms the suspicion over
        the very spoke that is cut: it promotes while the original
        notifier lives (split brain)."""
        session = cut_spoke_session(1)
        assert session.promoted_notifier is None


class TestFailoverMidResync:
    def test_client_resyncing_from_the_dead_centre_completes(self):
        """A client whose crash-recovery resync targets the old notifier
        must end up served by the successor -- no duplicate, no loss."""
        tracer = Tracer()
        session = failover_session(
            crashes=[ClientCrash(site=3, at=2.0, restart_at=4.0)],
            crash_at=3.0,
            tracer=tracer,
        )
        # One edit before anything fails, one while site 3 is down, one
        # from the recovered site 3 after the new centre is in place.
        session.generate_at(1, Insert("a", 0), at=1.0)
        session.generate_at(2, Insert("b", 0), at=2.5)
        session.generate_at(3, Insert("c", 0), at=140.0)
        session.run()

        assert session.quiescent()
        assert session.converged(), session.documents()
        assert sorted(session.documents()[0]) == list("abc")
        report = session.fault_report()
        assert report.promotions == 1
        assert report.recoveries == 1  # site 3's restart completed
        assert report.resyncs_served >= 1
        assert cross_check_causality(tracer.events, session.event_log).ok
        assert session.reliable_delivery_in_order()


class TestFailoverGuards:
    def test_notifier_crash_without_reliability_cannot_be_planned(self):
        # A notifier crash in the plan implies a fault plan, which in
        # turn forces the reliability protocol on -- so this constructs.
        plan = FaultPlan(notifier_crash=NotifierCrash(at=1.0))
        session = StarSession(2, fault_plan=plan)
        assert session.reliability


class TestWhatTheSurroundingsMayAsk:
    """The three public names a deployment reads instead of the
    election's private state: ``settled``, ``live``, ``arm_failover``."""

    def test_settled_is_false_exactly_while_failover_work_is_owed(self):
        from repro.obs.tracer import TraceEventKind as K

        tracer = Tracer()
        session = failover_session(tracer=tracer)
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
        session = failover_session()
        assert all(client.live is client for client in session.clients)
        drive_across_the_crash(session)
        assert session.client(1).live is session.promoted_notifier
        assert session.client(2).live is session.client(2)
        assert session.client(3).live is session.client(3)

    def test_arm_failover_tracks_successor_evidence_on_a_raw_transport(self):
        from repro.editor.failover import FailoverManager

        session = StarSession(2)  # no reliability
        armed, plain = session.client(1), session.client(2)
        armed.arm_failover(FailoverManager(session))
        session.generate_at(1, Insert("a", 0), at=1.0)
        session.generate_at(2, Insert("b", 0), at=2.0)
        session.run()
        assert session.converged()
        # The per-origin counts name every arrival, so every client keeps
        # them, armed or not: each has executed one relayed op.
        assert armed._received_per_origin == {2: 1}
        assert plain._received_per_origin == {1: 1}
        assert (armed.executed_op_ids, plain.executed_op_ids) == (
            ["c1_1", "c2_1'"], ["c1_1'", "c2_1"])
