"""End-to-end fault tolerance: sessions that converge despite a hostile
network, verified against the full-vector-clock oracle throughout.

The acceptance scenario of the reliability layer: a star session under
20% message loss, 5% duplication and one client crash/restart must
converge to the same document at every site, with every compressed
concurrency verdict matching the oracle, while the protocol counters
show the recovery actually happened (retransmits, dedup, resync).
"""

import random

import pytest

from repro.analysis.causality import CausalityOracle
from repro.clocks.events import EventKind
from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan
from repro.obs import check_verdicts, cross_check_causality, replay_event_log
from repro.obs.tracer import Tracer
from repro.ot.operations import Insert
from repro.workloads.random_session import RandomSessionConfig, drive_star_session


def latency_factory(seed):
    def build(src, dst):
        return UniformLatency(0.02, 0.2, random.Random(seed * 1009 + src * 13 + dst))

    return build


def run_faulty_session(plan, n_sites=4, ops_per_site=10, workload_seed=3, oracle=True,
                       record_checks=False):
    session = StarSession(
        n_sites,
        latency_factory=latency_factory(plan.seed),
        verify_with_oracle=oracle,
        record_checks=record_checks,
        fault_plan=plan,
    )
    config = RandomSessionConfig(
        n_sites=n_sites, ops_per_site=ops_per_site, seed=workload_seed
    )
    drive_star_session(session, config)
    session.run()
    return session


class TestLossyNetwork:
    def test_acceptance_scenario_converges_with_oracle(self):
        """20% drop + 5% dup + one crash/restart: converged, oracle-clean,
        and every recovery counter actually fired."""
        plan = FaultPlan(
            seed=7,
            default=ChannelFaults(drop_p=0.2, dup_p=0.05),
            crashes=(ClientCrash(site=2, at=3.0, restart_at=5.0),),
        )
        session = run_faulty_session(plan)
        assert session.quiescent()
        assert session.converged(), session.documents()
        assert session.topology.fifo_respected()
        assert session.reliable_delivery_in_order()
        report = session.fault_report()
        assert report.lost > 0  # the network really was hostile
        assert report.duplicated > 0
        assert report.retransmits > 0  # and the protocol really recovered
        assert report.duplicates_discarded > 0
        assert report.recoveries >= 1  # the client's completed restart
        assert report.resyncs_served >= 1  # and the notifier's side of it

    def test_burst_outage_recovered(self):
        plan = FaultPlan(
            seed=11,
            default=ChannelFaults(outages=((2.0, 4.0),)),
        )
        session = run_faulty_session(plan, n_sites=3, ops_per_site=8)
        assert session.converged()
        report = session.fault_report()
        assert report.outage_dropped > 0
        assert report.retransmits > 0

    def test_lossless_plan_reliability_overhead_only(self):
        """With a zero-fault plan the reliability layer is pure overhead:
        no retransmits, no dedup, nothing lost -- but still convergent."""
        session = run_faulty_session(FaultPlan(seed=1), n_sites=3, ops_per_site=6)
        assert session.converged()
        report = session.fault_report()
        assert report.lost == 0
        assert report.duplicated == 0
        # RTO (0.5) exceeds the worst-case RTT (0.4) and the retransmit
        # clock restarts on every cumulative-ack progress, so a lossless
        # run must never suspect loss.
        assert report.retransmits == 0
        assert report.duplicates_discarded == 0
        # Every arrival was in order: answered at once or coalesced, and
        # a coalesced one cost at most the paced ack it waited for.
        assert report.acks_coalesced > 0
        assert report.sent - report.acks_coalesced <= report.acks_sent < report.sent

    def test_crashed_client_loses_volatile_state_then_resyncs(self):
        plan = FaultPlan(
            seed=5,
            crashes=(ClientCrash(site=1, at=2.0, restart_at=3.0),),
        )
        session = StarSession(
            2,
            latency_factory=latency_factory(5),
            verify_with_oracle=True,
            fault_plan=plan,
        )
        session.generate_at(1, Insert("a", 0), at=1.0)  # before the crash
        session.generate_at(2, Insert("b", 0), at=2.5)  # while site 1 is down
        session.generate_at(1, Insert("c", 0), at=4.0)  # after recovery
        session.run()
        assert session.converged(), session.documents()
        client = session.client(1)
        assert client.crash_count == 1
        assert client.transport.stats.recoveries == 1
        # the op generated before the crash survives at the other sites
        # (the notifier had executed and re-broadcast it)
        assert "a" in session.notifier.document
        assert "c" in session.notifier.document

    def test_edit_during_crash_is_counted_lost(self):
        plan = FaultPlan(
            seed=5,
            crashes=(ClientCrash(site=1, at=1.0, restart_at=3.0),),
        )
        session = StarSession(
            2, latency_factory=latency_factory(6), fault_plan=plan
        )
        session.generate_at(1, Insert("x", 0), at=2.0)  # into a dead terminal
        session.run()
        assert session.converged()
        assert session.client(1).transport.stats.lost_local_edits == 1
        assert "x" not in session.notifier.document

    def test_a_lost_ordinal_is_reissued_and_the_oracle_stays_exact(self):
        """Site 1's second op dies in an outage on its link to the centre
        and site 1 crashes before retransmitting it.  The resync restores
        ``SV_1[2]`` to the one op the notifier executed, so the next edit
        takes the lost op's ordinal -- and its name -- while every
        formula-(5)/(7) verdict still matches the oracle inline and the
        trace's happens-before matches the event log."""
        plan = FaultPlan(
            seed=5,
            per_channel={(1, 0): ChannelFaults(outages=((1.5, 4.0),))},
            crashes=(ClientCrash(site=1, at=2.2, restart_at=3.0),),
        )
        tracer = Tracer()
        session = StarSession(
            2,
            latency_factory=latency_factory(5),
            verify_with_oracle=True,
            fault_plan=plan,
            tracer=tracer,
        )
        session.generate_at(1, Insert("a", 0), at=1.0)  # settled
        session.generate_at(1, Insert("x", 0), at=2.0)  # lost in the outage
        session.generate_at(2, Insert("b", 0), at=2.5)  # while site 1 is down
        session.generate_at(1, Insert("c", 0), at=5.0)  # after recovery
        session.run()
        assert session.converged(), session.documents()
        assert "x" not in session.notifier.document
        assert sorted(session.notifier.document) == ["a", "b", "c"]
        client = session.client(1)
        assert client.transport.stats.recoveries == 1
        assert [op for op in client.executed_op_ids if op.startswith("c1_")] == [
            "c1_1", "c1_2", "c1_2"]  # "x", then "c" in its place
        assert session.notifier.executed_op_ids[-1] == "c1_2'"
        generations = [e.op_id for e in session.event_log.events
                       if e.kind is EventKind.GENERATE and e.site == 1]
        assert generations == ["c1_1", "c1_2", "c1_2"]
        replayed = CausalityOracle(replay_event_log(tracer.events))
        report = cross_check_causality(replayed, session.event_log)
        assert report.ok, report.summary()
        checked, disagreements = check_verdicts(tracer.events, replayed)
        assert checked
        assert disagreements == []

    def test_faults_without_plan_reject_crash_api(self):
        session = StarSession(2)
        with pytest.raises(RuntimeError, match="requires the reliability"):
            session.client(1).crash()


@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "pruned"])
class TestHistoryRetentionUnderFaults:
    """The fault paths with and without the oracle: the oracle session
    keeps (and verifies) the whole history, a diagnostic session without
    it prunes it -- and a crashed client must not pin ``HB_0`` past its
    resync."""

    def test_lossy_crash_session_converges(self, oracle):
        plan = FaultPlan(
            seed=7,
            default=ChannelFaults(drop_p=0.2, dup_p=0.05),
            crashes=(ClientCrash(site=2, at=3.0, restart_at=5.0),),
        )
        session = run_faulty_session(plan, oracle=oracle, record_checks=True)
        assert session.quiescent()
        assert session.converged(), session.documents()
        assert session.reliable_delivery_in_order()
        assert session.fault_report().recoveries >= 1
        notifier = session.notifier
        if oracle:
            assert notifier.hb.op_ids() == notifier.executed_op_ids
        else:
            assert len(notifier.hb) < len(notifier.executed_op_ids)
            assert notifier.hb[0].op_id in {
                queue[0].op_id for queue in notifier.sent_to.values() if queue
            }

    @staticmethod
    def session_owing_a_dead_site(oracle):
        """Two sites, run to the instant site 1 restarts: it sent ``a``,
        crashed, and ``b'`` was broadcast to it while it was down."""
        plan = FaultPlan(
            seed=5,
            crashes=(ClientCrash(site=1, at=2.0, restart_at=3.0),),
        )
        session = StarSession(
            2,
            latency_factory=latency_factory(5),
            verify_with_oracle=oracle,
            record_checks=True,
            fault_plan=plan,
        )
        session.generate_at(1, Insert("a", 0), at=1.0)  # before the crash
        session.generate_at(2, Insert("b", 0), at=2.5)  # while site 1 is down
        session.run(until=3.0)
        return session

    def test_resync_unpins_the_notifier_history(self, oracle):
        session = self.session_owing_a_dead_site(oracle)
        notifier = session.notifier
        # The dead site cannot acknowledge: b' is owed to it and pinned.
        assert [p.op_id for p in notifier.sent_to[1]] == ["c2_1'"]
        assert "c2_1'" in notifier.hb.op_ids()
        session.generate_at(1, Insert("c", 0), at=4.0)  # after recovery
        session.run()
        assert session.converged(), session.documents()
        assert session.reliable_delivery_in_order()
        assert session.client(1).transport.stats.recoveries == 1
        # The resync voided the debt, so the next arrival forgot b'.
        expected = ["c1_1'", "c2_1'", "c1_2'"] if oracle else ["c1_2'"]
        assert notifier.hb.op_ids() == expected

    def test_resync_alone_unpins_the_notifier_history(self, oracle):
        """No arrival follows the resync: voiding the debtor's queue is
        itself what unpins the head (the invariant holds at rest, not
        only after the next operation happens to come in)."""
        session = self.session_owing_a_dead_site(oracle)
        notifier = session.notifier
        # Site 1's queue alone pins the head: site 2 acknowledged a' on b.
        assert [site for site, queue in notifier.sent_to.items() if queue] == [1]
        assert [p.op_id for p in notifier.sent_to[1]] == ["c2_1'"]
        assert notifier.hb.op_ids()[-1] == "c2_1'"
        session.run()
        assert session.converged(), session.documents()
        assert session.client(1).transport.stats.recoveries == 1
        assert not any(notifier.sent_to.values())
        assert notifier.hb.op_ids() == (["c1_1'", "c2_1'"] if oracle else [])


class TestDeterminism:
    def _run(self, seed):
        plan = FaultPlan(
            seed=seed,
            default=ChannelFaults(drop_p=0.15, dup_p=0.05),
            crashes=(ClientCrash(site=1, at=2.0, restart_at=4.0),),
        )
        session = run_faulty_session(plan, n_sites=3, ops_per_site=8, workload_seed=11)
        return session

    def test_two_sessions_in_one_process_are_identical(self):
        """Regression: op ids and envelope ids used process-global
        counters, so a second session in the same process replayed
        differently.  Identical seeds must now give identical runs."""
        a = self._run(seed=7)
        b = self._run(seed=7)
        assert a.notifier.executed_op_ids == b.notifier.executed_op_ids
        assert [c.executed_op_ids for c in a.clients] == [
            c.executed_op_ids for c in b.clients
        ]
        assert a.documents() == b.documents()
        report_a, report_b = a.fault_report(), b.fault_report()
        assert report_a == report_b

    def test_different_seeds_diverge(self):
        a = self._run(seed=7)
        b = self._run(seed=8)
        assert a.fault_report() != b.fault_report()

    def test_plain_sessions_also_deterministic(self):
        """The determinism fix matters without faults too."""

        def run_plain():
            session = StarSession(3, latency_factory=latency_factory(2))
            config = RandomSessionConfig(n_sites=3, ops_per_site=6, seed=4)
            drive_star_session(session, config)
            session.run()
            return session

        a, b = run_plain(), run_plain()
        assert a.notifier.executed_op_ids == b.notifier.executed_op_ids
        assert a.documents() == b.documents()

    def test_reliability_without_faults_is_transparent(self):
        """Reliability enabled over a perfect network must deliver the
        exact same editor-level outcome as no reliability at all.

        Fixed latency keeps the comparison exact: acknowledgement
        packets draw no latency samples that would shift data-message
        delivery times between the two runs."""
        from repro.net.channel import FixedLatency

        def run(reliability):
            session = StarSession(
                3,
                latency_factory=lambda s, d: FixedLatency(0.08),
                verify_with_oracle=True,
                reliability=reliability,
            )
            config = RandomSessionConfig(n_sites=3, ops_per_site=6, seed=4)
            drive_star_session(session, config)
            session.run()
            return session

        bare = run(False)
        covered = run(True)
        assert bare.documents() == covered.documents()
        assert bare.notifier.executed_op_ids == covered.notifier.executed_op_ids
        assert covered.fault_report().retransmits == 0
