"""Trace-level causality against the ground-truth oracle.

A traced session must yield a happens-before relation -- the oracle of
:mod:`repro.analysis.causality` over the event log replayed purely from
the recorded :class:`~repro.obs.TraceEvent` stream -- that matches the
session's own log exactly, pair by pair, on clean networks, lossy
networks, and crash/recovery runs; and every formula (5)/(7) verdict,
recomputed from the timestamps the trace carries, must agree with it.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.analysis.causality import CausalityOracle
from repro.clocks.events import EventKind
from repro.cluster.check import analyze_cluster
from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan
from repro.obs import (
    TraceEvent,
    TraceEventKind,
    Tracer,
    check_verdicts,
    cross_check_causality,
    latency_histograms,
    replay_event_log,
)
from repro.workloads.random_session import RandomSessionConfig, drive_star_session


def latency_factory(seed):
    def build(src, dst):
        return UniformLatency(0.02, 0.2, random.Random(seed * 1009 + src * 13 + dst))

    return build


def run_traced_session(plan=None, n_sites=4, ops_per_site=8, workload_seed=3):
    tracer = Tracer()
    session = StarSession(
        n_sites,
        latency_factory=latency_factory(plan.seed if plan else workload_seed),
        verify_with_oracle=True,
        fault_plan=plan,
        tracer=tracer,
    )
    drive_star_session(
        session,
        RandomSessionConfig(
            n_sites=n_sites, ops_per_site=ops_per_site, seed=workload_seed
        ),
    )
    session.run()
    assert session.converged() and session.quiescent()
    return session, tracer


def recomputed_disagreements(events):
    """Every formula-(5)/(7) verdict recomputed from ``events`` against
    the replayed oracle: the disagreeing ones."""
    checked, disagreements = check_verdicts(
        events, CausalityOracle(replay_event_log(events)))
    assert checked, "no verdicts recomputed: the trace checks are vacuous"
    return disagreements


class TestCleanSession:
    def test_happens_before_matches_oracle_exactly(self):
        session, tracer = run_traced_session()
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.ok, report.summary()
        assert report.pairs_checked == report.n_ops * (report.n_ops - 1)

    def test_formula_verdicts_agree_with_trace(self):
        _, tracer = run_traced_session()
        assert recomputed_disagreements(tracer.events) == []

    def test_notifier_transform_lineage(self):
        _, tracer = run_traced_session(ops_per_site=4)
        oracle = CausalityOracle(replay_event_log(tracer.events))
        source = {event.op_id: event.source_op for event in tracer.events
                  if event.kind is TraceEventKind.TRANSFORMED and event.site == 0}
        transformed = [op for op in oracle.ops() if op.endswith("'")]
        assert transformed, "the notifier emitted no transformed operations"
        for op in transformed:
            original = source[op]
            assert original == op[:-1]
            # The original always happened before its transformed form.
            assert oracle.happened_before(original, op)
            assert not oracle.concurrent(original, op)

    def test_latency_histograms_cover_every_executing_site(self):
        session, tracer = run_traced_session(n_sites=3)
        histograms = latency_histograms(tracer.events)
        assert set(histograms) == {0, 1, 2, 3}
        for hist in histograms.values():
            assert hist.count > 0
            assert hist.minimum > 0.0  # the network has nonzero latency


class TestFaultySession:
    def test_lossy_network_trace_still_matches_oracle(self):
        """20% loss + 5% duplication: retransmissions and hold-backs in
        the trace must not perturb the reconstructed causal relation."""
        plan = FaultPlan(seed=7, default=ChannelFaults(drop_p=0.2, dup_p=0.05))
        session, tracer = run_traced_session(plan=plan, ops_per_site=10)
        assert any(event.kind is TraceEventKind.RETRANSMITTED
                   for event in tracer.events)
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.ok, report.summary()
        assert recomputed_disagreements(tracer.events) == []

    def test_crash_recovery_trace_matches_vector_clock_relation(self):
        """A crash/restart run's snapshot and install are events of the
        ground-truth log, so the oracle's DAG and its vector clocks both
        see the transfer: the oracle answers on every pair and its
        relation is the trace's, exactly."""
        plan = FaultPlan(
            seed=7,
            default=ChannelFaults(drop_p=0.2, dup_p=0.05),
            crashes=(ClientCrash(site=2, at=3.0, restart_at=5.0),),
        )
        session, tracer = run_traced_session(plan=plan, ops_per_site=10)
        for kind in ("crashed", "recovered", "snapshot"):
            assert [e.kind.value for e in tracer.events].count(kind) == 1
        kinds = [event.kind for event in session.event_log.events]
        assert kinds.count(EventKind.SNAPSHOT) == kinds.count(EventKind.INSTALL) == 1
        assert (CausalityOracle(session.event_log).causal_pairs()
                == CausalityOracle(replay_event_log(tracer.events)).causal_pairs())
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.ok, report.summary()
        assert report.pairs_checked == report.n_ops * (report.n_ops - 1)
        assert recomputed_disagreements(tracer.events) == []

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_seed_sweep(self, seed):
        plan = FaultPlan(seed=seed, default=ChannelFaults(drop_p=0.15, dup_p=0.05))
        session, tracer = run_traced_session(
            plan=plan, ops_per_site=6, workload_seed=seed
        )
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.ok, report.summary()


class TestTheCheckerFailsWhereItShould:
    """One planted wrong timestamp is found, in-process and in a cluster's
    artifacts: the recomputed verdicts are not vacuous."""

    @staticmethod
    def nudged(events):
        """``events`` with one client arrival's ``T[2]`` lowered by one,
        and the disagreement that must follow: formula (5) now calls the
        local op with the old ``T[2]`` concurrent, and the oracle says it
        happened before.  The arrival is one the site transformed, and
        its transform count is raised to match, so the transform check
        agrees."""
        for pos, event in enumerate(events):
            before = events[pos - 1]
            if (event.kind is TraceEventKind.EXECUTED and event.site != 0
                    and event.timestamp[1] > 0
                    and before.kind is TraceEventKind.TRANSFORMED
                    and before.op_id == event.op_id):
                break
        else:
            pytest.fail("no client arrival was transformed")
        first, second = event.timestamp
        (local,) = [e.op_id for e in events[:pos]
                    if e.kind is TraceEventKind.GENERATED and e.site == event.site
                    and e.timestamp[1] == second]
        tampered = list(events)
        tampered[pos - 1] = dataclasses.replace(before, seq=before.seq + 1)
        tampered[pos] = dataclasses.replace(event, timestamp=(first, second - 1))
        return tampered, (event.site, event.op_id, local, True)

    @staticmethod
    def as_cluster(session, events):
        """``events`` as a cluster's traces, one per site, each closed by
        its end state, through the cluster's verdicts."""
        traces = {
            ep.pid: [
                *(e for e in events if e.site == ep.pid),
                TraceEvent(index=len(events), kind=TraceEventKind.FINISHED,
                           time=session.sim.now, site=ep.pid, gauges={
                               "ops_executed": len(ep.executed_op_ids),
                               "document": str(ep.document),
                               "timed_out": False}),
            ]
            for ep in session.endpoints()
        }
        return analyze_cluster(traces, expected_ops=4 * 8)

    def test_an_untouched_trace_has_no_disagreement(self):
        session, tracer = run_traced_session()
        oracle = CausalityOracle(replay_event_log(tracer.events))
        checked, disagreements = check_verdicts(tracer.events, oracle)
        assert checked > 0 and disagreements == []
        report = self.as_cluster(session, tracer.events)
        assert report.ok, report.summary()
        assert report.verdicts_checked > 0

    def test_a_nudged_timestamp_is_exactly_one_disagreement(self):
        _, tracer = run_traced_session()
        tampered, expected = self.nudged(tracer.events)
        oracle = CausalityOracle(replay_event_log(tampered))
        assert check_verdicts(tampered, oracle)[1] == [expected]

    def test_a_lowered_transform_count_is_exactly_one_disagreement(self):
        """A client transformed an arrival against one entry fewer than
        formula (5) finds concurrent: the count disagrees, nothing else."""
        _, tracer = run_traced_session()
        tampered = list(tracer.events)
        for pos, event in enumerate(tampered):
            if event.kind is TraceEventKind.TRANSFORMED and event.site != 0:
                break
        else:
            pytest.fail("no client arrival was transformed")
        tampered[pos] = dataclasses.replace(event, seq=event.seq - 1)
        oracle = CausalityOracle(replay_event_log(tampered))
        assert check_verdicts(tampered, oracle)[1] == [
            (event.site, event.op_id, None, True)]

    def test_a_nudged_stream_fails_the_cluster_verdict(self):
        session, tracer = run_traced_session()
        tampered, _ = self.nudged(tracer.events)
        report = self.as_cluster(session, tampered)
        assert not report.ok
        assert report.check_disagreements == 1
        assert report.cross_check.ok  # the timestamps are all it changed


class TestSessionSurface:
    def test_session_exposes_trace_and_run_metrics(self):
        session, tracer = run_traced_session(n_sites=3, ops_per_site=4)
        assert list(session.trace_events()) == tracer.events
        assert tracer.metrics.counter("session.runs") == 1
        assert tracer.metrics.counter("session.sim_events") > 0

    def test_untraced_session_has_no_events(self):
        session = StarSession(2)
        assert session.tracer is None
        assert list(session.trace_events()) == []
