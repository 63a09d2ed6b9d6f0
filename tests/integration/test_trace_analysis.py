"""Trace-level causality against the ground-truth oracle.

A traced session must yield a happens-before relation -- reconstructed
purely from the recorded :class:`~repro.obs.TraceEvent` stream -- that
matches :mod:`repro.analysis.causality` exactly, pair by pair, on clean
networks, lossy networks, and crash/recovery runs; and every formula
(5)/(7) verdict recorded during the run must agree with the trace
relation.
"""

from __future__ import annotations

import random

import pytest

from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan
from repro.obs import (
    TraceCausality,
    Tracer,
    cross_check_causality,
    latency_histograms,
    verify_check_records,
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
        record_checks=True,
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
    assert session.all_checks(), "no verdicts recorded: the trace checks are vacuous"
    return session, tracer


class TestCleanSession:
    def test_happens_before_matches_oracle_exactly(self):
        session, tracer = run_traced_session()
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.mode == "causality-oracle"
        assert report.ok, report.summary()
        assert report.pairs_checked == report.n_ops * (report.n_ops - 1)

    def test_formula_verdicts_agree_with_trace(self):
        session, tracer = run_traced_session()
        causality = TraceCausality(tracer.events)
        assert verify_check_records(causality, session.all_checks()) == []

    def test_notifier_transform_lineage(self):
        _, tracer = run_traced_session(ops_per_site=4)
        causality = TraceCausality(tracer.events)
        transformed = [op for op in causality.ops() if op.endswith("'")]
        assert transformed, "the notifier emitted no transformed operations"
        for op in transformed:
            original = causality.original_op(op)
            assert original == op[:-1]
            # The original always happened before its transformed form.
            assert causality.happened_before(original, op)
            assert not causality.concurrent(original, op)

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
        assert tracer.metrics.counter("trace.retransmitted") > 0
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.mode == "causality-oracle"
        assert report.ok, report.summary()
        causality = TraceCausality(tracer.events)
        assert verify_check_records(causality, session.all_checks()) == []

    def test_crash_recovery_trace_matches_vector_clock_relation(self):
        """A crash/restart run switches the ground truth to the oracle's
        vector-clock half (the snapshot carries causality the event DAG
        does not model) and must still match exactly."""
        plan = FaultPlan(
            seed=7,
            default=ChannelFaults(drop_p=0.2, dup_p=0.05),
            crashes=(ClientCrash(site=2, at=3.0, restart_at=5.0),),
        )
        session, tracer = run_traced_session(plan=plan, ops_per_site=10)
        for kind in ("crashed", "recovered", "snapshot"):
            assert tracer.metrics.counter(f"trace.{kind}") == 1
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.mode == "vector-clock"
        assert report.ok, report.summary()
        causality = TraceCausality(tracer.events)
        assert verify_check_records(causality, session.all_checks()) == []

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_seed_sweep(self, seed):
        plan = FaultPlan(seed=seed, default=ChannelFaults(drop_p=0.15, dup_p=0.05))
        session, tracer = run_traced_session(
            plan=plan, ops_per_site=6, workload_seed=seed
        )
        report = cross_check_causality(tracer.events, session.event_log)
        assert report.ok, report.summary()


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
