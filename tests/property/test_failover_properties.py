"""Property tests for notifier failover under randomized fault plans.

Every drawn plan contains exactly one mid-workload notifier crash, plus
random message loss/duplication and an optional client crash/restart.
Whatever the draw, the session must converge with the full-vector-clock
oracle verifying every compressed concurrency verdict inline, the
transport must release gap-free FIFO streams, and the happens-before
relation recovered from the trace must match the ground-truth event log
-- across the notifier epoch boundary when a promotion happened.

Detection is activity-triggered, so draws whose edits all settle before
the crash legitimately end without a promotion; the properties hold
either way (the interesting draws are the ones that do fail over).
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.causality import CausalityOracle
from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan, NotifierCrash
from repro.obs import check_verdicts, cross_check_causality, replay_event_log
from repro.obs.tracer import Tracer
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

failover_params = st.fixed_dictionaries(
    {
        "n_sites": st.integers(2, 4),
        "ops_per_site": st.integers(1, 5),
        "workload_seed": st.integers(0, 10**6),
        "fault_seed": st.integers(0, 10**6),
        "drop_p": st.sampled_from([0.0, 0.05, 0.1]),
        "dup_p": st.sampled_from([0.0, 0.05]),
        "client_crash": st.booleans(),
        "notifier_crash_at": st.sampled_from([1.2, 1.8, 2.5]),
    }
)


def build_plan(params) -> FaultPlan:
    crashes = ()
    if params["client_crash"]:
        site = 1 + params["fault_seed"] % params["n_sites"]
        crashes = (ClientCrash(site=site, at=2.0, restart_at=4.5),)
    return FaultPlan(
        seed=params["fault_seed"],
        default=ChannelFaults(drop_p=params["drop_p"], dup_p=params["dup_p"]),
        crashes=crashes,
        notifier_crash=NotifierCrash(at=params["notifier_crash_at"]),
    )


def run_session(params) -> StarSession:
    def latency_factory(src, dst):
        return UniformLatency(
            0.02, 0.2, random.Random(params["fault_seed"] * 31 + src * 7 + dst)
        )

    tracer = Tracer()
    session = StarSession(
        params["n_sites"],
        latency_factory=latency_factory,
        verify_with_oracle=True,
        fault_plan=build_plan(params),
        tracer=tracer,
    )
    config = RandomSessionConfig(
        n_sites=params["n_sites"],
        ops_per_site=params["ops_per_site"],
        seed=params["workload_seed"],
    )
    drive_star_session(session, config)
    session.run()
    return session


def broadcasts_stranded_at_crash(session: StarSession) -> bool:
    """True iff the dead centre still held undelivered broadcasts.

    Detection is activity-triggered (DESIGN §3.2): a client only
    declares the centre dead when its *own* retransmit budget toward it
    runs out.  If, at crash time, every client's uploads were already
    acknowledged and the only in-flight traffic was centre→client, no
    budget ever runs out, no promotion happens, and whatever the crash
    ate stays lost — the protocol's documented liveness gap.  Such
    draws cannot promise convergence; the property below scopes its
    convergence claim by this predicate.  ``go_down()`` voids the link
    state, so the count is snapshotted into the endpoint's stats at
    crash time rather than read from the (cleared) send windows.
    """
    return session.notifier.transport.stats.stranded_at_crash > 0


class TestFailoverProperties:
    @given(failover_params)
    @settings(max_examples=20, deadline=None)
    def test_converges_with_oracle_across_any_failover(self, params):
        session = run_session(params)  # ConsistencyError on oracle mismatch
        assert session.quiescent()
        assert session.reliable_delivery_in_order()
        if session.promoted_notifier is not None:
            assert session.promoted_notifier.notifier_epoch == 1
            assert session.fault_report().promotions == 1
            assert session.converged(), session.documents()
        elif not broadcasts_stranded_at_crash(session):
            # No promotion and nothing stranded: the crash was silent
            # (everything had settled), so replicas must agree.
            assert session.converged(), session.documents()

    @given(failover_params)
    @example({"n_sites": 4, "ops_per_site": 5, "workload_seed": 0,
              "fault_seed": 0, "drop_p": 0.05, "dup_p": 0.0,
              "client_crash": False, "notifier_crash_at": 1.2})  # promotes
    @settings(max_examples=12, deadline=None)
    def test_trace_happens_before_matches_ground_truth(self, params):
        session = run_session(params)
        events = session.tracer.events
        replayed = CausalityOracle(replay_event_log(events))
        # The failover snapshots are events of the ground-truth log: the
        # oracle's DAG and vector clocks agree (it answers at all), and
        # the relation is the trace's.
        assert (CausalityOracle(session.event_log).causal_pairs()
                == replayed.causal_pairs())
        report = cross_check_causality(replayed, session.event_log)
        assert report.ok, report.summary()
        assert check_verdicts(events, replayed)[1] == []
