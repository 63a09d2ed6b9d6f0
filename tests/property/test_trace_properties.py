"""Property tests for recorded traces under seeded fault plans.

For every randomly drawn session-and-fault-plan pair, the recorded
trace must be *structurally sound*:

* every ``RELEASED`` event is either a direct in-order delivery or has
  a matching earlier ``HELD_BACK`` event for the same (site, peer,
  epoch, seq) slot (:func:`repro.obs.released_without_cause`);
* every executed operation has a generation event earlier in the trace
  (``replay_event_log`` raises otherwise);
* the replayed happens-before relation matches the ground-truth oracle
  exactly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan
from repro.obs import Tracer, cross_check_causality, released_without_cause
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

trace_session_params = st.fixed_dictionaries(
    {
        "n_sites": st.integers(2, 4),
        "ops_per_site": st.integers(1, 6),
        "workload_seed": st.integers(0, 10**6),
        "fault_seed": st.integers(0, 10**6),
        "drop_p": st.sampled_from([0.0, 0.05, 0.2]),
        "dup_p": st.sampled_from([0.0, 0.05]),
        "crash": st.booleans(),
    }
)


def build_plan(params) -> FaultPlan:
    crashes = ()
    if params["crash"]:
        site = 1 + params["fault_seed"] % params["n_sites"]
        crashes = (ClientCrash(site=site, at=2.0, restart_at=4.5),)
    return FaultPlan(
        seed=params["fault_seed"],
        default=ChannelFaults(drop_p=params["drop_p"], dup_p=params["dup_p"]),
        crashes=crashes,
    )


def run_traced(params):
    def latency_factory(src, dst):
        return UniformLatency(
            0.02, 0.2, random.Random(params["fault_seed"] * 1009 + src * 13 + dst)
        )

    tracer = Tracer()
    session = StarSession(
        params["n_sites"],
        latency_factory=latency_factory,
        verify_with_oracle=True,
        fault_plan=build_plan(params),
        tracer=tracer,
    )
    drive_star_session(
        session,
        RandomSessionConfig(
            n_sites=params["n_sites"],
            ops_per_site=params["ops_per_site"],
            seed=params["workload_seed"],
        ),
    )
    session.run()
    assert session.converged(), session.documents()
    return session, tracer


@settings(max_examples=25, deadline=None)
@given(params=trace_session_params)
def test_every_release_has_a_cause(params):
    _, tracer = run_traced(params)
    assert released_without_cause(tracer.events) == []


@settings(max_examples=25, deadline=None)
@given(params=trace_session_params)
def test_trace_happens_before_matches_oracle(params):
    session, tracer = run_traced(params)
    # The replay itself asserts every execution has a prior generation.
    report = cross_check_causality(tracer.events, session.event_log)
    assert report.ok, report.summary()
