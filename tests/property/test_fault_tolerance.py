"""Property tests for the reliability layer under seeded fault plans.

For every randomly drawn session-and-fault-plan pair: the session runs
with the full-vector-clock oracle inline (any compressed-verdict
mismatch raises), every replica converges, the raw network never
reorders what it delivers (``fifo_respected``), and the reliability
layer hands each endpoint a gap-free in-order stream
(``reliable_delivery_in_order``) -- i.e. the protocol reconstructs
exactly the FIFO precondition formulas (5) and (7) need, no matter what
the fault plan destroys.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.editor.star import StarSession
from repro.net.channel import JitterLatency, UniformLatency
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan
from repro.obs.tracer import Tracer, TraceEventKind
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

fault_session_params = st.fixed_dictionaries(
    {
        "n_sites": st.integers(2, 4),
        "ops_per_site": st.integers(1, 6),
        "workload_seed": st.integers(0, 10**6),
        "fault_seed": st.integers(0, 10**6),
        "drop_p": st.sampled_from([0.0, 0.05, 0.1, 0.2]),
        "dup_p": st.sampled_from([0.0, 0.05, 0.1]),
        "crash": st.booleans(),
    }
)


# Crash-free plans with an optional burst outage on one spoke, either
# direction, over sessions long enough to keep a send window open.
repair_session_params = st.fixed_dictionaries(
    {
        "n_sites": st.integers(2, 4),
        "ops_per_site": st.integers(4, 12),
        "workload_seed": st.integers(0, 10**6),
        "fault_seed": st.integers(0, 10**6),
        "drop_p": st.sampled_from([0.0, 0.05, 0.1, 0.2]),
        "dup_p": st.sampled_from([0.0, 0.05, 0.1]),
        "crash": st.just(False),
        "outage": st.sampled_from([None, (1.0, 2.5), (0.5, 4.0)]),
        "outage_link": st.sampled_from([(0, 1), (1, 0)]),
    }
)


def build_plan(params) -> FaultPlan:
    crashes = ()
    if params["crash"]:
        # crash a mid-session site while traffic is still in flight
        site = 1 + params["fault_seed"] % params["n_sites"]
        crashes = (ClientCrash(site=site, at=2.0, restart_at=4.5),)
    default = ChannelFaults(drop_p=params["drop_p"], dup_p=params["dup_p"])
    per_channel = {}
    if params.get("outage") is not None:
        per_channel[params["outage_link"]] = replace(
            default, outages=(params["outage"],))
    return FaultPlan(
        seed=params["fault_seed"],
        default=default,
        per_channel=per_channel,
        crashes=crashes,
    )


def run_session(params) -> StarSession:
    def latency_factory(src, dst):
        return UniformLatency(
            0.02, 0.25, random.Random(params["fault_seed"] * 31 + src * 7 + dst)
        )

    session = StarSession(
        params["n_sites"],
        latency_factory=latency_factory,
        verify_with_oracle=True,
        fault_plan=build_plan(params),
    )
    config = RandomSessionConfig(
        n_sites=params["n_sites"],
        ops_per_site=params["ops_per_site"],
        seed=params["workload_seed"],
    )
    drive_star_session(session, config)
    session.run()
    return session


class TestFaultToleranceProperties:
    @given(fault_session_params)
    @settings(max_examples=25, deadline=None)
    def test_converges_with_oracle_under_any_plan(self, params):
        session = run_session(params)  # ConsistencyError on any oracle mismatch
        assert session.quiescent()
        assert session.converged(), session.documents()

    @given(fault_session_params)
    @settings(max_examples=25, deadline=None)
    def test_fifo_and_in_order_release_under_any_plan(self, params):
        session = run_session(params)
        # every physical channel: delivered stream is a prefix-order
        # subsequence of the sent stream (drops leave gaps, never swaps)
        assert session.topology.fifo_respected()
        # every endpoint: the reliability layer released a gap-free stream
        assert session.reliable_delivery_in_order()

    @given(fault_session_params)
    @settings(max_examples=10, deadline=None)
    def test_replay_is_deterministic(self, params):
        a, b = run_session(params), run_session(params)
        assert a.documents() == b.documents()
        assert a.notifier.executed_op_ids == b.notifier.executed_op_ids
        assert a.fault_report() == b.fault_report()

    @given(fault_session_params)
    @settings(max_examples=15, deadline=None)
    def test_losses_imply_retransmits(self, params):
        session = run_session(params)
        report = session.fault_report()
        # Only lost *data* packets force recovery work: a lost pure ack
        # (report.lost_acks) is healed by any later cumulative ack
        # without retransmission.  And a crash voids the crashed
        # incarnation's unacked windows (sender- and notifier-side, via
        # the epoch bump), so a loss just before a crash may legitimately
        # never be retransmitted -- the implication holds crash-free.
        if report.lost > 0 and not params["crash"]:
            assert report.retransmits > 0
        if params["drop_p"] == 0.0 and params["dup_p"] == 0.0 and not params["crash"]:
            assert report.lost == 0 and report.lost_acks == 0
            assert report.retransmits == 0

    @given(repair_session_params)
    # Clean network, two-way latency near base_rto: an ack paced behind
    # reverse data that carried no news arrived after the timer fired.
    @example({"n_sites": 2, "ops_per_site": 4, "workload_seed": 3203,
              "fault_seed": 4, "drop_p": 0.0, "dup_p": 0.0, "crash": False,
              "outage": None, "outage_link": (0, 1)})
    @settings(max_examples=25, deadline=None)
    def test_repair_work_is_proportional_to_loss(self, params):
        session = run_session(params)
        assert session.quiescent()
        assert session.converged(), session.documents()
        assert session.topology.fifo_respected()
        assert session.reliable_delivery_in_order()
        report = session.fault_report()
        # A lost data packet costs its repair; a run of them at most
        # twice the run (the doubling overshoots by less than it has
        # repaired); a lost ack at most one timer resend.  One-way
        # latency here stays under base_rto / 2, so no timer is
        # spurious.  Over 300 drawn plans the worst ratio was 1.6;
        # resending the whole window on every timeout reached 2.4.
        assert report.retransmits <= 2 * (report.lost + report.lost_acks)
        # Quiescence leaves nothing owed in either direction: no packet
        # unacknowledged and no paced acknowledgement still pending.
        for endpoint in session.participants():
            assert endpoint.transport.inflight() == 0
            assert all(link.ack_timer is None
                       for link in endpoint.transport._links.values())


# (caught up at, retransmits) when every retransmit timeout resent the
# whole unacked window: the timer had backed off past the outage's end
# and nothing moved until it fired.
GO_BACK_N_AFTER_OUTAGE = {0: (10.96, 218), 1: (11.08, 214), 2: (10.87, 203)}


def catch_up_after_outage(seed: int) -> tuple[float, int]:
    """Four virtual seconds of a busy notifier->client link go dark.

    Returns when client 1 had caught up and what the session resent.
    """
    tracer = Tracer()
    session = StarSession(
        4,
        latency_factory=lambda src, dst: JitterLatency(
            0.08, 0.6, random.Random(seed * 97 + src * 11 + dst)),
        fault_plan=FaultPlan(
            seed=seed,
            per_channel={(0, 1): ChannelFaults(outages=((3.0, 7.0),))}),
        tracer=tracer,
    )
    drive_star_session(session, RandomSessionConfig(
        n_sites=4, ops_per_site=40, seed=seed, mean_think_time=0.25))
    session.run()
    assert session.converged() and session.reliable_delivery_in_order()
    # The outage is the only fault, so the last release out of client
    # 1's reorder buffer is the moment it caught up.
    caught_up = max(
        event.time for event in tracer.events
        if event.kind is TraceEventKind.RELEASED
        and event.site == 1 and event.via == "holdback")
    return caught_up, session.fault_report().retransmits


@pytest.mark.parametrize("seed", sorted(GO_BACK_N_AFTER_OUTAGE))
def test_busy_link_catches_up_after_an_outage_sooner_and_cheaper(seed):
    caught_up, retransmits = catch_up_after_outage(seed)
    then_at, then_retransmits = GO_BACK_N_AFTER_OUTAGE[seed]
    # Per seed only the direction is asserted: acks share each channel's
    # latency RNG with the data, so a seed is one latency draw and any
    # change to the ack count re-draws it (when acks became paced seed 1
    # moved 9.58 -> 9.85 and seed 8 9.81 -> 9.92 while the median over
    # seeds 0-11 went 9.26 -> 9.22; an ack-per-arrival seed 9 read 10.23
    # against a per-seed bound of `then_at - 1.0`).
    assert caught_up < then_at
    assert retransmits < then_retransmits / 2


def test_busy_link_catch_up_margin_over_go_back_n_holds_on_the_mean():
    """The size of the win is a property of the policy, not of one draw:
    the three-seed mean was 10.97 under go-back-N and is 9.35 now."""
    seeds = sorted(GO_BACK_N_AFTER_OUTAGE)
    now_mean = sum(catch_up_after_outage(seed)[0] for seed in seeds) / len(seeds)
    then_mean = sum(at for at, _ in GO_BACK_N_AFTER_OUTAGE.values()) / len(seeds)
    assert now_mean < then_mean - 1.0
