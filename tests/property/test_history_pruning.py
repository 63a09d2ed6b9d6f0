"""Pruning the history at the acknowledgement horizon is safe.

The differential property: one seeded session run twice -- once under
the oracle, which keeps the whole history and verifies every pair
against full vector clocks, and once as deployed, pruning on every
arrival -- must be the same session.  Same documents, same broadcasts,
same wire traffic; the same pairs found concurrent; and every check the
pruned run still performs is one the full run performed, with the same
verdict.  What pruning drops is therefore only checks that answered
"not concurrent".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import jitter_latency_factory
from repro.editor.star import StarSession
from repro.net.faults import ChannelFaults, FaultPlan
from repro.workloads.random_session import RandomSessionConfig, drive_star_session


def assert_unacknowledged_ops_retained(session: StarSession) -> None:
    """The invariant pruning must never break, checkable at any instant:
    whatever an arrival may still have to be transformed against is
    still in the history buffer it is swept from."""
    notifier = session.endpoints()[0]
    buffered = set(notifier.hb.op_ids())
    for dest, queue in notifier.sent_to.items():
        missing = [p.op_id for p in queue if p.op_id not in buffered]
        assert not missing, f"HB_0 forgot {missing}, unacknowledged by site {dest}"
    for client in session.clients:
        if client.promoted:
            continue
        kept = {id(entry) for entry in client.hb}
        missing = [e.op_id for e in client.pending if id(e) not in kept]
        assert not missing, f"site {client.pid} forgot its pending {missing}"


def run_session(n_sites: int, ops_per_site: int, seed: int, lossy: bool,
                oracle: bool) -> StarSession:
    config = RandomSessionConfig(n_sites=n_sites, ops_per_site=ops_per_site, seed=seed)
    plan = None
    if lossy:  # perfbench's sim-lossy8 plan
        plan = FaultPlan(seed=seed, default=ChannelFaults(drop_p=0.05, dup_p=0.02))
    session = StarSession(
        n_sites,
        initial_state=config.initial_document,
        latency_factory=jitter_latency_factory(seed),
        verify_with_oracle=oracle,
        record_checks=True,
        fault_plan=plan,
    )
    drive_star_session(session, config)
    while session.sim.run(max_events=25):
        assert_unacknowledged_ops_retained(session)
    return session


def verdicts(session: StarSession) -> dict[tuple[int, str, str], bool]:
    return {
        (r.site, r.new_op_id, r.buffered_op_id): r.verdict
        for r in session.all_checks()
    }


@settings(max_examples=40, deadline=None)
@given(
    n_sites=st.integers(2, 5),
    ops_per_site=st.integers(5, 40),
    seed=st.integers(0, 2**16),
    lossy=st.booleans(),
)
def test_pruned_session_is_the_full_history_session(n_sites, ops_per_site, seed, lossy):
    full = run_session(n_sites, ops_per_site, seed, lossy, oracle=True)
    pruned = run_session(n_sites, ops_per_site, seed, lossy, oracle=False)

    assert full.converged() and pruned.converged()
    assert pruned.documents() == full.documents()
    assert full.notifier.broadcast_log  # two diagnostic sessions: both keep it
    assert pruned.notifier.broadcast_log == full.notifier.broadcast_log
    assert pruned.wire_stats().messages == full.wire_stats().messages
    assert pruned.wire_stats().timestamp_bytes == full.wire_stats().timestamp_bytes

    full_verdicts, pruned_verdicts = verdicts(full), verdicts(pruned)
    assert pruned_verdicts  # record_checks=True on both sides: never {} <= {}
    assert pruned_verdicts.items() <= full_verdicts.items()
    assert {pair for pair, concurrent in pruned_verdicts.items() if concurrent} == {
        pair for pair, concurrent in full_verdicts.items() if concurrent
    }
    # The oracle run is the proof obligation: it kept, and so checked
    # every arrival against, everything it ever executed.
    for endpoint in full.endpoints():
        assert endpoint.hb.op_ids() == endpoint.executed_op_ids
    assert max(len(e.hb) for e in pruned.endpoints()) <= max(
        len(e.hb) for e in full.endpoints())
