"""A fault-free network never reaches the paths that pace a repeat.

The acknowledgement policy delays only what would repeat the last
packet: the re-ack of a duplicate, the report of a packet held above a
gap already reported.  Both need a duplicated or a lost packet to
exist, so over a network that does neither the protocol is, message
for message, the one that answers them at once -- which the counters
show directly: nothing held, nothing discarded, nothing resent, at any
endpoint, anywhere in the parameter space of the fault-tolerance
properties.
"""

from hypothesis import given, settings

from .test_fault_tolerance import repair_session_params, run_session

clean_session_params = repair_session_params.map(
    lambda params: {**params, "drop_p": 0.0, "dup_p": 0.0, "outage": None})


@given(clean_session_params)
@settings(max_examples=40, deadline=None)
def test_a_clean_network_never_holds_discards_or_resends(params):
    session = run_session(params)
    assert session.quiescent() and session.converged()
    report = session.fault_report()
    assert report.lost == report.lost_acks == report.duplicated == 0
    for endpoint in session.participants():
        stats = endpoint.transport.stats
        assert stats.out_of_order_held == 0
        assert stats.duplicates_discarded == 0
        assert stats.retransmits == 0
