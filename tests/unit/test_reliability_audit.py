"""The in-order release audit must be falsifiable.

Regression for a review finding: ``delivered_in_order()`` used to
compare two counters (``link.delivered`` and ``link.recv_next``) that
were only ever incremented together and reset together, so it was a
tautology.  It now checks, at release time, the ``(epoch, seq)`` of each
packet actually handed to the editor against what that source must
send next; these tests feed the release-time hook every corruption it
claims to detect.
"""

from repro.net.reliability import ReliableEndpoint
from repro.net.simulator import Simulator


def make_endpoint() -> ReliableEndpoint:
    return ReliableEndpoint(Simulator(), 0, wire_send=lambda *a: None,
                            deliver=lambda env: None)


def release(ep: ReliableEndpoint, source: int, pairs) -> None:
    """Feed ``(epoch, seq)`` pairs through the release-time audit hook."""
    for epoch, seq in pairs:
        ep._audit_release(source, epoch, seq)


class TestDeliveredInOrderAudit:
    def test_empty_trace_passes(self):
        assert make_endpoint().delivered_in_order()

    def test_contiguous_per_epoch_trace_passes(self):
        ep = make_endpoint()
        release(ep, 1, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)])
        release(ep, 2, [(0, 0)])
        assert ep.delivered_in_order()

    def test_gap_fails(self):
        ep = make_endpoint()
        release(ep, 1, [(0, 0), (0, 2)])
        assert not ep.delivered_in_order()

    def test_swap_fails(self):
        ep = make_endpoint()
        release(ep, 1, [(0, 1), (0, 0)])
        assert not ep.delivered_in_order()

    def test_duplicate_release_fails(self):
        ep = make_endpoint()
        release(ep, 1, [(0, 0), (0, 0), (0, 1)])
        assert not ep.delivered_in_order()

    def test_epoch_regression_fails(self):
        ep = make_endpoint()
        release(ep, 1, [(1, 0), (0, 0)])
        assert not ep.delivered_in_order()

    def test_new_epoch_must_restart_at_seq_zero(self):
        ep = make_endpoint()
        release(ep, 1, [(0, 0), (1, 1)])
        assert not ep.delivered_in_order()

    def test_one_bad_source_taints_the_endpoint(self):
        ep = make_endpoint()
        release(ep, 1, [(0, 0), (0, 1)])
        release(ep, 2, [(0, 1)])  # source 2 never released seq 0
        assert not ep.delivered_in_order()
