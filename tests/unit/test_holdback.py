"""Unit tests for the shared hold-back queue.

The same structure serves the reliability transport's reorder buffer
and the mesh editor's causal-delivery buffer; these tests exercise it
directly: gap buffering, duplicate slots, out-of-order bursts, epoch
resets, and the drain contract (head-only probing with a consumer
clock that advances mid-drain).
"""

from __future__ import annotations

import pytest

from repro.net.holdback import HoldbackOverflow
from repro.session import HoldbackQueue


class TestHoldAndPop:
    def test_gap_then_fill(self):
        q: HoldbackQueue[str] = HoldbackQueue()
        # seq 0 is expected next but seq 2 arrives first: held.
        assert q.hold("peer", 2, "c")
        assert len(q) == 1
        assert q.pop("peer", 0) is None  # the gap itself was never held
        assert q.pop("peer", 2) == "c"
        assert len(q) == 0
        assert not q

    def test_duplicate_slot_is_rejected_and_original_kept(self):
        q: HoldbackQueue[str] = HoldbackQueue()
        assert q.hold("peer", 5, "first")
        assert not q.hold("peer", 5, "second")
        assert len(q) == 1
        assert q.pop("peer", 5) == "first"

    def test_streams_are_independent(self):
        q: HoldbackQueue[str] = HoldbackQueue()
        assert q.hold("a", 1, "a1")
        assert q.hold("b", 1, "b1")
        assert q.pop("a", 1) == "a1"
        assert q.pop("b", 1) == "b1"

    def test_holds_tracks_each_stream_through_fill_overflow_and_clear(self):
        q: HoldbackQueue[str] = HoldbackQueue(capacity=2)
        assert not q.holds("a")
        q.hold("a", 2, "a2")
        q.hold("a", 3, "a3")
        assert q.holds("a") and not q.holds("b")
        with pytest.raises(HoldbackOverflow):
            q.hold("b", 1, "b1")
        assert not q.holds("b")  # the refused item left no empty stream behind
        q.pop("a", 2)
        assert q.holds("a")
        q.pop("a", 3)
        assert not q.holds("a")
        q.hold("a", 5, "a5")
        q.clear("a")
        assert not q.holds("a")


class TestClear:
    def test_epoch_reset_drops_one_stream_only(self):
        q: HoldbackQueue[str] = HoldbackQueue()
        q.hold("old-epoch-peer", 3, "x")
        q.hold("old-epoch-peer", 4, "y")
        q.hold("healthy-peer", 1, "z")
        assert q.clear("old-epoch-peer") == 2
        assert len(q) == 1
        assert q.pop("old-epoch-peer", 3) is None
        assert q.pop("healthy-peer", 1) == "z"

    def test_clear_all(self):
        q: HoldbackQueue[str] = HoldbackQueue()
        q.hold("a", 1, "x")
        q.hold("b", 2, "y")
        assert q.clear() == 2
        assert len(q) == 0

    def test_clear_unknown_stream_is_harmless(self):
        q: HoldbackQueue[str] = HoldbackQueue()
        assert q.clear("never-seen") == 0


class TestDrain:
    def test_out_of_order_burst_released_in_sequence(self):
        q: HoldbackQueue[int] = HoldbackQueue()
        next_seq = {"p": 0}
        for seq in (4, 1, 3, 0, 2):  # a shuffled burst
            q.hold("p", seq, seq * 10)
        released = []
        for item in q.drain(lambda s: next_seq[s]):
            released.append(item)
            next_seq["p"] += 1
        assert released == [0, 10, 20, 30, 40]
        assert len(q) == 0

    def test_drain_stops_at_gap(self):
        q: HoldbackQueue[int] = HoldbackQueue()
        next_seq = {"p": 0}
        q.hold("p", 0, 0)
        q.hold("p", 2, 20)  # seq 1 missing
        released = []
        for item in q.drain(lambda s: next_seq[s]):
            released.append(item)
            next_seq["p"] += 1
        assert released == [0]
        assert len(q) == 1  # seq 2 still held

    def test_ready_gate_defers_cross_stream_dependency(self):
        """The mesh's causal gate: a head item can be sequence-next but
        still blocked on another stream's delivery."""
        q: HoldbackQueue[dict] = HoldbackQueue()
        delivered: set[str] = set()
        next_seq = {"a": 0, "b": 0}
        # b's first op depends on a's first op having been delivered.
        q.hold("b", 0, {"id": "b0", "needs": "a0"})
        q.hold("a", 0, {"id": "a0", "needs": None})
        released = []
        for item in q.drain(
            lambda s: next_seq[s],
            lambda item: item["needs"] is None or item["needs"] in delivered,
        ):
            released.append(item["id"])
            delivered.add(item["id"])
            next_seq["a" if item["id"].startswith("a") else "b"] += 1
        assert released == ["a0", "b0"]

    def test_drain_progress_across_streams(self):
        """Consuming one stream's head can unblock another stream."""
        q: HoldbackQueue[str] = HoldbackQueue()
        clock = {"a": 0, "b": 0}
        q.hold("a", 0, "a0")
        q.hold("b", 0, "b0")
        q.hold("a", 1, "a1")
        released = []
        for item in q.drain(lambda s: clock[s]):
            released.append(item)
            clock[item[0]] += 1
        assert sorted(released) == ["a0", "a1", "b0"]
        assert len(q) == 0


class TestMeshIntegration:
    def test_mesh_quiescence_counts_editor_holdback(self):
        """A mesh site with a causally-blocked operation is not quiescent
        even when no simulator event is pending."""
        from repro.clocks.vector import VectorClock
        from repro.editor.mesh import MeshOp, MeshSession
        from repro.net.transport import Envelope
        from repro.ot.operations import Insert

        session = MeshSession(3)
        # Hand site 0 an operation from site 1 whose clock shows a
        # dependency site 0 has not seen (site 2's first op).
        record = MeshOp(
            op=Insert("x", 0), vc=VectorClock.of((0, 1, 1)), site=1, seq=1
        )
        session.sites[0].on_message(
            Envelope(source=1, dest=0, payload=record, timestamp_bytes=12)
        )
        assert session.sites[0].holdback_pending()
        assert not session.quiescent()
        assert session.sites[0].delivered_ids == []


@pytest.mark.parametrize("n_streams,per_stream", [(3, 50)])
def test_drain_is_head_probing_not_full_rescan(n_streams, per_stream):
    """Worst case for the old list rescan: long per-stream chains arrive
    fully reversed.  All must still come out in order."""
    q: HoldbackQueue[tuple[int, int]] = HoldbackQueue()
    clock = {s: 0 for s in range(n_streams)}
    for s in range(n_streams):
        for seq in reversed(range(per_stream)):
            q.hold(s, seq, (s, seq))
    out = []
    for s, seq in q.drain(lambda stream: clock[stream]):
        out.append((s, seq))
        clock[s] += 1
    assert len(out) == n_streams * per_stream
    for s in range(n_streams):
        seqs = [seq for stream, seq in out if stream == s]
        assert seqs == list(range(per_stream))
