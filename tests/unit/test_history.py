"""Unit tests for the history buffer (repro.core.history)."""

from repro.core.history import HistoryBuffer, HistoryEntry
from repro.core.timestamp import CompressedTimestamp, OriginKind
from repro.ot.operations import Insert


def entry(op_id, second, kind=OriginKind.LOCAL):
    return HistoryEntry(
        op=Insert("x", 0),
        timestamp=CompressedTimestamp(0, second),
        origin_site=1,
        origin_kind=kind,
        op_id=op_id,
    )


class TestHistoryBuffer:
    def test_append_preserves_order(self):
        hb = HistoryBuffer()
        hb.append(entry("a", 1))
        hb.append(entry("b", 2))
        assert hb.op_ids() == ["a", "b"]
        assert len(hb) == 2
        assert hb[0].op_id == "a"

    def test_iteration(self):
        hb = HistoryBuffer()
        hb.append(entry("a", 1))
        assert [e.op_id for e in hb] == ["a"]

    def test_prune_head_forgets_only_a_prefix(self):
        hb = HistoryBuffer()
        for i in range(5):
            hb.append(entry(f"op{i}", i))
        # Pruning stops at the first live entry; the dead op2 behind it
        # is retained (conservative), only the prefix op0 goes.
        hb.prune_head({"op3", "op1"})
        assert hb.op_ids() == ["op1", "op2", "op3", "op4"]
        hb.prune_head({"op3"})
        assert hb.op_ids() == ["op3", "op4"]
        hb.prune_head({"op3"})  # idempotent while the head is live
        assert hb.op_ids() == ["op3", "op4"]
        hb.prune_head(())  # nothing unacknowledged: everything goes
        assert len(hb) == 0
        hb.prune_head(())  # and an empty buffer is fine
        hb.append(entry("op5", 5))
        assert hb[0].op_id == "op5"

    def test_entry_op_is_mutable_for_retransformation(self):
        e = entry("a", 1)
        e.op = Insert("y", 3)
        assert e.op == Insert("y", 3)
