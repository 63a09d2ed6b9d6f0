"""Undo-as-new-operation in the star editor."""

import pytest

from repro.editor.star import StarSession
from repro.editor.star_client import UndoError
from repro.ot.operations import Delete, Insert, OperationGroup, compose
from repro.ot.types import CounterOp


class TestInvertSupport:
    def test_positional_insert_inverts_to_delete(self):
        from repro.ot.types import PositionalTextType

        ot = PositionalTextType()
        assert ot.invert("abc", Insert("XY", 1)) == Delete(2, 1)

    def test_positional_delete_inverts_to_reinsert(self):
        from repro.ot.types import PositionalTextType

        ot = PositionalTextType()
        assert ot.invert("ABCDE", Delete(3, 2)) == Insert("CDE", 2)

    def test_positional_group_inverts_reversed(self):
        from repro.ot.types import PositionalTextType

        ot = PositionalTextType()
        group = OperationGroup((Delete(2, 1), Delete(2, 3)))
        doc = "abcdefg"
        inverse = ot.invert(doc, group)
        assert inverse.apply(group.apply(doc)) == doc

    def test_composed_replace_inverts(self):
        from repro.ot.types import PositionalTextType

        ot = PositionalTextType()
        op = compose(Delete(2, 1), Insert("Z", 1))
        doc = "abcd"
        assert op.apply(doc) == "aZd"
        inverse = ot.invert(doc, op)
        assert inverse.apply(op.apply(doc)) == doc


class TestUndoLast:
    def test_simple_undo_restores_document(self):
        session = StarSession(2, initial_state="hello")
        session.generate_at(1, Insert(" world", 5), at=1.0)
        session.sim.schedule(2.0, lambda: session.client(1).undo_last())
        session.run()
        assert session.converged()
        assert session.notifier.document == "hello"

    def test_undo_delete_restores_text(self):
        session = StarSession(2, initial_state="ABCDE")
        session.generate_at(1, Delete(3, 2), at=1.0)
        session.sim.schedule(1.5, lambda: session.client(1).undo_last())
        session.run()
        assert session.converged()
        assert session.notifier.document == "ABCDE"

    def test_undo_with_concurrent_remote_edit(self):
        """The undo propagates like any edit; concurrent ops transform."""
        session = StarSession(2, initial_state="ABCDE")
        session.generate_at(1, Insert("12", 1), at=1.0)
        session.sim.schedule(1.01, lambda: session.client(1).undo_last())
        session.generate_at(2, Delete(3, 2), at=1.0)
        session.run()
        assert session.converged()
        assert session.notifier.document == "AB"

    def test_undo_nothing_raises(self):
        session = StarSession(1)
        with pytest.raises(UndoError, match="nothing to undo"):
            session.client(1).undo_last()

    def test_undo_blocked_after_remote_execution(self):
        session = StarSession(2, initial_state="ab")
        session.generate_at(1, Insert("x", 0), at=1.0)
        session.generate_at(2, Insert("y", 2), at=1.0)
        session.run()  # client 1 has now executed client 2's op remotely
        with pytest.raises(UndoError, match="remote operation executed"):
            session.client(1).undo_last()

    def test_undo_unsupported_type_raises(self):
        session = StarSession(1, ot_type_name="counter")
        session.generate_at(1, CounterOp(5), at=1.0)
        session.run()
        with pytest.raises(UndoError, match="does not support inversion"):
            session.client(1).undo_last()

    def test_undo_of_undo_redoes(self):
        session = StarSession(2, initial_state="x")
        session.generate_at(1, Insert("yz", 1), at=1.0)
        session.sim.schedule(1.1, lambda: session.client(1).undo_last())
        session.sim.schedule(1.2, lambda: session.client(1).undo_last())
        session.run()
        assert session.converged()
        assert session.notifier.document == "xyz"

    def test_composed_op_undo(self):
        session = StarSession(2, initial_state="abc")
        op = compose(Insert("!", 3), Insert("?", 0))
        session.sim.schedule(1.0, lambda: session.client(1).generate(op))
        session.sim.schedule(2.0, lambda: session.client(1).undo_last())
        session.run()
        assert session.converged()
        assert session.notifier.document == "abc"

    def test_undo_survives_garbage_collection(self):
        """Regression: undo must not depend on what the HB still holds.
        An acknowledging arrival prunes the site's earlier local entry;
        the next local operation is undoable from the tracked entry,
        and the undo converges like any other operation."""
        session = StarSession(2, initial_state="hello")
        session.generate_at(1, Insert(" world", 5), at=1.0)
        session.generate_at(2, Insert("!", 11), at=5.0)  # its broadcast acks site 1
        session.run()
        client = session.client(1)
        assert not client.pending
        assert client.hb.op_ids() == ["c2_1'"]  # the local entry is gone
        client.generate(Insert("?", 0))
        client.undo_last()
        session.run()
        assert session.converged()
        assert session.notifier.document == "hello world!"

    def test_undo_blocked_when_gc_hides_remote_execution(self):
        """Regression (the dangerous direction): pruning keeps the HB
        *headed* by the site's unacknowledged local entry, and the entry
        is still pending -- but a remote operation did execute since, so
        its inverse's context is gone.  Deciding undoability from which
        local entries the HB retains would undo into a corrupted
        document; the independent tracking must refuse."""
        from repro.core.timestamp import OriginKind

        session = StarSession(2, initial_state="ABCDE")
        # B broadcasts before the notifier has seen A, so A stays pending
        # at client 1 (the broadcast carries T[2] = 0) and survives the
        # pruning that B's arrival performs.
        session.generate_at(2, Delete(2, 0), at=1.0)
        session.generate_at(1, Insert("xy", 1), at=1.07)
        session.run()
        client = session.client(1)
        assert [e.origin_kind for e in client.hb] == [
            OriginKind.LOCAL, OriginKind.FROM_CENTER
        ]
        assert client.hb[0] is client.pending[0]
        with pytest.raises(UndoError, match="remote operation executed"):
            client.undo_last()
        # A fresh local operation re-arms undo, for that operation only.
        client.generate(Insert("!", 0))
        assert client.hb[len(client.hb) - 1].origin_kind is OriginKind.LOCAL
        client.undo_last()
        session.run()
        assert session.converged()
        assert session.notifier.document == "xyCDE"

    def test_undo_counts_as_ordinary_operation_in_sv(self):
        session = StarSession(1, initial_state="q")
        session.generate_at(1, Insert("r", 1), at=1.0)
        session.sim.schedule(2.0, lambda: session.client(1).undo_last())
        session.run()
        assert session.client(1).sv.as_paper_list() == [0, 2]
        assert session.notifier.sv.as_paper_list() == [2]
