"""Unit tests for the rich-text OT type (repro.ot.rich)."""

import pytest

from repro.ot.rich import (
    DeleteRich,
    InsertRich,
    Retain,
    RichOperation,
    RichTextError,
    RichTextType,
    attrs_at,
    plain,
    to_string,
)


def fmt_op(doc_len, start, count, add=(), remove=()):
    """Format a span of an existing document."""
    op = RichOperation().retain(start)
    op.retain(count, add=add, remove=remove)
    return op.retain(doc_len - start - count)


class TestDocumentModel:
    def test_plain_builder(self):
        doc = plain("ab", "bold")
        assert to_string(doc) == "ab"
        assert attrs_at(doc, 0) == frozenset({"bold"})

    def test_components_validate(self):
        with pytest.raises(RichTextError):
            Retain(0)
        with pytest.raises(RichTextError):
            Retain(1, frozenset({"x"}), frozenset({"x"}))
        with pytest.raises(RichTextError):
            InsertRich("")
        with pytest.raises(RichTextError):
            DeleteRich(0)


class TestApply:
    def test_insert_with_attrs(self):
        doc = plain("ac")
        op = RichOperation().retain(1).insert("b", attrs=("bold",)).retain(1)
        out = op.apply(doc)
        assert to_string(out) == "abc"
        assert attrs_at(out, 1) == frozenset({"bold"})
        assert attrs_at(out, 0) == frozenset()

    def test_delete(self):
        doc = plain("abc", "i")
        op = RichOperation().retain(1).delete(1).retain(1)
        assert to_string(op.apply(doc)) == "ac"

    def test_format_span(self):
        doc = plain("hello")
        out = fmt_op(5, 1, 3, add=("bold",)).apply(doc)
        assert [sorted(attrs) for _, attrs in out] == [[], ["bold"], ["bold"], ["bold"], []]

    def test_format_add_and_remove(self):
        doc = plain("xy", "bold", "italic")
        op = RichOperation().retain(2, add=("underline",), remove=("bold",))
        out = op.apply(doc)
        assert attrs_at(out, 0) == frozenset({"italic", "underline"})

    def test_length_mismatch(self):
        with pytest.raises(RichTextError):
            RichOperation().retain(3).apply(plain("ab"))

    def test_lengths(self):
        op = RichOperation().retain(2).insert("xy").delete(1)
        assert op.base_length == 3
        assert op.target_length == 4


def check_tp1(doc, a, b, priority=True):
    a2, b2 = a.transform(b, self_priority=priority)
    left = b2.apply(a.apply(doc))
    right = a2.apply(b.apply(doc))
    assert left == right, f"TP1 violated: {left} != {right}"
    return left


class TestTransform:
    def test_insert_vs_insert_priority(self):
        doc = plain("ab")
        a = RichOperation().retain(1).insert("X", ("bold",)).retain(1)
        b = RichOperation().retain(1).insert("Y").retain(1)
        out = check_tp1(doc, a, b, priority=True)
        assert to_string(out) == "aXYb"
        assert attrs_at(out, 1) == frozenset({"bold"})

    def test_insert_vs_delete(self):
        doc = plain("abcd")
        a = RichOperation().retain(2).insert("Z").retain(2)
        b = RichOperation().retain(1).delete(2).retain(1)
        check_tp1(doc, a, b)

    def test_delete_vs_delete_overlap(self):
        doc = plain("abcdef")
        a = RichOperation().retain(1).delete(3).retain(2)
        b = RichOperation().retain(2).delete(3).retain(1)
        out = check_tp1(doc, a, b)
        assert to_string(out) == "af"

    def test_concurrent_formatting_disjoint_attrs_union(self):
        doc = plain("hello")
        a = fmt_op(5, 0, 5, add=("bold",))
        b = fmt_op(5, 0, 5, add=("italic",))
        out = check_tp1(doc, a, b)
        assert attrs_at(out, 2) == frozenset({"bold", "italic"})

    def test_conflicting_format_priority_wins(self):
        doc = plain("hello", "bold")
        a = fmt_op(5, 0, 5, remove=("bold",))
        b = fmt_op(5, 0, 5, add=("bold",))  # re-affirm bold
        out = check_tp1(doc, a, b, priority=True)
        # a has priority: bold removed in both execution orders
        assert attrs_at(out, 0) == frozenset()
        out = check_tp1(doc, a, b, priority=False)
        assert attrs_at(out, 0) == frozenset({"bold"})

    def test_partial_span_conflict(self):
        doc = plain("abcdef")
        a = fmt_op(6, 0, 4, add=("bold",))
        b = fmt_op(6, 2, 4, remove=("bold",))
        out = check_tp1(doc, a, b, priority=True)
        # chars 0-1 bold (only a), 2-3 conflict -> a wins (bold), 4-5 only b
        assert attrs_at(out, 0) == frozenset({"bold"})
        assert attrs_at(out, 2) == frozenset({"bold"})
        assert attrs_at(out, 4) == frozenset()

    def test_format_vs_delete(self):
        doc = plain("abcdef")
        a = fmt_op(6, 1, 4, add=("bold",))
        b = RichOperation().retain(2).delete(3).retain(1)
        out = check_tp1(doc, a, b)
        assert to_string(out) == "abf"

    def test_format_vs_insert(self):
        doc = plain("abcd")
        a = fmt_op(4, 0, 4, add=("bold",))
        b = RichOperation().retain(2).insert("XY").retain(2)
        out = check_tp1(doc, a, b)
        # inserted text keeps its own (empty) attrs; the rest is bold
        assert attrs_at(out, 0) == frozenset({"bold"})
        assert attrs_at(out, 2) == frozenset()

    def test_base_length_mismatch(self):
        with pytest.raises(RichTextError):
            RichOperation().retain(2).transform(RichOperation().retain(3))


class TestInvert:
    def test_invert_insert(self):
        doc = plain("ab")
        op = RichOperation().retain(1).insert("X", ("bold",)).retain(1)
        assert op.invert(doc).apply(op.apply(doc)) == doc

    def test_invert_delete_restores_styles(self):
        doc = plain("a") + plain("b", "bold") + plain("c", "italic")
        op = RichOperation().retain(1).delete(2)
        restored = op.invert(doc).apply(op.apply(doc))
        assert restored == doc

    def test_invert_formatting_heterogeneous_span(self):
        doc = plain("a", "bold") + plain("b") + plain("c", "bold")
        op = RichOperation().retain(3, add=("bold",))
        restored = op.invert(doc).apply(op.apply(doc))
        assert restored == doc

    def test_invert_remove_restores_only_prior(self):
        doc = plain("x", "bold") + plain("y")
        op = RichOperation().retain(2, remove=("bold",))
        restored = op.invert(doc).apply(op.apply(doc))
        assert restored == doc

    def test_invert_length_mismatch(self):
        with pytest.raises(RichTextError):
            RichOperation().retain(5).invert(plain("ab"))


class TestRichTextType:
    def test_registered(self):
        from repro.ot.types import get_type

        assert isinstance(get_type("rich-text"), RichTextType)

    def test_star_session_with_formatting(self):
        """Two users format overlapping spans concurrently."""
        from repro.editor.star import StarSession

        doc = plain("collaborate")
        session = StarSession(
            2, ot_type_name="rich-text", initial_state=doc, verify_with_oracle=True
        )
        session.generate_at(1, fmt_op(11, 0, 6, add=("bold",)), at=1.0)
        session.generate_at(2, fmt_op(11, 4, 7, add=("italic",)), at=1.0)
        session.run()
        assert session.converged()
        final = session.notifier.document
        assert to_string(final) == "collaborate"
        assert attrs_at(final, 0) == frozenset({"bold"})
        assert attrs_at(final, 5) == frozenset({"bold", "italic"})
        assert attrs_at(final, 8) == frozenset({"italic"})

    def test_star_session_edit_while_formatting(self):
        from repro.editor.star import StarSession

        doc = plain("abc")
        session = StarSession(
            2, ot_type_name="rich-text", initial_state=doc, verify_with_oracle=True
        )
        session.generate_at(1, fmt_op(3, 0, 3, add=("bold",)), at=1.0)
        ins = RichOperation().retain(1).insert("XY").retain(2)
        session.generate_at(2, ins, at=1.0)
        session.run()
        assert session.converged()
        final = session.notifier.document
        assert to_string(final) == "aXYbc"
        assert attrs_at(final, 0) == frozenset({"bold"})
        assert attrs_at(final, 1) == frozenset()  # inserted text unformatted
        assert attrs_at(final, 4) == frozenset({"bold"})
