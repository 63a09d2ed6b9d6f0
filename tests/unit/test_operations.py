"""Unit tests for positional operations (repro.ot.operations)."""

import pytest

from repro.ot.operations import (
    Delete,
    Identity,
    Insert,
    OperationError,
    OperationGroup,
    apply_operation,
    flatten,
    simplify,
)


class TestInsert:
    def test_insert_at_start(self):
        assert Insert("xy", 0).apply("abc") == "xyabc"

    def test_insert_in_middle(self):
        assert Insert("12", 1).apply("ABCDE") == "A12BCDE"

    def test_insert_at_end(self):
        assert Insert("!", 3).apply("abc") == "abc!"

    def test_insert_into_empty_document(self):
        assert Insert("hello", 0).apply("") == "hello"

    def test_insert_beyond_length_raises(self):
        with pytest.raises(OperationError):
            Insert("x", 4).apply("abc")

    def test_negative_position_rejected_at_construction(self):
        with pytest.raises(OperationError):
            Insert("x", -1)

    def test_empty_text_is_identity(self):
        op = Insert("", 2)
        assert op.is_identity()
        assert op.apply("abc") == "abc"

    def test_end_property(self):
        assert Insert("abc", 2).end == 5

    def test_repr_matches_paper_notation(self):
        assert repr(Insert("12", 1)) == "Insert['12', 1]"

    def test_is_immutable(self):
        op = Insert("x", 0)
        with pytest.raises(AttributeError):
            op.pos = 3


class TestDelete:
    def test_delete_prefix(self):
        assert Delete(2, 0).apply("abcd") == "cd"

    def test_delete_paper_example(self):
        # O_2 = Delete[3, 2] on "ABCDE" deletes "CDE"
        assert Delete(3, 2).apply("ABCDE") == "AB"

    def test_delete_suffix(self):
        assert Delete(2, 2).apply("abcd") == "ab"

    def test_delete_whole_document(self):
        assert Delete(3, 0).apply("abc") == ""

    def test_delete_beyond_length_raises(self):
        with pytest.raises(OperationError):
            Delete(3, 2).apply("abc")

    def test_negative_count_rejected(self):
        with pytest.raises(OperationError):
            Delete(-1, 0)

    def test_negative_position_rejected(self):
        with pytest.raises(OperationError):
            Delete(1, -2)

    def test_zero_count_is_identity(self):
        op = Delete(0, 1)
        assert op.is_identity()
        assert op.apply("abc") == "abc"

    def test_end_property(self):
        assert Delete(3, 2).end == 5

    def test_repr_matches_paper_notation(self):
        assert repr(Delete(3, 2)) == "Delete[3, 2]"


class TestIdentity:
    def test_apply_is_noop(self):
        assert Identity().apply("anything") == "anything"

    def test_is_identity(self):
        assert Identity().is_identity()

    def test_primitive_count_zero(self):
        assert Identity().primitive_count() == 0


class TestOperationGroup:
    def test_sequential_application(self):
        group = OperationGroup((Delete(2, 1), Delete(2, 3)))
        # "abcdefg" -> delete "bc" -> "adefg" -> delete "fg" -> "ade"
        assert group.apply("abcdefg") == "ade"

    def test_group_identity_detection(self):
        assert OperationGroup((Identity(), Insert("", 0))).is_identity()
        assert not OperationGroup((Identity(), Insert("x", 0))).is_identity()

    def test_primitive_count(self):
        group = OperationGroup((Delete(1, 0), Identity(), Insert("a", 0)))
        assert group.primitive_count() == 2

    def test_iteration(self):
        members = (Delete(1, 0), Insert("a", 0))
        assert tuple(OperationGroup(members)) == members

    def test_nested_groups_apply(self):
        inner = OperationGroup((Insert("x", 0),))
        outer = OperationGroup((inner, Insert("y", 0)))
        assert outer.apply("z") == "yxz"


class TestHelpers:
    def test_apply_operation_dispatches(self):
        assert apply_operation("abc", Insert("x", 1)) == "axbc"

    def test_flatten_drops_identities(self):
        group = OperationGroup((Identity(), Insert("a", 0), OperationGroup((Delete(1, 0),))))
        assert flatten(group) == [Insert("a", 0), Delete(1, 0)]

    def test_simplify_empty_group_to_identity(self):
        assert simplify(OperationGroup((Identity(),))) == Identity()

    def test_simplify_singleton_group_to_member(self):
        assert simplify(OperationGroup((Insert("a", 1),))) == Insert("a", 1)

    def test_simplify_keeps_multi_member_group(self):
        group = simplify(OperationGroup((Delete(1, 0), Delete(1, 5))))
        assert isinstance(group, OperationGroup)
        assert len(group.members) == 2
