"""Unit tests for positional operations (repro.ot.operations)."""

import pytest

from repro.ot.operations import (
    Delete,
    Identity,
    Insert,
    OperationError,
    OperationGroup,
    compose,
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


class TestOperationGroup:
    def test_sequential_application(self):
        group = OperationGroup((Delete(2, 1), Delete(2, 3)))
        # "abcdefg" -> delete "bc" -> "adefg" -> delete "fg" -> "ade"
        assert group.apply("abcdefg") == "ade"

    def test_group_identity_detection(self):
        assert OperationGroup((Identity(), Insert("", 0))).is_identity()
        assert not OperationGroup((Identity(), Insert("x", 0))).is_identity()

    def test_nested_groups_apply(self):
        inner = OperationGroup((Insert("x", 0),))
        outer = OperationGroup((inner, Insert("y", 0)))
        assert outer.apply("z") == "yxz"


class TestCompose:
    def test_an_insert_inside_or_at_either_end_of_the_last_joins_it(self):
        assert compose(Insert("ab", 1), Insert("X", 2)) == Insert("aXb", 1)
        assert compose(Insert("ab", 1), Insert("X", 1)) == Insert("Xab", 1)
        assert compose(Insert("ab", 1), Insert("X", 3)) == Insert("abX", 1)

    def test_an_insert_elsewhere_stays_a_member(self):
        assert compose(Insert("ab", 1), Insert("X", 4)) == OperationGroup(
            (Insert("ab", 1), Insert("X", 4)))

    def test_a_delete_covering_the_last_ones_position_joins_it(self):
        # "abcdef": drop "cd" -> "abef", then "bef" -> "a"
        assert compose(Delete(2, 2), Delete(3, 1)) == Delete(5, 1)
        assert compose(Delete(2, 2), Delete(1, 2)) == Delete(3, 2)
        assert compose(Delete(2, 2), Delete(1, 1)) == Delete(3, 1)

    def test_a_delete_elsewhere_stays_a_member(self):
        assert compose(Delete(1, 0), Delete(1, 3)) == OperationGroup(
            (Delete(1, 0), Delete(1, 3)))

    def test_identities_vanish_and_groups_flatten(self):
        assert compose(Identity(), Insert("", 2)) == Identity()
        assert compose(Delete(0, 1), Insert("x", 0)) == Insert("x", 0)
        burst = compose(OperationGroup((Insert("a", 0), Delete(1, 3))), Insert("b", 1))
        assert burst == OperationGroup((Insert("a", 0), Delete(1, 3), Insert("b", 1)))
        assert burst.apply("wxyz") == "abwxz"


class TestHelpers:
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
