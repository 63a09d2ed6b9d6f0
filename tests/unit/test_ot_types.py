"""Unit tests for the OT types (repro.ot.types)."""

import pytest

from repro.ot.types import CounterOp, CounterType, PositionalTextType, get_type
from repro.ot.operations import Delete, Insert, OperationGroup, compose


def assert_tp1(ot, state, a, b, a_priority=True):
    a2, b2 = ot.transform(a, b, a_priority)
    left = ot.apply(ot.apply(state, a), b2)
    right = ot.apply(ot.apply(state, b), a2)
    assert left == right, f"TP1 violated for {ot.name}: {left!r} != {right!r}"
    return left


class TestRegistry:
    def test_builtin_types_registered(self):
        for name in ("text-positional", "counter"):
            assert get_type(name).name == name

    def test_unknown_type_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            get_type("no-such-type")


class TestPositionalTextType:
    def test_initial_empty(self):
        assert PositionalTextType().initial() == ""

    def test_apply(self):
        ot = PositionalTextType()
        assert ot.apply("ABCDE", Insert("12", 1)) == "A12BCDE"

    def test_tp1(self):
        ot = PositionalTextType()
        assert_tp1(ot, "ABCDE", Insert("12", 1), Delete(3, 2))


class TestInvertSupport:
    def test_positional_insert_inverts_to_delete(self):
        ot = PositionalTextType()
        assert ot.invert("abc", Insert("XY", 1)) == Delete(2, 1)

    def test_positional_delete_inverts_to_reinsert(self):
        ot = PositionalTextType()
        assert ot.invert("ABCDE", Delete(3, 2)) == Insert("CDE", 2)

    def test_positional_group_inverts_reversed(self):
        ot = PositionalTextType()
        group = OperationGroup((Delete(2, 1), Delete(2, 3)))
        doc = "abcdefg"
        inverse = ot.invert(doc, group)
        assert inverse.apply(group.apply(doc)) == doc

    def test_composed_replace_inverts(self):
        ot = PositionalTextType()
        op = compose(Delete(2, 1), Insert("Z", 1))
        doc = "abcd"
        assert op.apply(doc) == "aZd"
        inverse = ot.invert(doc, op)
        assert inverse.apply(op.apply(doc)) == doc


class TestCounterType:
    def test_commutative(self):
        ot = CounterType()
        assert assert_tp1(ot, 0, CounterOp(3), CounterOp(-1)) == 2

    def test_transform_is_identity(self):
        ot = CounterType()
        a, b = CounterOp(1), CounterOp(2)
        assert ot.transform(a, b, True) == (a, b)
