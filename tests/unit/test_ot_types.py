"""Unit tests for the generic OT type registry (repro.ot.types)."""

import pytest

from repro.ot.types import (
    CounterOp,
    CounterType,
    ListOp,
    ListType,
    LWWRegisterType,
    PositionalTextType,
    RegisterOp,
    get_type,
    register_type,
)
from repro.ot.operations import Delete, Insert


def assert_tp1(ot, state, a, b, a_priority=True):
    a2, b2 = ot.transform(a, b, a_priority)
    left = ot.apply(ot.apply(state, a), b2)
    right = ot.apply(ot.apply(state, b), a2)
    assert left == right, f"TP1 violated for {ot.name}: {left!r} != {right!r}"
    return left


class TestRegistry:
    def test_builtin_types_registered(self):
        for name in ("text-positional", "list", "counter", "lww-register", "rich-text"):
            assert get_type(name).name == name

    def test_unknown_type_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            get_type("no-such-type")

    def test_register_requires_name(self):
        with pytest.raises(TypeError):
            register_type(object())

    def test_reregistration_replaces(self):
        t = CounterType()
        register_type(t)
        assert get_type("counter") is t


class TestPositionalTextType:
    def test_initial_empty(self):
        assert PositionalTextType().initial() == ""

    def test_apply(self):
        ot = PositionalTextType()
        assert ot.apply("ABCDE", Insert("12", 1)) == "A12BCDE"

    def test_tp1(self):
        ot = PositionalTextType()
        assert_tp1(ot, "ABCDE", Insert("12", 1), Delete(3, 2))


class TestListType:
    def test_apply_insert_delete(self):
        ot = ListType()
        state = ot.apply(ot.initial(), ListOp("ins", 0, "a"))
        state = ot.apply(state, ListOp("ins", 1, "b"))
        assert state == ("a", "b")
        assert ot.apply(state, ListOp("del", 0)) == ("b",)

    def test_out_of_range_rejected(self):
        ot = ListType()
        with pytest.raises(ValueError):
            ot.apply((), ListOp("del", 0))
        with pytest.raises(ValueError):
            ot.apply((), ListOp("ins", 1, "x"))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ListOp("upsert", 0)

    def test_tp1_insert_insert_tie(self):
        ot = ListType()
        state = ("x", "y")
        assert_tp1(ot, state, ListOp("ins", 1, "a"), ListOp("ins", 1, "b"))

    def test_tp1_delete_same_element(self):
        ot = ListType()
        state = ("x", "y", "z")
        result = assert_tp1(ot, state, ListOp("del", 1), ListOp("del", 1))
        assert result == ("x", "z")

    def test_tp1_insert_vs_delete(self):
        ot = ListType()
        state = ("x", "y")
        assert_tp1(ot, state, ListOp("ins", 0, "a"), ListOp("del", 0))

    def test_tp1_exhaustive_small(self):
        ot = ListType()
        state = ("p", "q", "r")
        ops = [ListOp("ins", i, f"v{i}") for i in range(4)] + [
            ListOp("del", i) for i in range(3)
        ]
        for a in ops:
            for b in ops:
                assert_tp1(ot, state, a, b, a_priority=True)
                assert_tp1(ot, state, a, b, a_priority=False)


class TestCounterType:
    def test_commutative(self):
        ot = CounterType()
        assert assert_tp1(ot, 0, CounterOp(3), CounterOp(-1)) == 2

    def test_transform_is_identity(self):
        ot = CounterType()
        a, b = CounterOp(1), CounterOp(2)
        assert ot.transform(a, b, True) == (a, b)


class TestLWWRegisterType:
    def test_priority_side_wins_both_orders(self):
        ot = LWWRegisterType()
        a, b = RegisterOp("from-a"), RegisterOp("from-b")
        result = assert_tp1(ot, None, a, b, a_priority=True)
        assert result == "from-a"
        result = assert_tp1(ot, None, a, b, a_priority=False)
        assert result == "from-b"
