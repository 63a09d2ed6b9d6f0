"""Unit tests for full vector clocks (repro.clocks.vector)."""

import numpy as np
import pytest

from repro.clocks.vector import (
    Ordering,
    VectorClock,
    bulk_concurrent,
    compare,
    concurrent,
    happened_before,
)


class TestConstruction:
    def test_zero(self):
        assert VectorClock.zero(3).counts == (0, 0, 0)

    def test_zero_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            VectorClock.zero(0)

    def test_of_rejects_negative(self):
        with pytest.raises(ValueError):
            VectorClock.of([1, -1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            VectorClock(())

    def test_len_and_getitem(self):
        vc = VectorClock.of([1, 2, 3])
        assert len(vc) == 3
        assert vc[1] == 2


class TestTickMerge:
    def test_tick_increments_one_component(self):
        vc = VectorClock.zero(3).tick(1)
        assert vc.counts == (0, 1, 0)

    def test_tick_is_pure(self):
        vc = VectorClock.zero(2)
        vc.tick(0)
        assert vc.counts == (0, 0)

    def test_tick_out_of_range(self):
        with pytest.raises(IndexError):
            VectorClock.zero(2).tick(5)

    def test_merge_is_componentwise_max(self):
        a = VectorClock.of([3, 0, 2])
        b = VectorClock.of([1, 4, 2])
        assert a.merge(b).counts == (3, 4, 2)

    def test_merge_size_mismatch(self):
        with pytest.raises(ValueError):
            VectorClock.zero(2).merge(VectorClock.zero(3))

    def test_sum(self):
        assert VectorClock.of([1, 2, 3]).sum() == 6

    def test_dominates(self):
        assert VectorClock.of([2, 2]).dominates(VectorClock.of([1, 2]))
        assert not VectorClock.of([2, 1]).dominates(VectorClock.of([1, 2]))

    def test_size_bytes(self):
        assert VectorClock.zero(7).size_bytes() == 28


class TestCompare:
    def test_equal(self):
        a = VectorClock.of([1, 2])
        assert compare(a, VectorClock.of([1, 2])) is Ordering.EQUAL

    def test_before_after(self):
        a = VectorClock.of([1, 2])
        b = VectorClock.of([2, 2])
        assert compare(a, b) is Ordering.BEFORE
        assert compare(b, a) is Ordering.AFTER
        assert happened_before(a, b)
        assert not happened_before(b, a)

    def test_concurrent(self):
        a = VectorClock.of([2, 0])
        b = VectorClock.of([0, 2])
        assert compare(a, b) is Ordering.CONCURRENT
        assert concurrent(a, b)

    def test_causal_chain_transitivity(self):
        a = VectorClock.of([1, 0, 0])
        b = VectorClock.of([1, 1, 0])
        c = VectorClock.of([1, 1, 1])
        assert happened_before(a, b) and happened_before(b, c) and happened_before(a, c)


class TestBulkConcurrent:
    def test_matches_scalar_implementation(self):
        rng = np.random.default_rng(7)
        a = [VectorClock.of(rng.integers(0, 5, size=4)) for _ in range(50)]
        b = [VectorClock.of(rng.integers(0, 5, size=4)) for _ in range(50)]
        bulk = bulk_concurrent(a, b)
        scalar = np.array([concurrent(x, y) for x, y in zip(a, b)])
        assert (bulk == scalar).all()

    def test_empty_input(self):
        assert bulk_concurrent([], []).shape == (0,)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bulk_concurrent([VectorClock.zero(2)], [])
