"""The DIM harness: the Charron-Bost dimension bound, executably."""

import pytest

from repro.clocks.dimension import (
    crown_execution,
    min_faithful_projection_size,
    projection_is_faithful,
)
from repro.clocks.vector import VectorClock


class TestDimensionBound:
    def test_crown_shape(self):
        clocks, sites = crown_execution(3)
        assert set(clocks) == {"s0", "s1", "s2", "r0", "r1", "r2"}
        # sends pairwise concurrent, receives dominate all other sends
        from repro.clocks.vector import concurrent

        assert concurrent(clocks["s0"], clocks["s1"])
        assert clocks["r0"].dominates(clocks["s1"])
        assert clocks["r0"].dominates(clocks["s2"])
        assert sites["r2"] == 2

    def test_crown_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            crown_execution(1)

    def test_full_projection_always_faithful(self):
        clocks, _ = crown_execution(4)
        assert projection_is_faithful(clocks, (0, 1, 2, 3))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_crown_needs_all_n_coordinates(self, n):
        """Charron-Bost: no strict subset of coordinates decides the
        crown's causality -- the lower bound the paper cites."""
        clocks, _ = crown_execution(n)
        assert min_faithful_projection_size(clocks) == n

    def test_dropping_any_coordinate_breaks_the_crown(self):
        clocks, _ = crown_execution(4)
        for dropped in range(4):
            coords = tuple(c for c in range(4) if c != dropped)
            assert not projection_is_faithful(clocks, coords)

    def test_star_session_is_two_dimensional(self):
        """The paper's escape: after redefinition at the notifier, the
        events a CLIENT compares live in a 2-D structure.  Model site
        i's view: one stream from the notifier, one local stream --
        the crown structure never arises, and 2 coordinates suffice."""
        # events: c1..c3 local ops at site 1 (coord 1); n1..n3 notifier
        # stream ops (coord 0); interleaved knowledge
        clocks = {
            "n1": VectorClock.of([1, 0]),
            "n2": VectorClock.of([2, 1]),  # notifier had seen c1
            "n3": VectorClock.of([3, 2]),
            "c1": VectorClock.of([0, 1]),
            "c2": VectorClock.of([1, 2]),  # client had seen n1
            "c3": VectorClock.of([3, 3]),
        }
        assert projection_is_faithful(clocks, (0, 1))
        assert min_faithful_projection_size(clocks) == 2
