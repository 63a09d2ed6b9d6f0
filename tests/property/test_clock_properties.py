"""Property tests for the clock substrate (vector clocks, SK, FZ)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.fz import FZProcess, reconstruct_vector_times
from repro.clocks.sk import SKProcess
from repro.clocks.vector import Ordering, VectorClock, compare

clock_entries = st.lists(st.integers(0, 20), min_size=1, max_size=8)


def clocks_same_size(n):
    return st.lists(st.integers(0, 20), min_size=n, max_size=n).map(VectorClock.of)


@st.composite
def clock_pair(draw):
    n = draw(st.integers(1, 8))
    return draw(clocks_same_size(n)), draw(clocks_same_size(n))


@st.composite
def clock_triple(draw):
    n = draw(st.integers(1, 6))
    gen = clocks_same_size(n)
    return draw(gen), draw(gen), draw(gen)


class TestVectorClockAlgebra:
    @given(clock_pair())
    def test_compare_antisymmetric(self, pair):
        a, b = pair
        fwd, back = compare(a, b), compare(b, a)
        opposite = {
            Ordering.BEFORE: Ordering.AFTER,
            Ordering.AFTER: Ordering.BEFORE,
            Ordering.CONCURRENT: Ordering.CONCURRENT,
            Ordering.EQUAL: Ordering.EQUAL,
        }
        assert back is opposite[fwd]

    @given(clock_pair())
    def test_merge_commutative_and_dominating(self, pair):
        a, b = pair
        merged = a.merge(b)
        assert merged == b.merge(a)
        assert merged.dominates(a) and merged.dominates(b)

    @given(clock_triple())
    def test_merge_associative(self, triple):
        a, b, c = triple
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(clock_triple())
    def test_happened_before_transitive(self, triple):
        a, b, c = triple
        if compare(a, b) is Ordering.BEFORE and compare(b, c) is Ordering.BEFORE:
            assert compare(a, c) is Ordering.BEFORE

    @given(clock_pair(), st.integers(0, 7))
    def test_tick_breaks_domination(self, pair, idx):
        a, _ = pair
        idx = idx % len(a)
        ticked = a.tick(idx)
        assert compare(a, ticked) is Ordering.BEFORE


@st.composite
def message_trace(draw):
    """A random (sender, dest) trace over n processes."""
    n = draw(st.integers(2, 6))
    length = draw(st.integers(0, 60))
    trace = []
    for _ in range(length):
        sender = draw(st.integers(0, n - 1))
        dest = draw(st.integers(0, n - 2))
        if dest >= sender:
            dest += 1
        trace.append((sender, dest))
    return n, trace


class TestSKEquivalence:
    @given(message_trace())
    @settings(max_examples=100, deadline=None)
    def test_sk_reconstructs_full_vectors(self, case):
        """After any FIFO trace, every SK process holds exactly the
        vector the textbook full-vector protocol would hold."""
        n, trace = case
        sk = [SKProcess(pid, n) for pid in range(n)]
        full = [VectorClock.zero(n) for _ in range(n)]
        for sender, dest in trace:
            message = sk[sender].prepare_send(dest)
            full[sender] = full[sender].tick(sender)
            sk[dest].receive(message)
            full[dest] = full[dest].merge(full[sender]).tick(dest)
        for pid in range(n):
            assert sk[pid].vector() == full[pid]

    @given(message_trace())
    @settings(max_examples=60, deadline=None)
    def test_sk_never_sends_more_than_n_entries(self, case):
        n, trace = case
        sk = [SKProcess(pid, n) for pid in range(n)]
        for sender, dest in trace:
            message = sk[sender].prepare_send(dest)
            assert len(message.entries) <= n
            sk[dest].receive(message)


class TestFZEquivalence:
    @given(message_trace())
    @settings(max_examples=60, deadline=None)
    def test_fz_offline_reconstruction_matches_full_vectors(self, case):
        n, trace = case
        fz = [FZProcess(pid, n) for pid in range(n)]
        full = [VectorClock.zero(n) for _ in range(n)]
        expected = {}
        for sender, dest in trace:
            message, record = fz[sender].prepare_send()
            full[sender] = full[sender].tick(sender)
            expected[(sender, record.index)] = full[sender]
            rec2 = fz[dest].receive(message)
            full[dest] = full[dest].merge(full[sender]).tick(dest)
            expected[(dest, rec2.index)] = full[dest]
        assert reconstruct_vector_times(fz) == expected
