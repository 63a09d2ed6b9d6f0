"""The paper's Section 6 generalisation: CVC over other replicated types.

"The basic ideas and techniques in this scheme are potentially
applicable to other distributed systems which support concurrent updates
on replicated data objects, such as replicated database systems,
replicated file systems, etc."  The star editor is generic over
:class:`repro.ot.types.OTType`; these tests run full sessions over
counters with the oracle enabled, exercising exactly the same
timestamping and concurrency machinery as text.
"""

import random

from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.ot.types import CounterOp
from repro.ot.operations import Delete, Insert, compose


def uniform_latencies(seed):
    def factory(src, dst):
        return UniformLatency(0.05, 0.8, random.Random(seed * 13 + src * 5 + dst))

    return factory


class TestCounterSessions:
    def test_concurrent_increments_all_apply(self):
        session = StarSession(3, ot_type_name="counter", verify_with_oracle=True)
        session.generate_at(1, CounterOp(5), at=1.0)
        session.generate_at(2, CounterOp(-2), at=1.0)
        session.generate_at(3, CounterOp(10), at=1.0)
        session.run()
        assert session.converged()
        assert session.notifier.document == 13

    def test_many_random_increments(self):
        rng = random.Random(0)
        session = StarSession(
            4, ot_type_name="counter", verify_with_oracle=True,
            latency_factory=uniform_latencies(3),
        )
        total = 0
        for i in range(40):
            delta = rng.randint(-5, 5)
            total += delta
            session.generate_at(1 + i % 4, CounterOp(delta), at=1.0 + i * 0.1)
        session.run()
        assert session.converged()
        assert session.notifier.document == total


class TestComposedTextSessions:
    """Positional operations composed on one site travel as one operation."""

    def test_composed_ops_through_star(self):
        session = StarSession(2, initial_state="ABCDE", verify_with_oracle=True)
        o1 = compose(Insert("1", 1), Insert("2", 2))  # the paper's O_1, typed
        session.generate_at(1, o1, at=1.0)
        session.generate_at(2, Delete(3, 2), at=1.0)
        session.run()
        assert session.converged()
        assert session.notifier.document == "A12B"

    def test_burst_vs_concurrent_edit(self):
        """A client may compose a burst locally before propagating."""
        session = StarSession(2, initial_state="hello", verify_with_oracle=True)
        burst = compose(Insert(" wor", 5), Insert("ld", 9))
        assert burst == Insert(" world", 5)
        session.generate_at(1, burst, at=1.0)
        session.generate_at(2, compose(Delete(1, 0), Insert("H", 0)), at=1.0)
        session.run()
        assert session.converged()
        assert session.notifier.document == "Hello world"
