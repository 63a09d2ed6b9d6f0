"""Integration tests for the fully-distributed mesh baseline."""

import random

import pytest

from repro.analysis.consistency import check_divergence
from repro.editor.mesh import MeshOp, MeshSession, got_transform
from repro.net.channel import UniformLatency
from repro.ot.operations import Delete, Insert
from repro.workloads.random_session import RandomSessionConfig, drive_mesh_session


def uniform_latencies(seed):
    def factory(src, dst):
        return UniformLatency(0.01, 1.2, random.Random(seed * 17 + src * 3 + dst))

    return factory


class TestBasicMesh:
    def test_paper_pair_converges_with_intention(self):
        session = MeshSession(2, initial_document="ABCDE")
        session.generate_at(0, Insert("12", 1), at=1.0)
        session.generate_at(1, Delete(3, 2), at=1.0)
        session.run()
        assert session.converged()
        assert session.documents()[0] == "A12B"

    def test_sequential_edits(self):
        session = MeshSession(3, initial_document="")
        session.generate_at(0, Insert("abc", 0), at=1.0)
        session.generate_at(1, Insert("XY", 1), at=10.0)
        session.generate_at(2, Delete(1, 0), at=20.0)
        session.run()
        assert session.converged()
        assert session.documents()[0] == "XYbc"

    def test_needs_two_sites(self):
        with pytest.raises(ValueError):
            MeshSession(1)


class TestCausalDelivery:
    def test_out_of_order_messages_held_back(self):
        """An op that causally depends on an undelivered op must wait."""
        session = MeshSession(3, initial_document="base")

        # site 0 edits; site 1 sees it and edits on top; site 2 has a slow
        # channel from site 0, so site 1's op may arrive at site 2 first.
        def slow_from_0(src, dst):
            if src == 0 and dst == 2:
                return UniformLatency(5.0, 5.1, random.Random(1))
            return UniformLatency(0.1, 0.2, random.Random(src * 3 + dst))

        session = MeshSession(3, initial_document="base", latency_factory=slow_from_0)
        session.generate_at(0, Insert("!", 4), at=1.0)
        session.generate_at(1, Insert("?", 5), at=3.0)  # after seeing "!"
        session.run()
        assert session.quiescent()
        assert session.converged()
        assert session.documents()[0] == "base!?"

    def test_vector_clocks_on_wire_are_full_size(self):
        session = MeshSession(4, initial_document="x")
        session.generate_at(0, Insert("a", 0), at=1.0)
        session.run()
        stats = session.wire_stats()
        assert stats.messages == 3
        assert stats.timestamp_bytes == 3 * 16  # N=4 -> 16 bytes each


class TestMeshConvergence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_sessions_converge(self, seed):
        config = RandomSessionConfig(n_sites=3, ops_per_site=5, seed=seed)
        session = MeshSession(3, initial_document=config.initial_document,
                              latency_factory=uniform_latencies(seed))
        drive_mesh_session(session, config)
        session.run()
        assert session.quiescent()
        report = check_divergence(session.documents())
        assert not report.diverged, report.summary()

    def test_four_sites(self):
        config = RandomSessionConfig(n_sites=4, ops_per_site=4, seed=13)
        session = MeshSession(4, initial_document=config.initial_document,
                              latency_factory=uniform_latencies(13))
        drive_mesh_session(session, config)
        session.run()
        assert session.converged()

    def test_all_sites_deliver_everything(self):
        config = RandomSessionConfig(n_sites=3, ops_per_site=4, seed=2)
        session = MeshSession(3, initial_document=config.initial_document,
                              latency_factory=uniform_latencies(2))
        drive_mesh_session(session, config)
        session.run()
        for site in session.sites:
            assert len(site.log) == 12


class TestGOTTransform:
    def test_no_concurrent_prefix_returns_original(self):
        from repro.clocks.vector import VectorClock

        a = MeshOp(Insert("x", 0), VectorClock.of([1, 0]), 0, 1)
        b = MeshOp(Insert("y", 5), VectorClock.of([1, 1]), 1, 1)  # saw a
        assert got_transform(b, [a], [a.op]) == b.op

    def test_fully_concurrent_prefix_inclusion_transforms(self):
        from repro.clocks.vector import VectorClock

        a = MeshOp(Insert("x", 0), VectorClock.of([1, 0]), 0, 1)
        b = MeshOp(Insert("y", 3), VectorClock.of([0, 1]), 1, 1)
        transformed = got_transform(b, [a], [a.op])
        assert transformed == Insert("y", 4)

    def test_mixed_case_excludes_then_includes(self):
        """c depends on b but not on a; a sits before b in the order."""
        from repro.clocks.vector import VectorClock

        doc = "0123456789"
        a = MeshOp(Insert("A", 0), VectorClock.of([1, 0, 0]), 0, 1)
        b = MeshOp(Delete(2, 4), VectorClock.of([0, 1, 0]), 1, 1)
        # c generated at site 2 having seen b only (doc "01236789")
        c = MeshOp(Insert("C", 4), VectorClock.of([0, 1, 1]), 2, 1)
        b_form = got_transform(b, [a], [a.op])  # b after a: Delete(2, 5)
        c_form = got_transform(c, [a, b], [a.op, b_form])
        # replay: doc -> a -> "A0123456789" -> b_form -> "A01236789"
        replay = b_form.apply(a.op.apply(doc))
        assert c_form.apply(replay) == "A0123C6789"
