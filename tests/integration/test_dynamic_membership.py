"""Dynamic membership: late joiners in the star session.

The paper's demonstrator "allows an arbitrary number of users to
participate a collaborative editing session"; these tests exercise the
join protocol: the notifier grows ``SV_0`` by one entry, ships a state
snapshot whose ``base_count`` seeds the joiner's ``SV_i[1]``, and all
compressed-timestamp arithmetic stays exact across the membership
change.
"""

import random

import pytest

from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.ot.operations import Delete, Insert
from repro.session import ConsistencyError
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_star_session,
    random_positional_op,
)


def uniform_latencies(seed):
    def factory(src, dst):
        return UniformLatency(0.05, 1.0, random.Random(seed * 7 + src * 3 + dst))

    return factory


class TestJoinProtocol:
    def test_snapshot_seeds_clock_and_document(self):
        session = StarSession(2, initial_state="ABCDE", record_events=False)
        session.generate_at(1, Insert("12", 1), at=1.0)
        session.generate_at(2, Delete(3, 2), at=1.0)
        new_site = session.add_client(at=5.0)
        assert new_site == 3
        session.run(until=6.0)
        joiner = session.client(new_site)
        assert joiner.active
        assert joiner.document == "A12B"
        # SV seeded with the two snapshot-covered operations
        assert joiner.sv.as_paper_list() == [2, 0]
        assert session.notifier.sv.as_paper_list() == [1, 1, 0]

    def test_joiner_cannot_edit_before_snapshot(self):
        session = StarSession(1, record_events=False)
        new_site = session.add_client(at=5.0)
        joiner = session.client(new_site)
        with pytest.raises(RuntimeError, match="snapshot"):
            joiner.generate(Insert("x", 0))

    def test_double_snapshot_rejected(self):
        from repro.editor.messages import SnapshotMessage
        from repro.net.transport import Envelope

        session = StarSession(1, record_events=False)
        new_site = session.add_client(at=1.0)
        session.run(until=2.0)
        joiner = session.client(new_site)
        with pytest.raises(ConsistencyError, match="second snapshot"):
            joiner.on_message(
                Envelope(source=0, dest=new_site, payload=SnapshotMessage("x", 0))
            )

    def test_join_requires_no_event_log(self):
        session = StarSession(2)  # record_events defaults True
        with pytest.raises(ValueError, match="record_events"):
            session.add_client(at=1.0)

    def test_notifier_rejects_wrong_site_id(self):
        from repro.editor.star_client import StarClient

        session = StarSession(2, record_events=False)
        rogue = StarClient(session.sim, 9, record_checks=False, joining=True)
        with pytest.raises(ValueError, match="next site id"):
            session.notifier.admit_client(rogue)


class TestJoinerParticipation:
    def test_joiner_edits_concurrently_with_founders(self):
        session = StarSession(2, initial_state="ABCDE", record_events=False)
        session.generate_at(1, Insert("12", 1), at=1.0)
        session.generate_at(2, Delete(3, 2), at=1.0)
        new_site = session.add_client(at=5.0)
        session.run(until=6.0)
        session.generate_at(new_site, Insert("!", 0), at=7.0)
        session.generate_at(1, Insert("?", 4), at=7.0)  # concurrent
        session.run()
        assert session.converged()
        assert session.notifier.document == "!A12B?"

    def test_join_while_operations_in_flight(self):
        """Joins races against broadcasts: FIFO keeps the snapshot first."""
        for seed in range(5):
            config = RandomSessionConfig(n_sites=3, ops_per_site=5, seed=seed)
            session = StarSession(
                3,
                initial_state=config.initial_document,
                record_events=False,
                latency_factory=uniform_latencies(seed),
            )
            drive_star_session(session, config)
            j1 = session.add_client(at=1.5)
            j2 = session.add_client(at=2.5)
            for k, site in enumerate((j1, j2, j1)):
                client = session.client(site)

                def gen(client=client, sub=seed * 77 + k):
                    rng = random.Random(sub)
                    client.generate(random_positional_op(rng, client.document, config))

                session.sim.schedule(4.0 + k * 0.5, gen)
            session.run()
            assert session.quiescent()
            assert session.converged(), (seed, session.documents())

    def test_timestamps_stay_constant_after_join(self):
        session = StarSession(2, initial_state="ab", record_events=False)
        session.generate_at(1, Insert("x", 0), at=1.0)
        new_site = session.add_client(at=2.0)
        session.run(until=3.0)
        session.generate_at(new_site, Insert("y", 0), at=4.0)
        session.run()
        stats = session.wire_stats()
        # every op message still carries exactly 8 timestamp bytes
        op_messages = [
            ch.stats.messages for ch in session.topology.channels.values()
        ]
        assert stats.timestamp_bytes == 8 * (stats.messages - 1)  # -1 snapshot
        assert session.converged()

    def test_growing_notifier_vector(self):
        session = StarSession(1, record_events=False)
        assert session.notifier.clock_storage_ints() == 1
        session.add_client(at=1.0)
        session.add_client(at=2.0)
        session.run(until=3.0)
        assert session.notifier.clock_storage_ints() == 3
        # clients keep the constant 2 regardless
        assert all(c.clock_storage_ints() == 2 for c in session.clients)
