"""Integration tests for the star editor on non-scripted workloads."""

import dataclasses
import random

import pytest

from repro.core.timestamp import OriginKind
from repro.editor import messages
from repro.editor.star import StarSession
from repro.net import codec
from repro.net.channel import FixedLatency, JitterLatency, UniformLatency
from repro.net.transport import Envelope
from repro.net.wire import encode_envelope
from repro.ot.operations import Delete, Insert, OperationError
from repro.session import ConsistencyError
from repro.workloads.random_session import RandomSessionConfig, drive_star_session
from repro.workloads.typing_model import TypingBurstConfig
from repro.workloads.typing_model import drive_typing_session


def uniform_latencies(seed):
    def factory(src, dst):
        return UniformLatency(0.01, 1.5, random.Random(seed * 31 + src * 7 + dst))

    return factory


class TestBasicSessions:
    def test_single_client_echo_free(self):
        """With one client the notifier must not echo ops back."""
        session = StarSession(n_sites=1, initial_state="abc")
        session.generate_at(1, Insert("x", 0), at=1.0)
        session.run()
        assert session.converged()
        assert session.client(1).sv.as_paper_list() == [0, 1]
        assert session.notifier.sv.as_paper_list() == [1]

    def test_two_concurrent_inserts_ordered_by_site_priority(self):
        session = StarSession(n_sites=2, initial_state="ab")
        session.generate_at(1, Insert("X", 1), at=1.0)
        session.generate_at(2, Insert("Y", 1), at=1.0)
        session.run()
        assert session.converged()
        # site 1 has priority: its insert ends up first
        assert session.notifier.document == "aXYb"

    def test_sequential_edits_no_transformation_needed(self):
        session = StarSession(n_sites=2, initial_state="")
        session.generate_at(1, Insert("hello", 0), at=1.0)
        session.generate_at(2, Insert(" world", 5), at=10.0)  # after delivery
        session.run()
        assert session.converged()
        assert session.notifier.document == "hello world"

    def test_delete_vs_delete_overlap_converges(self):
        session = StarSession(n_sites=2, initial_state="abcdef")
        session.generate_at(1, Delete(3, 1), at=1.0)
        session.generate_at(2, Delete(3, 2), at=1.0)
        session.run()
        assert session.converged()
        assert session.notifier.document == "af"

    def test_generate_at_bad_site(self):
        session = StarSession(n_sites=2)
        with pytest.raises(IndexError):
            session.client(3)
        with pytest.raises(IndexError):
            session.client(0)


class TestRandomConvergence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_sessions_converge_with_oracle(self, seed):
        config = RandomSessionConfig(n_sites=4, ops_per_site=8, seed=seed)
        session = StarSession(
            4,
            initial_state=config.initial_document,
            latency_factory=uniform_latencies(seed),
            verify_with_oracle=True,
        )
        drive_star_session(session, config)
        session.run()
        assert session.quiescent()
        assert session.converged(), session.documents()

    def test_delete_heavy_workload(self):
        config = RandomSessionConfig(
            n_sites=3, ops_per_site=12, seed=5, insert_ratio=0.25
        )
        session = StarSession(
            3,
            initial_state=config.initial_document,
            latency_factory=uniform_latencies(5),
            verify_with_oracle=True,
        )
        drive_star_session(session, config)
        session.run()
        assert session.converged()

    def test_hotspot_contention(self):
        config = RandomSessionConfig(n_sites=4, ops_per_site=10, seed=2, hotspot=True)
        session = StarSession(
            4,
            initial_state=config.initial_document,
            latency_factory=uniform_latencies(2),
            verify_with_oracle=True,
        )
        drive_star_session(session, config)
        session.run()
        assert session.converged()

    def test_long_tailed_latency(self):
        config = RandomSessionConfig(n_sites=3, ops_per_site=8, seed=9)
        session = StarSession(
            3,
            initial_state=config.initial_document,
            latency_factory=lambda s, d: JitterLatency(0.2, 1.0, random.Random(s * 5 + d)),
            verify_with_oracle=True,
        )
        drive_star_session(session, config)
        session.run()
        assert session.converged()

    def test_typing_workload(self):
        config = TypingBurstConfig(n_sites=3, bursts_per_site=3, seed=1)
        session = StarSession(3, verify_with_oracle=True,
                              latency_factory=uniform_latencies(1))
        drive_typing_session(session, config)
        session.run()
        assert session.converged()
        total_typed = 3 * 3 * config.burst_length
        assert len(session.notifier.document) == total_typed

    def test_moderate_scale(self):
        config = RandomSessionConfig(n_sites=16, ops_per_site=6, seed=3)
        session = StarSession(16, initial_state=config.initial_document,
                              verify_with_oracle=True)
        drive_star_session(session, config)
        session.run()
        assert session.converged()
        # timestamp bytes stay constant regardless of N
        stats = session.wire_stats()
        assert stats.timestamp_bytes == 8 * stats.messages


class TestInvariants:
    def test_fifo_respected_everywhere(self):
        config = RandomSessionConfig(n_sites=5, ops_per_site=6, seed=11)
        session = StarSession(5, initial_state=config.initial_document,
                              latency_factory=uniform_latencies(11))
        drive_star_session(session, config)
        session.run()
        assert session.topology.fifo_respected()

    def test_notifier_storage_is_n_clients_storage_is_2(self):
        session = StarSession(7)
        assert session.notifier.clock_storage_ints() == 7
        assert all(c.clock_storage_ints() == 2 for c in session.clients)

    def test_message_counts(self):
        """Each op costs 1 upload + (N-1) broadcasts."""
        config = RandomSessionConfig(n_sites=4, ops_per_site=5, seed=0)
        session = StarSession(4, initial_state=config.initial_document)
        drive_star_session(session, config)
        session.run()
        total_ops = 4 * 5
        assert session.wire_stats().messages == total_ops * 4  # 1 + (4-1)

    def test_an_oracle_without_an_event_log_is_refused(self):
        """``verify_with_oracle`` compares every verdict with the event
        log's clocks: a role without a log would run the sweep and check
        nothing, so a role built directly that way is refused (a session
        with the oracle always builds the log)."""
        from repro.editor.star_client import StarClient
        from repro.editor.star_notifier import StarNotifier

        assert StarSession(3, verify_with_oracle=True).event_log is not None
        sim = StarSession(1).sim
        with pytest.raises(ValueError, match="event log"):
            StarClient(sim, 1, verify_with_oracle=True)
        with pytest.raises(ValueError, match="event log"):
            StarNotifier(sim, 1, verify_with_oracle=True)

    def test_stale_ack_raises_consistency_error(self):
        """A client claiming fewer acks than before trips the guard."""
        from repro.editor.messages import OpMessage
        from repro.net.transport import Envelope

        session = StarSession(n_sites=2, initial_state="ab")
        session.generate_at(1, Insert("x", 0), at=1.0)
        session.generate_at(2, Insert("y", 0), at=5.0)
        session.run()
        bad = OpMessage(
            op=Insert("z", 0),
            first=0, second=2,  # claims 0 received, but acked 1
            origin_site=2,
        )
        with pytest.raises(ConsistencyError):
            session.notifier.on_message(Envelope(source=2, dest=0, payload=bad))

    @pytest.mark.parametrize("record_checks", [False, True], ids=["fast", "diagnostic"])
    def test_over_acknowledgement_at_the_notifier_changes_nothing(self, record_checks):
        """A client claiming more broadcasts than were ever sent to it is
        refused loudly, before its queue or its horizon moves."""
        session = StarSession(n_sites=2, initial_state="ab",
                              record_checks=record_checks)
        session.generate_at(1, Insert("x", 0), at=1.0)
        session.run()
        notifier = session.notifier
        assert [p.op_id for p in notifier.sent_to[2]] == ["c1_1'"]

        def state():
            return ([p.op_id for p in notifier.sent_to[2]], dict(notifier.acked),
                    notifier.document, notifier.sv.as_paper_list(),
                    len(session.all_checks()))

        before = state()
        bad = messages.OpMessage(
            op=Insert("z", 0),
            first=5, second=1,  # claims 5 received, 1 sent
            origin_site=2,
        )
        with pytest.raises(ConsistencyError,
                           match="site 2 acknowledged 5 operations, but only 1"):
            notifier.on_message(Envelope(source=2, dest=0, payload=bad))
        assert state() == before

    @pytest.mark.parametrize("record_checks", [False, True], ids=["fast", "diagnostic"])
    def test_over_acknowledgement_at_a_client_changes_nothing(self, record_checks):
        """A broadcast acknowledging more local operations than the client
        generated is refused loudly: nothing leaves ``pending`` and the
        arrival is not executed untransformed."""
        # No event log: it would trip on the bogus arrival on its own.
        session = StarSession(n_sites=2, initial_state="abc",
                              record_checks=record_checks)
        client = session.client(1)
        client.generate(Insert("L", 3))

        def state():
            return ([e.op_id for e in client.pending], client.document,
                    client.sv.as_paper_list(), dict(client._received_per_origin),
                    len(session.all_checks()))

        before = state()
        assert before[:2] == (["c1_1"], "abcL")
        bad = messages.OpMessage(
            op=Insert("x", 0),
            first=1, second=5,  # acknowledges 5 of 1 generated
            origin_site=2,
        )
        with pytest.raises(ConsistencyError,
                           match="site 1: the notifier acknowledged 5 local "
                                 "operations, but only 1"):
            client.on_message(Envelope(source=0, dest=1, payload=bad))
        assert state() == before


def _every_replica(session):
    """What an arrival may move, everywhere: documents, state vectors,
    the notifier's queues and horizons, the clients' pending ops and
    per-origin counts, and the recorded checks."""
    notifier = session.notifier
    return (
        notifier.document, notifier.sv.as_paper_list(), dict(notifier.acked),
        {site: [p.op_id for p in queue] for site, queue in notifier.sent_to.items()},
        [(c.document, c.sv.as_paper_list(), [e.op_id for e in c.pending],
          dict(c._received_per_origin)) for c in session.clients],
        len(session.all_checks()),
    )


class TestSequenceRule:
    """On a FIFO star link the timestamp is a sequence number: a centre
    copy's ``T[1]`` is ``SV_i[1] + 1`` and its origin another client; a
    client op's ``T[2]`` is ``SV_0[source] + 1`` and its origin the link
    it came on.  Anything else is refused before any state moves."""

    @staticmethod
    def settled(record_checks):
        # No event log: it would trip on the bogus arrival on its own.
        session = StarSession(n_sites=2, initial_state="abc",
                              record_checks=record_checks)
        session.generate_at(1, Insert("x", 0), at=1.0)
        session.generate_at(2, Insert("y", 0), at=5.0)
        session.run()
        session.client(1).generate(Insert("L", 3))  # pending at client 1
        return session

    @pytest.mark.parametrize("record_checks", [False, True], ids=["fast", "diagnostic"])
    @pytest.mark.parametrize(("first", "origin", "refusal"), [
        (6, 2, "site 1: the notifier sent broadcast 6, but 2 was due"),
        (1, 2, "site 1: the notifier sent broadcast 1, but 2 was due"),
        (2, 1, "site 1: a broadcast from site 1, not another client site"),
        (2, 0, "site 1: a broadcast from site 0, not another client site"),
    ], ids=["skips-ahead", "repeats", "own-origin", "centre-origin"])
    def test_a_client_refuses_a_broadcast_out_of_sequence(
            self, record_checks, first, origin, refusal):
        session = self.settled(record_checks)
        client = session.client(1)
        assert client.sv.as_paper_list() == [1, 2]
        assert [e.op_id for e in client.pending] == ["c1_2"]
        before = _every_replica(session)
        bad = messages.OpMessage(Insert("z", 0), first, 1, origin)
        with pytest.raises(ConsistencyError, match=refusal):
            client.on_message(Envelope(source=0, dest=1, payload=bad))
        assert _every_replica(session) == before

    @pytest.mark.parametrize("record_checks", [False, True], ids=["fast", "diagnostic"])
    @pytest.mark.parametrize(("second", "origin", "refusal"), [
        (7, 1, "notifier: site 1 sent its operation 7, but 2 was due"),
        (1, 1, "notifier: site 1 sent its operation 1, but 2 was due"),
        (2, 2, "notifier: site 1 sent an operation of site 2"),
    ], ids=["skips-ahead", "repeats", "foreign-origin"])
    def test_the_notifier_refuses_an_operation_out_of_sequence(
            self, record_checks, second, origin, refusal):
        session = self.settled(record_checks)
        notifier = session.notifier
        assert notifier.sv.as_paper_list() == [1, 1]
        assert [p.op_id for p in notifier.sent_to[1]] == ["c2_1'"]
        before = _every_replica(session)
        # T[1] = 1 acknowledges c2_1': accepted, it would empty the queue.
        bad = messages.OpMessage(Insert("z", 0), 1, second, origin)
        with pytest.raises(ConsistencyError, match=refusal):
            notifier.on_message(Envelope(source=1, dest=0, payload=bad))
        assert _every_replica(session) == before

    def test_an_edit_in_sequence_that_does_not_apply_is_refused(self):
        """The rule checks ``T``, not the edit: past the end of the
        document, the OT layer's ``OperationError`` leaves the endpoint
        as its one refusal type, chained."""
        session = self.settled(record_checks=False)
        bad = messages.OpMessage(Insert("z", 999), 1, 2, 1)
        with pytest.raises(ConsistencyError,
                           match="site 0: refused a message from site 1") as excinfo:
            session.notifier.on_message(Envelope(source=1, dest=0, payload=bad))
        assert isinstance(excinfo.value.__cause__, OperationError)

    def test_joiners_keep_the_sequence(self):
        """Two joiners admitted at once: each snapshot restates both
        counts, so every later broadcast, to and from a joiner, is the
        next one."""
        session = StarSession(n_sites=2, initial_state="ab")
        first = session.add_client(at=1.0)
        second = session.add_client(at=1.0)
        session.run(until=2.0)
        session.generate_at(second, Insert("!", 0), at=3.0)
        session.generate_at(first, Insert("?", 2), at=3.0)
        session.generate_at(1, Insert("-", 1), at=3.0)
        session.run()
        assert session.converged()


class TestGarbageCollection:
    """A diagnostic session's history is pruned at the acknowledgement
    horizon by the arrivals themselves; these pin the end states the
    manual GC used to reach."""

    def test_client_gc_drops_acked_entries(self):
        config = RandomSessionConfig(n_sites=3, ops_per_site=6, seed=4)
        session = StarSession(3, initial_state=config.initial_document,
                              record_checks=True)
        drive_star_session(session, config)
        session.run()
        for client in session.clients:
            kept = client.hb.op_ids()
            assert 0 < len(kept) < len(client.executed_op_ids)
            assert kept == client.executed_op_ids[-len(kept):]
            # The last arrival left either the oldest unacknowledged local
            # operation at the head, or (nothing pending then) only itself;
            # local operations generated since queue up behind it.
            head = client.hb[0]
            if head.origin_kind is OriginKind.LOCAL:
                assert head is client.pending[0]
            else:
                assert list(client.hb)[1:] == list(client.pending)
            local = [e for e in client.hb if e.origin_kind is OriginKind.LOCAL]
            assert local == list(client.pending)

    def test_notifier_gc_drops_fully_acked_entries(self):
        session = StarSession(n_sites=2, initial_state="ab", record_checks=True)
        session.generate_at(1, Insert("x", 0), at=1.0)
        session.generate_at(1, Insert("y", 0), at=2.0)
        session.run()
        # client 2 has not sent anything, so its ack horizon is unknown;
        # the broadcasts to it are still pending and must be kept.
        assert session.notifier.hb.op_ids() == ["c1_1'", "c1_2'"]
        session.generate_at(2, Insert("z", 0), at=session.sim.now + 1.0)
        session.run()
        # now client 2 acknowledged both broadcasts; only its own
        # operation remains, pending for client 1's horizon.
        assert session.notifier.hb.op_ids() == ["c2_1'"]
        assert [p.op_id for p in session.notifier.sent_to[1]] == ["c2_1'"]

    def test_gc_preserves_correctness(self):
        """A session that forgets as it goes still converges, on the
        diagnosed path whose sweep sees only the retained window."""
        config = RandomSessionConfig(n_sites=3, ops_per_site=10, seed=8)
        session = StarSession(3, initial_state=config.initial_document,
                              latency_factory=uniform_latencies(8),
                              record_checks=True)
        drive_star_session(session, config)
        session.run()
        assert session.converged()
        assert max(len(e.hb) for e in session.endpoints()) < 30
        assert session.all_checks()

    def test_a_check_record_holds_four_references_and_no_container(self):
        """Every cluster process keeps one record per (arrival, retained
        entry) for its whole run: slots only, and no timestamp lists."""
        config = RandomSessionConfig(n_sites=3, ops_per_site=4, seed=8)
        session = StarSession(3, initial_state=config.initial_document,
                              latency_factory=uniform_latencies(8),
                              record_checks=True)
        drive_star_session(session, config)
        session.run()
        record = session.all_checks()[0]
        assert not hasattr(record, "__dict__")
        assert {field.name for field in dataclasses.fields(record)} == {
            "site", "new_op_id", "buffered_op_id", "verdict"}

    def test_oracle_session_retains_the_whole_history(self):
        """The oracle run is the proof obligation of the pruning: it
        checks every pair, so every endpoint keeps everything."""
        config = RandomSessionConfig(n_sites=3, ops_per_site=10, seed=8)
        session = StarSession(3, initial_state=config.initial_document,
                              latency_factory=uniform_latencies(8),
                              verify_with_oracle=True, record_checks=True)
        drive_star_session(session, config)
        while session.sim.run(max_events=7):
            for endpoint in session.endpoints():
                assert endpoint.hb.op_ids() == endpoint.executed_op_ids
        assert session.converged()
        assert len(session.notifier.hb) == 30
        # Every arrival swept everything executed before it.
        assert len(session.all_checks()) == sum(
            index
            for endpoint in session.endpoints()
            for index, entry in enumerate(endpoint.hb)
            if entry.origin_kind is not OriginKind.LOCAL
        )


class TestBroadcastOnce:
    """A broadcast costs one body plus N-1 timestamps (formulas 1-2).

    Counts, not timings: the always-on gate for "once per broadcast".
    """

    N_SITES = 6

    def run_session(self, monkeypatch):
        """A clean session; returns it, the messages the notifier put on
        the wire and the op messages whose body was actually measured."""
        config = RandomSessionConfig(n_sites=self.N_SITES, ops_per_site=5, seed=2)
        session = StarSession(
            self.N_SITES, initial_state=config.initial_document, record_checks=False
        )
        measured = []
        size_body = messages._op_body_bytes
        monkeypatch.setattr(
            messages, "_op_body_bytes",
            lambda message: measured.append(message) or size_body(message),
        )
        broadcast = []
        transport = session.notifier.transport
        wire_send = transport.wire_send

        def recording_send(dest, payload):
            broadcast.append((dest, payload))
            wire_send(dest, payload)

        transport.wire_send = recording_send
        drive_star_session(session, config)
        session.run()
        assert session.converged()
        return session, broadcast, measured

    def test_body_is_measured_once_per_broadcast(self, monkeypatch):
        session, broadcast, measured = self.run_session(monkeypatch)
        ops = len(session.notifier.executed_op_ids)
        assert ops == self.N_SITES * 5
        assert len(broadcast) == ops * (self.N_SITES - 1)
        # One measurement per client->notifier message, one per broadcast.
        from_notifier = [m for m in measured if m.shared is not None]
        assert len(from_notifier) == ops
        assert len(measured) == 2 * ops

    def test_siblings_encode_the_operation_once(self, monkeypatch):
        _, broadcast, _ = self.run_session(monkeypatch)
        siblings = {}
        for dest, message in broadcast:
            siblings.setdefault(message.shared, []).append(  # one per broadcast
                Envelope(0, dest, message)
            )
        encoded = []
        encode_operation = codec.encode_operation
        monkeypatch.setattr(
            codec, "encode_operation",
            lambda op: encoded.append(op) or encode_operation(op),
        )
        for envelopes in siblings.values():
            assert len(envelopes) == self.N_SITES - 1
            encoded.clear()
            frames = [encode_envelope(envelope) for envelope in envelopes]
            assert len(encoded) == 1
            for envelope, frame in zip(envelopes, frames):
                alone = dataclasses.replace(envelope.payload, shared=None)
                assert codec.encode_op_message(envelope.payload) == (
                    codec.encode_op_message(alone))
                assert frame == encode_envelope(dataclasses.replace(envelope, payload=alone))



class TestSharedPendingRecord:
    """One ``PendingOp`` serves a whole broadcast; an arrival that
    transforms it writes a new record into its own destination's queue
    only (copy on write), so each path stays its own (Jupiter bridge)."""

    def test_a_transform_replaces_the_record_in_its_own_queue_only(self):
        session = StarSession(4, initial_state="abc",
                              latency_factory=lambda src, dst: FixedLatency(0.05))
        notifier = session.notifier
        # Concurrent: neither site has seen the other's insert.
        session.generate_at(1, Insert("x", 2), at=1.0)
        session.generate_at(2, Insert("y", 0), at=1.0)
        session.sim.run(until=1.0)
        session.sim.step()  # site 1's op reaches the centre and is broadcast
        shared = notifier.sent_to[2][0]
        original = shared.op
        assert shared.op_id == "c1_1'" and original == Insert("x", 2)
        assert notifier.sent_to[3][0] is shared and notifier.sent_to[4][0] is shared
        session.sim.step()  # site 2's op, transformed against c1_1'
        own = notifier.sent_to[2][0]
        assert own is not shared
        assert (own.op, own.op_id, own.origin_site) == (Insert("x", 3), "c1_1'", 1)
        # Sites 3 and 4 still hold the original record, with its original op.
        assert notifier.sent_to[3][0] is shared and notifier.sent_to[4][0] is shared
        assert shared.op is original
        session.run()
        assert session.converged() and session.client(1).document == "yabxc"
