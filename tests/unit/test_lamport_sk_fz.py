"""Unit tests for Lamport clocks and the SK / FZ baseline techniques."""

import pytest

from repro.clocks.lamport import LamportClock
from repro.clocks.sk import SKMessage, SKProcess
from repro.clocks.fz import FZProcess, reconstruct_vector_times
from repro.clocks.vector import VectorClock


class TestLamport:
    def test_tick_monotone(self):
        clock = LamportClock()
        assert clock.tick() == 1
        assert clock.tick() == 2

    def test_receive_takes_max_plus_one(self):
        clock = LamportClock(time=3)
        assert clock.receive(10) == 11
        assert clock.receive(2) == 12

    def test_receive_rejects_negative(self):
        with pytest.raises(ValueError):
            LamportClock().receive(-1)

    def test_send_counts_as_event(self):
        clock = LamportClock()
        assert clock.send() == 1


class TestSKProcess:
    def test_first_message_carries_changed_entries_only(self):
        p = SKProcess(0, 4)
        message = p.prepare_send(1)
        # only p's own entry changed since the (virtual) last message
        assert message.entries == ((0, 1),)

    def test_unchanged_entries_skipped_on_repeat_sends(self):
        p = SKProcess(0, 4)
        p.prepare_send(1)
        message = p.prepare_send(1)
        assert message.entries == ((0, 2),)

    def test_receive_merges(self):
        a, b = SKProcess(0, 3), SKProcess(1, 3)
        b.receive(a.prepare_send(1))
        assert b.vc == [1, 1, 0]

    def test_transitive_entries_forwarded(self):
        a, b, c = SKProcess(0, 3), SKProcess(1, 3), SKProcess(2, 3)
        b.receive(a.prepare_send(1))
        message = b.prepare_send(2)
        c.receive(message)
        # c must learn about a's event through b
        assert c.vc[0] == 1

    def test_matches_full_vector_clock_protocol(self):
        """SK reconstructs exactly the vectors the full protocol yields."""
        import random

        rng = random.Random(3)
        n = 5
        sk = [SKProcess(pid, n) for pid in range(n)]
        full = [VectorClock.zero(n) for _ in range(n)]
        # FIFO per channel is required by SK; send+deliver immediately
        for _ in range(300):
            sender = rng.randrange(n)
            dest = rng.randrange(n)
            while dest == sender:
                dest = rng.randrange(n)
            message = sk[sender].prepare_send(dest)
            full[sender] = full[sender].tick(sender)
            sent_full = full[sender]
            sk[dest].receive(message)
            full[dest] = full[dest].merge(sent_full).tick(dest)
            assert sk[dest].vector() == full[dest]

    def test_entry_count_bounded_by_n(self):
        p = SKProcess(0, 6)
        message = p.prepare_send(3)
        assert len(message.entries) <= 6

    def test_message_size(self):
        assert SKMessage(0, ((1, 2), (3, 4))).size_bytes() == 16

    def test_storage_is_three_vectors(self):
        assert SKProcess(2, 7).storage_ints() == 21

    def test_self_send_rejected(self):
        with pytest.raises(ValueError):
            SKProcess(0, 2).prepare_send(0)

    def test_bad_pid_rejected(self):
        with pytest.raises(ValueError):
            SKProcess(5, 3)


class TestFZ:
    def test_message_is_single_integer(self):
        p = FZProcess(0, 3)
        message, _ = p.prepare_send()
        assert message.size_bytes() == 4

    def test_reconstruction_matches_full_vectors(self):
        """Offline FZ reconstruction equals the online full-vector run."""
        import random

        rng = random.Random(11)
        n = 4
        fz = [FZProcess(pid, n) for pid in range(n)]
        full = [VectorClock.zero(n) for _ in range(n)]
        expected: dict[tuple[int, int], VectorClock] = {}
        for _ in range(200):
            kind = rng.random()
            pid = rng.randrange(n)
            if kind < 0.3:
                record = fz[pid].local_event()
                full[pid] = full[pid].tick(pid)
                expected[(pid, record.index)] = full[pid]
            else:
                dest = rng.randrange(n)
                while dest == pid:
                    dest = rng.randrange(n)
                message, record = fz[pid].prepare_send()
                full[pid] = full[pid].tick(pid)
                expected[(pid, record.index)] = full[pid]
                rec2 = fz[dest].receive(message)
                full[dest] = full[dest].merge(full[pid]).tick(dest)
                expected[(dest, rec2.index)] = full[dest]
        reconstructed = reconstruct_vector_times(fz)
        assert reconstructed == expected

    def test_reconstruction_requires_complete_logs(self):
        a, b = FZProcess(0, 2), FZProcess(1, 2)
        message, _ = a.prepare_send()
        b.receive(message)
        # drop a's log: reconstruction must fail loudly
        a.log.clear()
        with pytest.raises(KeyError):
            reconstruct_vector_times([a, b])

    def test_bad_sender_rejected(self):
        from repro.clocks.fz import FZMessage

        with pytest.raises(ValueError):
            FZProcess(0, 2).receive(FZMessage(sender=9, sender_event=1))
