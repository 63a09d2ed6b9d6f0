"""The diagnostic-free fast path must behave identically.

Sessions with ``record_checks=False`` / ``verify_with_oracle=False``
skip the O(|HB|) formula sweep per arrival and derive the concurrent set
from the FIFO-acknowledgement structure directly (see
``StarClient.on_message``).  These tests pin the equivalence: same
documents, same timestamps, same wire traffic as the fully instrumented
run, on identical workloads.
"""

import sys

import pytest

from repro.core.timestamp import CompressedTimestamp
from repro.editor.messages import OpMessage
from repro.editor.star import StarSession
from repro.editor.star_notifier import StarNotifier
from repro.workloads.random_session import RandomSessionConfig, drive_star_session
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    fig3_script,
    fig_latency_factory,
)


Broadcasts = list[tuple[str, int, list[int]]]


def tap_broadcasts(session: StarSession) -> Broadcasts:
    """Observe the notifier's broadcasts at the transport seam.

    The fast path keeps no ``broadcast_log``; what it puts on the wire
    is the behaviour under test, so that is where the stream is read:
    one ``(op name, destination, [T1, T2])`` per operation copy sent.
    No name is on the wire: a copy is of the notifier's latest execution.
    """
    stream: Broadcasts = []
    notifier = session.notifier
    transport = notifier.transport
    wire_send = transport.wire_send

    def recording_send(dest, payload):
        if isinstance(payload, OpMessage):
            stream.append((notifier.executed_op_ids[-1], dest,
                           payload.timestamp.as_paper_list()))
        wire_send(dest, payload)

    transport.wire_send = recording_send
    return stream


def run_session(seed: int, diagnostics: bool) -> tuple[StarSession, Broadcasts]:
    config = RandomSessionConfig(n_sites=5, ops_per_site=8, seed=seed)
    session = StarSession(
        5,
        initial_state=config.initial_document,
        record_checks=diagnostics,
        verify_with_oracle=diagnostics,
    )
    stream = tap_broadcasts(session)
    drive_star_session(session, config)
    session.run()
    return session, stream


class TestFastPathEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_identical_outcome_with_and_without_diagnostics(self, seed):
        fast, fast_stream = run_session(seed, diagnostics=False)
        slow, slow_stream = run_session(seed, diagnostics=True)
        assert fast.documents() == slow.documents()
        assert fast.converged() and slow.converged()
        # 40 ops, each copied to the 4 other sites: never two empty streams
        assert len(fast_stream) == 40 * 4
        assert fast_stream == slow_stream
        # the diagnostic session's own log is the same stream
        assert fast.notifier.broadcast_log is None
        assert [
            (op_id, dest, ts.as_paper_list())
            for op_id, dest, ts in slow.notifier.broadcast_log
        ] == slow_stream
        fast_stats, slow_stats = fast.wire_stats(), slow.wire_stats()
        assert fast_stats.messages == slow_stats.messages
        # No name is on the wire, so not one byte differs.
        assert fast_stats.total_bytes == slow_stats.total_bytes
        assert fast_stats.timestamp_bytes == slow_stats.timestamp_bytes

    def test_fast_path_records_no_checks(self):
        session, _ = run_session(0, diagnostics=False)
        assert session.all_checks() == []

    def test_fig3_identical_under_fast_path(self):
        session = StarSession(
            3,
            initial_state=FIG2_INITIAL_DOCUMENT,
            latency_factory=fig_latency_factory,
            record_checks=False,
        )
        stream = tap_broadcasts(session)
        for item in fig3_script():
            session.generate_at(item.site, item.op, item.time)
        session.run()
        assert session.converged()
        assert session.documents()[0] == "12Bxy"
        # broadcasts still match the paper exactly
        from repro.workloads.scripted import FIG3_EXPECTED, fig3_labels

        label = fig3_labels()
        got = {(label[op_id], dest): ts for op_id, dest, ts in stream}
        assert got == FIG3_EXPECTED["broadcast_timestamps"]


class TestACopyIsItsTwoIntegers:
    """A broadcast copy carries formulas 1-2's pair in its ``OpMessage``."""

    def test_the_notifier_builds_no_timestamp_on_the_fast_path(self, monkeypatch):
        """The notifier reads each copy's pair off ``SV_0`` in place:
        a fast-path run constructs no ``CompressedTimestamp`` under any
        notifier frame (a client still stamps its own operations)."""
        built = {"notifier": 0, "elsewhere": 0}
        post_init = CompressedTimestamp.__post_init__

        def counting(ts):
            frame = sys._getframe(1)
            while frame is not None and not isinstance(
                    frame.f_locals.get("self"), StarNotifier):
                frame = frame.f_back
            built["elsewhere" if frame is None else "notifier"] += 1
            post_init(ts)

        monkeypatch.setattr(CompressedTimestamp, "__post_init__", counting)
        config = RandomSessionConfig(n_sites=4, ops_per_site=6, seed=3)
        session = StarSession(4, initial_state=config.initial_document,
                              record_checks=False)
        drive_star_session(session, config)
        session.run()
        assert session.converged()
        assert len(session.notifier.executed_op_ids) == 24
        assert built == {"notifier": 0, "elsewhere": 24}

    @pytest.mark.parametrize("seed", [5, 6])
    def test_every_copy_carries_formulas_1_2(self, seed):
        """Each copy's ``(first, second)`` is what
        ``NotifierStateVector.compress_for_destination(dest)`` -- the
        formulas' documented home -- gives at send time."""
        config = RandomSessionConfig(n_sites=8, ops_per_site=5, seed=seed)
        session = StarSession(8, initial_state=config.initial_document,
                              record_checks=False)
        notifier = session.notifier
        send = notifier.transport.send
        copies = []

        def checking_send(dest, payload):
            if isinstance(payload, OpMessage):
                expected = notifier.sv.compress_for_destination(dest)
                copies.append((payload.timestamp, expected))
            send(dest, payload)

        notifier.transport.send = checking_send
        drive_star_session(session, config)
        session.run()
        assert session.converged()
        assert len(copies) == 8 * 5 * 7
        mismatched = [(got, expected) for got, expected in copies if got != expected]
        assert not mismatched
