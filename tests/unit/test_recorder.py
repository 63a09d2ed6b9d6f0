"""Unit tests for session recording / replay (repro.editor.recorder)."""

import io

import pytest

from repro.editor.recorder import (
    RecordingError,
    SessionRecorder,
    TraceEntry,
    load_trace,
    op_from_json,
    op_to_json,
    replay,
)
from repro.editor.star import StarSession
from repro.ot.operations import Delete, Identity, Insert, OperationGroup
from repro.workloads.random_session import RandomSessionConfig, drive_star_session


class TestOpSerialisation:
    @pytest.mark.parametrize(
        "op",
        [
            Insert("héllo", 3),
            Delete(4, 0),
            Identity(),
            OperationGroup((Delete(1, 0), Insert("x", 2))),
        ],
    )
    def test_roundtrip(self, op):
        assert op_from_json(op_to_json(op)) == op

    def test_unknown_type_rejected(self):
        with pytest.raises(RecordingError):
            op_from_json({"type": "paint"})
        with pytest.raises(RecordingError):
            op_to_json("nope")  # type: ignore[arg-type]


class TestTraceEntry:
    def test_json_roundtrip(self):
        entry = TraceEntry(site=2, time=1.5, op_id="O2", op=Delete(3, 2))
        assert TraceEntry.from_json(entry.to_json()) == entry

    def test_malformed_line_rejected(self):
        with pytest.raises(RecordingError):
            TraceEntry.from_json("{not json")
        with pytest.raises(RecordingError):
            TraceEntry.from_json('{"site": 1}')


class TestRecordReplay:
    def run_recorded(self, seed=3):
        config = RandomSessionConfig(n_sites=3, ops_per_site=5, seed=seed)
        # a diagnostic session: the replay test compares broadcast logs
        session = StarSession(
            3, initial_state=config.initial_document, record_checks=True
        )
        recorder = SessionRecorder.attach(session)
        drive_star_session(session, config)
        session.run()
        assert session.converged()
        return session, recorder

    def test_recorder_captures_all_originals(self):
        session, recorder = self.run_recorded()
        assert len(recorder.entries) == 15
        assert {entry.site for entry in recorder.entries} == {1, 2, 3}

    def test_dump_and_load_roundtrip(self):
        _, recorder = self.run_recorded()
        buffer = io.StringIO()
        lines = recorder.dump(buffer)
        assert lines == 16  # header + 15 ops
        buffer.seek(0)
        header, entries = load_trace(buffer)
        assert header["n_sites"] == 3
        assert len(entries) == 15

    def test_replay_reproduces_final_state_exactly(self):
        session, recorder = self.run_recorded()
        buffer = io.StringIO()
        recorder.dump(buffer)
        buffer.seek(0)
        header, entries = load_trace(buffer)
        replayed = replay(header, entries, record_checks=True)
        assert replayed.converged()
        assert replayed.documents() == session.documents()
        # timestamps identical too: same broadcasts in the same order
        original_log = [
            (op_id, dest, ts.as_paper_list())
            for op_id, dest, ts in session.notifier.broadcast_log
        ]
        assert len(original_log) == 15 * 2  # every op, to the two other sites
        assert [
            (op_id, dest, ts.as_paper_list())
            for op_id, dest, ts in replayed.notifier.broadcast_log
        ] == original_log

    def test_empty_trace_rejected(self):
        with pytest.raises(RecordingError):
            load_trace(io.StringIO(""))

    def test_unknown_format_rejected(self):
        with pytest.raises(RecordingError):
            load_trace(io.StringIO('{"format": "v999"}\n'))
