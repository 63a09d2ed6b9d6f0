"""Unit tests for session statistics and the command-line interface."""

import re

import pytest

from repro.analysis.stats import session_stats, transform_pressure
from repro.cli import main
from repro.clocks.events import EventLog
from repro.editor.star import StarSession
from repro.workloads.scripted import fig3_script, fig_latency_factory, FIG2_INITIAL_DOCUMENT


def fig3_session():
    session = StarSession(
        3,
        initial_state=FIG2_INITIAL_DOCUMENT,
        latency_factory=fig_latency_factory,
        record_checks=True,  # transform_pressure reads the check records
    )
    for item in fig3_script():
        session.generate_at(item.site, item.op, item.time, op_id=item.op_id)
    session.run()
    return session


class TestSessionStats:
    def test_fig3_statistics(self):
        """Section 2.4 enumerates 3 concurrent and 3 causal pairs."""
        session = fig3_session()
        stats = session_stats(session.event_log)
        assert stats.n_ops == 4
        assert stats.n_pairs == 6
        assert stats.concurrent_pairs == 3
        assert stats.causal_pairs == 3
        assert stats.concurrency_degree == pytest.approx(0.5)
        # longest chain: O2 -> O4? no -- O2 -> O3 via O1: depth counts ops
        assert stats.causal_depth == 2
        assert stats.ops_per_site == {1: 1, 2: 2, 3: 1}
        assert "4 ops" in stats.summary()

    def test_empty_log(self):
        stats = session_stats(EventLog(2))
        assert stats.n_ops == 0
        assert stats.concurrency_degree == 0.0
        assert stats.causal_depth == 0

    def test_explicit_op_subset(self):
        session = fig3_session()
        stats = session_stats(session.event_log, ops=["O1", "O2"])
        assert stats.n_ops == 2
        assert stats.concurrent_pairs == 1  # O1 || O2


class TestTransformPressure:
    def test_fig3_pressure(self):
        session = fig3_session()
        pressure = transform_pressure(session)
        # walkthrough: O2'@1, O1@0, O1'@3, O4@0, O4'@2, O3@0 each had
        # exactly one concurrent operation; everything else had none
        assert pressure.total_transform_steps == 6
        assert pressure.max_concurrent_set == 1
        # remote executions observed: every op arrival that scanned a
        # non-empty history
        assert pressure.total_remote_executions > 0
        assert 0 < pressure.mean_concurrent_set <= 1

    def test_empty_pressure(self):
        session = StarSession(2)
        pressure = transform_pressure(session)
        assert pressure.total_remote_executions == 0
        assert pressure.mean_concurrent_set == 0.0


class TestCLI:
    def test_fig1(self, capsys):
        assert main(["fig1", "--clients", "3"]) == 0
        out = capsys.readouterr().out
        assert "notifier" in out and "[site 3]" in out

    def test_fig2_reports_divergence(self, capsys):
        assert main(["fig2"]) == 1  # divergence is the expected outcome
        out = capsys.readouterr().out
        assert "DIVERGED" in out

    def test_fig3_converges(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "all replicas converged" in out
        assert "O2' -> site 1  [1,0]" in out

    def test_overhead_table(self, capsys):
        assert main(["overhead", "--sizes", "2", "8", "--messages", "50"]) == 0
        out = capsys.readouterr().out
        assert "compressed" in out
        assert out.count("\n") >= 3

    def test_memory_table(self, capsys):
        assert main(["memory", "--sizes", "4"]) == 0
        assert "CVC client" in capsys.readouterr().out

    def test_session_star(self, capsys):
        assert main(["session", "--sites", "3", "--ops", "3", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "converged        : True" in out

    def test_session_mesh(self, capsys):
        assert main(["session", "--arch", "mesh", "--sites", "3", "--ops", "2"]) == 0
        out = capsys.readouterr().out
        assert "architecture     : mesh" in out

    def test_session_with_faults(self, capsys):
        assert (
            main(
                [
                    "session", "--sites", "3", "--ops", "4", "--seed", "7",
                    "--verify", "--faults", "--drop", "0.2", "--dup", "0.05",
                    "--crash", "2:3.0:5.0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "converged        : True" in out
        assert "fifo respected   : True" in out
        assert "retransmits=" in out
        assert "recoveries=1" in out
        assert "resyncs_served=1" in out

    def test_session_faults_flag_alone_enables_reliability(self, capsys):
        assert main(["session", "--sites", "2", "--ops", "2", "--faults"]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"^protocol: sent=\d+ retransmits=\d+ acks=\d+ coalesced=\d+ dedup=",
            out, re.MULTILINE)

    def test_trace_writes_artifacts_and_cross_checks(self, capsys, tmp_path):
        prefix = str(tmp_path / "trace")
        assert (
            main(["trace", "--sites", "3", "--ops", "3", "--out", prefix]) == 0
        )
        out = capsys.readouterr().out
        assert "EXACT MATCH" in out
        assert "0 disagreements" in out
        assert (tmp_path / "trace.jsonl").exists()
        assert (tmp_path / "trace.chrome.json").exists()
        # The JSONL artefact round-trips through the public reader.
        from repro.obs import read_jsonl

        with open(tmp_path / "trace.jsonl", encoding="utf-8") as fh:
            header, events = read_jsonl(fh)
        assert header["sites"] == 3 and not header["faulty"]
        assert events

    def test_trace_with_faults_and_diagram(self, capsys, tmp_path):
        prefix = str(tmp_path / "trace")
        assert (
            main(
                [
                    "trace", "--sites", "4", "--seed", "7", "--faults",
                    "--crash", "2:3.0:5.0", "--out", prefix, "--diagram",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "EXACT MATCH" in out
        assert "vector-clock" in out  # crash runs check against the VC relation
        assert "trace.crashed = 1" in out
        assert "trace.recovered = 1" in out
        assert "site 0" in out  # the spacetime diagram rendered

    def test_session_mesh_rejects_faults(self, capsys):
        assert (
            main(["session", "--arch", "mesh", "--sites", "2", "--ops", "1",
                  "--faults"])
            == 2
        )
        assert "only supported" in capsys.readouterr().err

    def test_bad_crash_spec_exits(self):
        with pytest.raises(SystemExit):
            main(["session", "--faults", "--crash", "2:3.0"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
