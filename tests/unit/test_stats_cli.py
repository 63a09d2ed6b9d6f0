"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import main


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

    @pytest.mark.parametrize("command", ["session", "trace"])
    @pytest.mark.parametrize("flag", ["--drop", "--dup"])
    def test_an_explicit_drop_or_dup_enables_the_fault_plan(
            self, command, flag, capsys, tmp_path):
        """``trace --drop 0.2`` used to run a clean network without a word."""
        argv = [command, "--sites", "3", "--ops", "4", "--seed", "1", flag, "0.2"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "trace")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert re.search(r"^protocol: sent=\d+ retransmits=\d+", out, re.MULTILINE)
        injected = "dropped" if flag == "--drop" else "duplicated"
        assert re.search(rf"^network: .*\b{injected}=[1-9]", out, re.MULTILINE)

    def test_bare_faults_keeps_each_commands_own_rates(self, capsys, tmp_path):
        """``trace --faults`` is lossy (0.05 / 0.02), ``session --faults`` clean."""
        common = ["--sites", "4", "--ops", "8", "--seed", "1", "--faults"]
        assert main(["session", *common]) == 0
        assert "network: dropped=0 duplicated=0" in capsys.readouterr().out
        assert main(["trace", *common, "--out", str(tmp_path / "trace")]) == 0
        assert re.search(r"^network: dropped=[1-9]", capsys.readouterr().out,
                         re.MULTILINE)

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
