"""End-to-end smoke tests for the ``python -m repro`` entry point.

:mod:`tests.unit.test_stats_cli` drives :func:`repro.cli.main`
in-process; these run the real module entry point in a subprocess --
exactly what a user types -- so packaging regressions (a broken
``__main__``, an import cycle that only fires on cold start, a stack
layer that forgot a re-export) fail here even when in-process tests
pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def run_repro(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=REPO_ROOT,
    )


class TestSessionSmoke:
    def test_star_session(self):
        result = run_repro("session", "--sites", "3", "--ops", "2", "--seed", "1")
        assert result.returncode == 0, result.stderr
        assert "architecture     : star" in result.stdout
        assert "converged        : True" in result.stdout
        assert "timestamp bytes" in result.stdout

    def test_mesh_session(self):
        result = run_repro(
            "session", "--arch", "mesh", "--sites", "3", "--ops", "2", "--seed", "1"
        )
        assert result.returncode == 0, result.stderr
        assert "architecture     : mesh" in result.stdout
        assert "converged        : True" in result.stdout


class TestFaultsSmoke:
    def test_faulty_session_recovers_end_to_end(self):
        result = run_repro(
            "session", "--sites", "3", "--ops", "3", "--seed", "7",
            "--faults", "--drop", "0.15", "--dup", "0.05", "--crash", "2:3.0:5.0",
        )
        assert result.returncode == 0, result.stderr
        assert "converged        : True" in result.stdout
        assert "fifo respected   : True" in result.stdout
        assert "in-order release : True" in result.stdout
        assert "recoveries=1" in result.stdout

    def test_faults_flag_alone_enables_reliability(self):
        result = run_repro("session", "--sites", "2", "--ops", "1", "--faults")
        assert result.returncode == 0, result.stderr
        assert "protocol: sent=" in result.stdout
        assert " acks=" in result.stdout and " coalesced=" in result.stdout

    def test_notifier_crash_fails_over_end_to_end(self):
        result = run_repro(
            "session", "--sites", "3", "--ops", "4", "--seed", "7",
            "--faults", "--crash-notifier", "2.0",
        )
        assert result.returncode == 0, result.stderr
        assert "converged        : True" in result.stdout
        assert "promotions=1" in result.stdout
        assert "in-order release : True" in result.stdout

    def test_traced_notifier_crash_passes_the_cross_check(self, tmp_path):
        result = run_repro(
            "trace", "--sites", "3", "--ops", "4", "--seed", "3",
            "--faults", "--crash-notifier", "2.0",
            "--out", str(tmp_path / "failover"),
        )
        assert result.returncode == 0, result.stderr
        assert "EXACT MATCH" in result.stdout
        assert "promotions=1" in result.stdout
        assert "0 disagreements" in result.stdout
        assert (tmp_path / "failover.jsonl").exists()


class TestFigureSmoke:
    def test_fig3_walkthrough(self):
        result = run_repro("fig3")
        assert result.returncode == 0, result.stderr
        assert "all replicas converged" in result.stdout

    def test_fig3_prints_the_paper_walkthrough_in_full(self):
        """The walkthrough is over unbounded buffers: all four operations
        buffered at site 0 and every one of the paper's 21 checks, not
        the handful a history-pruning session still performs."""
        from repro.workloads.scripted import FIG3_EXPECTED

        result = run_repro("fig3")
        assert result.returncode == 0, result.stderr
        sections = result.stdout.split("\n\n")
        buffered = next(s for s in sections if s.startswith("buffered operations"))
        assert [line.split()[0] for line in buffered.splitlines()[1:]] == (
            FIG3_EXPECTED["final_hb"][0])
        verdicts = next(s for s in sections if s.startswith("concurrency verdicts"))
        printed = {}
        for line in verdicts.splitlines()[1:]:
            site, new_op, relation, buffered_op = line.replace(":", "").split()[1:]
            printed[(int(site), new_op, buffered_op)] = relation == "||"
        assert printed == FIG3_EXPECTED["verdicts"]

    def test_memory_table_uses_live_clocks(self):
        result = run_repro("memory", "--sizes", "8")
        assert result.returncode == 0, result.stderr
        # 8 | 8 (full VC) | 24 (SK) | 2 (client) | 8 (notifier)
        line = [l for l in result.stdout.splitlines() if l.strip().startswith("8 ")]
        assert line and "24" in line[0] and "2" in line[0]
