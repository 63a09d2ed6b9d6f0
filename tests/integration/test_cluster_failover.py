"""Live failover over real sockets: seeded chaos, full verdicts.

The acceptance bar of ISSUE 9: a notifier process hard-killed mid-run
must not end the session -- the surviving client processes re-elect
over the wire, the lowest-numbered site promotes itself to the epoch-1
notifier, the others re-dial it with backoff and resync from failover
snapshots, and the run still converges with the merged-trace
happens-before cross-check EXACT across the epoch boundary.  Each test
kills the centre at a different point in the run's life; the timings
are seeded-workload wall-clock points, chosen so the crash lands where
the test name says (generously inside the window, to stay robust on
loaded CI hosts).
"""

from __future__ import annotations

from pathlib import Path

from repro.cluster import ClusterConfig, run_cluster
from repro.cluster.harness import result_path, trace_path


def _assert_survived_by_failover(report, config, tmp_path: Path) -> None:
    """The common bar: converged, EXACT, dead centre absent by design."""
    assert report.ok, report.summary()
    assert report.failover_run
    assert report.cross_check.ok
    assert report.cross_check.pairs_checked > 0
    # The dead centre wrote no result artifact -- but its streamed
    # trace survived and was merged (the driver's note records it).
    assert not result_path(tmp_path, 0).exists()
    assert trace_path(tmp_path, 0).exists()
    assert any("failed over live" in note for note in report.notes)
    # Every survivor converged on the same document.
    assert sorted(report.documents) == list(range(1, config.clients + 1))
    assert len(set(report.documents.values())) == 1


def test_notifier_crash_early_in_run_fails_over(tmp_path: Path) -> None:
    config = ClusterConfig(clients=2, ops_per_client=16, seed=5,
                           time_scale=0.3, timeout_s=25.0,
                           crash_notifier_after_s=0.3)
    _assert_survived_by_failover(run_cluster(config, tmp_path), config,
                                 tmp_path)


def test_notifier_crash_mid_run_fails_over_with_telemetry(
    tmp_path: Path,
) -> None:
    """Mid-run crash with telemetry on: the epoch transition is visible.

    Election, promotion and member resync must land in the health
    streams as ``warn`` verdicts (the cluster *healed*; nothing failed
    terminally) and in the v2 counter gauges the monitor aggregates.
    """
    from repro.obs.monitor import TelemetryTailer, aggregate, run_monitor

    config = ClusterConfig(clients=3, ops_per_client=12, seed=11,
                           time_scale=0.3, timeout_s=25.0,
                           telemetry_interval_s=0.2,
                           crash_notifier_after_s=1.5)
    report = run_cluster(config, tmp_path)
    _assert_survived_by_failover(report, config, tmp_path)
    # The end-to-end latency bar across the epoch boundary: every
    # (origin, executor) pair of the star has samples -- those with the
    # dead centre come from its salvaged trace.
    spans = report.spans
    assert set(spans.pairs) == {
        (origin, executor)
        for origin in range(1, config.clients + 1)
        for executor in range(config.clients + 1)
        if executor != origin
    }
    assert all(pair.raw.count >= 1 for pair in spans.pairs.values())

    tailer = TelemetryTailer(tmp_path)
    health = tailer.poll()
    # A healed run has no terminal verdicts anywhere...
    assert not any(e.verdict == "fail" for e in health), health
    kinds = {e.kind for e in health}
    # ...but the whole failover story is on the record: the dead-peer
    # flags, the election on the successor, its promotion, and the
    # members re-homing.
    assert "peer_dead" in kinds
    assert "failover_elected" in kinds
    assert "failover_promoted" in kinds
    assert "failover_rehomed" in kinds
    # The v2 telemetry counters carry the epoch transition: exactly one
    # promotion cluster-wide, and every other survivor resynced.
    totals = aggregate(tailer.latest, health).totals
    assert totals["epoch"] >= 1
    assert totals["promoted"] == 1
    assert totals["elected"] >= 1
    assert totals["resynced"] == config.clients - 1
    # The monitor's CI probe accepts the healed run (exit 0, not 2):
    # its watchdogs, the divergence sentinel among them, flag nothing.
    assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 0


def test_reliable_failover_leaves_stderr_empty(tmp_path: Path, capfd) -> None:
    """A healed run is a quiet run, under the reliability protocol too.

    The promoted successor must hang up on the members it accepted
    before its event loop goes away; left to ``asyncio.run`` the
    cancelled inbound handlers each print a traceback (the processes
    inherit fd 2, which ``capfd`` captures).
    """
    config = ClusterConfig(clients=3, ops_per_client=12, seed=11,
                           time_scale=0.3, timeout_s=25.0, reliability=True,
                           crash_notifier_after_s=1.5)
    report = run_cluster(config, tmp_path)
    _assert_survived_by_failover(report, config, tmp_path)
    assert capfd.readouterr().err == ""


def test_a_live_monitor_beside_a_failover_run_stays_green(
    tmp_path: Path,
) -> None:
    """The monitor reads the streams *while* a cluster crashes its
    notifier mid-run and fails over.  No stream depends on the dead
    centre, so frames keep arriving straight through the failover
    window: the monitor renders epoch-1 intervals (minted by the
    promoted successor), and its watchdogs -- live, on every site --
    flag neither a divergence nor a silent site: the dead centre's own
    stream recorded its crash, and the survivors never stop sampling.
    """
    import json
    import threading

    from repro.obs.monitor import run_monitor

    cluster_dir = tmp_path / "cluster"
    cluster_dir.mkdir()
    artifact = tmp_path / "live-monitor.jsonl"
    lines: list[str] = []
    exit_code: dict[str, int] = {}
    config = ClusterConfig(clients=3, ops_per_client=12, seed=11,
                           time_scale=0.3, timeout_s=25.0,
                           telemetry_interval_s=0.2,
                           crash_notifier_after_s=1.5)

    def watch() -> None:
        # Idle detection ends the loop a few intervals after the
        # streams' last record; the duration is a backstop only.
        exit_code["monitor"] = run_monitor(
            cluster_dir, interval_s=0.2, duration_s=60.0, artifact=artifact,
            emit=lines.append,
        )

    monitor = threading.Thread(target=watch)
    monitor.start()
    report = run_cluster(config, cluster_dir)
    monitor.join(timeout=30.0)
    assert not monitor.is_alive()

    _assert_survived_by_failover(report, config, cluster_dir)
    assert exit_code["monitor"] == 0, lines
    records = [json.loads(line) for line in artifact.read_text().splitlines()[1:]]
    intervals = [r for r in records if r["rec"] == "interval"]
    assert any(r["epoch"] >= 1 for r in intervals), \
        "no post-failover frames reached the monitor"
    kinds = {r["kind"] for r in records if r["rec"] == "health"}
    assert "crash" in kinds and "peer_silent" not in kinds, kinds


def test_crash_timer_after_quiescence_is_a_clean_run(tmp_path: Path) -> None:
    """Failover armed but never needed: the timer outlives the session.

    The listening sockets, roster broadcast and DRAINED/GOODBYE
    completion protocol must not perturb a run whose crash never fires.
    """
    config = ClusterConfig(clients=2, ops_per_client=3, seed=3,
                           timeout_s=20.0, crash_notifier_after_s=15.0)
    report = run_cluster(config, tmp_path)
    assert report.ok, report.summary()
    # The centre survived to the end: full artifacts, full execution.
    assert result_path(tmp_path, 0).exists()
    assert sorted(report.documents) == [0, 1, 2]
    assert len(set(report.documents.values())) == 1
    assert all(n >= config.total_ops for n in report.executed_ops.values())
