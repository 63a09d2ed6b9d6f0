"""End-to-end cluster runs: real processes, real sockets, full verdicts.

The acceptance bar of ISSUE 7: a localhost cluster of notifier + N
client *processes* converges on the same document, every concurrency
verdict agrees with the merged trace, and the trace passes the
vector-clock cross-check -- the same editor classes the simulator
tests drive, over TCP.
"""

from __future__ import annotations

import asyncio
from pathlib import Path

import pytest

from repro.cluster import ClusterConfig, run_cluster
from repro.cluster.harness import read_artifacts
from repro.net.wire import encode_goodbye, encode_hello, frame


def test_three_client_cluster_converges(tmp_path: Path) -> None:
    config = ClusterConfig(clients=3, ops_per_client=3, seed=7,
                           timeout_s=20.0)
    report = run_cluster(config, tmp_path)
    assert report.ok, report.summary()
    assert len(report.documents) == 4  # notifier + 3 clients
    docs = set(report.documents.values())
    assert len(docs) == 1
    assert all(n == config.total_ops for n in report.executed_ops.values())
    assert report.cross_check.ok
    assert report.cross_check.pairs_checked > 0
    # Every process left its artifacts behind for post-mortems.
    for site in range(4):
        result, events = read_artifacts(tmp_path, site)
        assert result.site == site
        assert events, f"site {site} wrote an empty trace"
    # The live end-to-end latency bar: every (origin, executor) pair of
    # the star, each with one sample per operation the origin generated,
    # and every pair skew-corrected.
    spans = report.spans
    assert set(spans.pairs) == {
        (origin, executor)
        for origin in range(1, config.clients + 1)
        for executor in range(config.clients + 1)
        if executor != origin
    }
    assert all(pair.raw.count == config.ops_per_client
               for pair in spans.pairs.values())
    assert spans.uncorrectable_pairs == []


def test_cluster_over_reliability_protocol(tmp_path: Path) -> None:
    config = ClusterConfig(clients=2, ops_per_client=3, seed=3,
                           reliability=True, timeout_s=20.0)
    report = run_cluster(config, tmp_path)
    assert report.ok, report.summary()
    assert report.bad_releases == 0


async def _one_loop_session(config: ClusterConfig, out_dir: Path,
                            between_clients=None) -> list[bool]:
    """``serve`` + two ``run_client`` on the caller's loop; the optional
    ``between_clients(port)`` runs once client 1 is dialing."""
    from repro.cluster.client import run_client
    from repro.cluster.serve import serve

    port_future: asyncio.Future[int] = asyncio.get_running_loop().create_future()
    server = asyncio.ensure_future(serve(config, out_dir, on_port=port_future))
    port = await asyncio.wait_for(port_future, 10.0)
    first = asyncio.ensure_future(run_client(config, 1, port, out_dir))
    if between_clients is not None:
        await between_clients(port)
    second = asyncio.ensure_future(run_client(config, 2, port, out_dir))
    return await asyncio.wait_for(
        asyncio.gather(server, first, second), config.timeout_s + 10.0
    )


def _documents(out_dir: Path) -> set[str]:
    return {read_artifacts(out_dir, site)[0].document for site in range(3)}


@pytest.mark.parametrize("reliability", [False, True])
def test_serve_and_client_in_one_loop(tmp_path: Path, reliability: bool,
                                      capfd, caplog) -> None:
    """The process entry points also compose in-process (one event loop).

    Covers the asyncio plumbing without subprocess overhead: the serve
    coroutine announces its port on a future and the client coroutines
    dial it, all on the test's own loop.  Over the reliability protocol
    an endpoint's ack and retransmit timers outlive its coroutine on the
    shared loop, so each trace sink must be unbound before its file
    closes.
    """
    config = ClusterConfig(clients=2, ops_per_client=2, seed=1,
                           timeout_s=15.0, settle_s=0.1,
                           reliability=reliability)

    async def body() -> None:
        assert all(await _one_loop_session(config, tmp_path))
        # Let the stragglers fire while the loop is still there.
        await asyncio.sleep(0.3)

    asyncio.run(body())
    assert len(_documents(tmp_path)) == 1
    _assert_quiet(capfd, caplog)


def test_trace_sink_does_not_outlive_its_file(tmp_path: Path) -> None:
    """A timer that fires after ``finish()`` still traces in memory; it
    must not be writing to the closed ``trace_<site>.jsonl``."""
    from repro.cluster.harness import ProcessRig
    from repro.editor.star_client import StarClient
    from repro.obs.tracer import TraceEventKind

    async def body() -> None:
        rig = ProcessRig(ClusterConfig(clients=1), tmp_path, 1, "client")
        client = StarClient(rig.sched, 1, tracer=rig.tracer)
        rig.tracer.emit(TraceEventKind.GENERATED, 1, op_id="before")
        assert rig.finish(rig.result(client))
        rig.tracer.emit(TraceEventKind.GENERATED, 1, op_id="after")

    asyncio.run(body())
    _result, events = read_artifacts(tmp_path, 1)
    assert [event.op_id for event in events] == ["before"]


def test_a_process_stream_holds_its_own_sites_frames_only(tmp_path: Path) -> None:
    """One carriage: a process writes its own samples to its own stream
    and nothing else -- no other site's frame, no watchdog verdict (the
    monitor judges) -- under a header that says what the run is."""
    import json

    from repro.cluster.harness import ProcessRig, telemetry_path
    from repro.editor.star_notifier import StarNotifier

    async def body() -> None:
        rig = ProcessRig(
            ClusterConfig(clients=3, ops_per_client=4, telemetry_interval_s=0.05),
            tmp_path, 0, "notifier")
        notifier = StarNotifier(rig.sched, 3, tracer=rig.tracer)
        rig.start_telemetry(lambda: notifier)
        await asyncio.sleep(0.12)
        rig.close_streams()
        rig.finish(rig.result(notifier))

    asyncio.run(body())
    header, *records = [json.loads(line) for line
                        in telemetry_path(tmp_path, 0).read_text().splitlines()]
    assert (header["sites"], header["expected_ops"], header["interval_s"]) == (
        4, 12, 0.05)
    assert len(records) >= 2  # the timer's samples and the closing one
    assert {(r["rec"], r["site"]) for r in records} == {("frame", 0)}
    assert [r["seq"] for r in records] == list(range(len(records)))


def _assert_quiet(capfd, caplog) -> None:
    """Nothing on stderr, nothing through the loop's exception handler
    (which logs to ``asyncio``; pytest's log capture keeps that off fd 2)."""
    assert capfd.readouterr().err == ""
    assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []


STRAYS = {
    # what the stray connection sends first -> rejections the hub counts
    "garbage-prefix": (b"\xff\xff\xff\xff", 1),
    "non-hello-frame": (frame(encode_goodbye()), 1),
    "silence": (b"", 0),
    "pid-out-of-range": (frame(encode_hello(7)), 1),
    "pid-already-connected": (frame(encode_hello(1)), 1),
}


@pytest.mark.parametrize("case", STRAYS)
def test_stray_connection_cannot_end_or_join_the_run(
    tmp_path: Path, case: str, capfd, caplog, monkeypatch,
) -> None:
    """The first frame of a connection is outside input.

    A connection that does not open with the HELLO of an expected,
    not-yet-connected member is counted and closed; it is never
    attached as a spoke, never counted toward "everyone is here", and
    never handed a real member's GOODBYE.  One that says nothing is
    closed when the hub closes.  Either way the run completes, the
    replicas agree, and nothing reaches stderr or the asyncio logger.
    """
    from repro.cluster import serve as serve_module

    first_bytes, rejections = STRAYS[case]
    hubs: list[serve_module.Hub] = []

    class SpyHub(serve_module.Hub):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            hubs.append(self)

    monkeypatch.setattr(serve_module, "Hub", SpyHub)
    config = ClusterConfig(clients=2, ops_per_client=2, seed=1,
                           timeout_s=8.0, settle_s=0.1)

    async def body() -> None:
        stray: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

        async def intrude(port: int) -> None:
            (hub,) = hubs
            while 1 not in hub.writers:  # the real client 1 holds its pid
                await asyncio.sleep(0.01)
            reader, writer = await asyncio.open_connection(config.host, port)
            writer.write(first_bytes)
            await writer.drain()
            stray.append((reader, writer))
            if rejections:
                # Turned away at once, not at teardown.
                assert await asyncio.wait_for(reader.read(), 5.0) == b""

        results = await _one_loop_session(config, tmp_path, intrude)
        assert results == [True, True, True]
        # The silent stranger was hung up on by Hub.close.
        ((reader, writer),) = stray
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()

    asyncio.run(body())
    assert len(_documents(tmp_path)) == 1
    assert hubs[0].rejected == rejections
    assert set(hubs[0].writers) == {1, 2}
    _assert_quiet(capfd, caplog)


def test_cluster_with_telemetry_streams_and_monitor_aggregation(
    tmp_path: Path,
) -> None:
    """ISSUE 8 acceptance, clean half: telemetry on, cross-check EXACT.

    Every process streams its own frames and no other site's, the
    monitor's watchdogs find nothing to flag, and its per-site aggregate
    equals each process's final local stats.
    """
    from repro.cluster.driver import ClusterError
    from repro.cluster.harness import telemetry_path
    from repro.obs.monitor import TelemetryTailer, aggregate, run_monitor

    config = ClusterConfig(clients=3, ops_per_client=3, seed=7,
                           timeout_s=20.0, telemetry_interval_s=0.2)
    try:
        report = run_cluster(config, tmp_path)
    except ClusterError as exc:  # pragma: no cover - loaded-host diagnostics
        pytest.fail(f"telemetry-enabled cluster failed: {exc}")
    # Telemetry on changes no verdict: the trace-vs-oracle cross-check
    # still passes EXACT on the merged trace.
    assert report.ok, report.summary()
    assert report.cross_check.ok

    # Every process wrote a telemetry stream of its own frames only...
    import json

    for site in range(4):
        records = [json.loads(line) for line in
                   telemetry_path(tmp_path, site).read_text().splitlines()]
        assert {r["site"] for r in records if r.get("rec") == "frame"} == {site}
    # ...the watchdogs its header arms flag nothing...
    tailer = TelemetryTailer(tmp_path)
    health = tailer.poll()
    assert sorted(tailer.latest) == [0, 1, 2, 3]
    assert len(tailer.watchdogs) == 4 and tailer.sites == 4
    assert not any(e.verdict == "fail" for e in health), health

    # ...and the monitor's aggregate equals each process's final stats.
    snapshot = aggregate(tailer.latest, health, expected_sites=tailer.sites)
    assert "sites=4/4" in snapshot.line() and "digests=ok" in snapshot.line()
    for site in range(4):
        result, _ = read_artifacts(tmp_path, site)
        assert snapshot.totals["ops_executed"][site] == result.executed_ops
        assert snapshot.latest[site].retransmits == result.retransmits
    # The CI probe mode exits clean and leaves the artifact behind.
    assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 0
    assert (tmp_path / "monitor.jsonl").exists()


def test_injected_notifier_crash_without_failover_leaves_flight_recorders(
    tmp_path: Path,
) -> None:
    """The negative test: failover disabled, a crash is cleanly terminal.

    The notifier hard-exits mid-run with ``failover=False``; every
    process must dump a flight recorder, the clients must flag the dead
    peer *live* (a ``fail`` health event in their telemetry streams,
    written before the run ends), and the driver must salvage the
    artifacts by name instead of discarding the run -- the explained
    failure, not a hang or an unexplained one.
    """
    from repro.cluster.driver import ClusterError
    from repro.cluster.harness import flight_path, telemetry_path
    from repro.obs.monitor import TelemetryTailer
    from repro.obs.tracer import read_jsonl

    config = ClusterConfig(clients=2, ops_per_client=20, seed=5,
                           time_scale=0.3, timeout_s=8.0,
                           telemetry_interval_s=0.2,
                           crash_notifier_after_s=1.5,
                           failover=False)
    with pytest.raises(ClusterError) as excinfo:
        run_cluster(config, tmp_path)
    # The failure report names the salvaged observability artifacts.
    assert "salvaged" in str(excinfo.value)
    assert "flight_0.jsonl" in str(excinfo.value)

    # A flight-recorder dump from every process, in trace format.
    for site in range(3):
        with flight_path(tmp_path, site).open() as fh:
            header, _events = read_jsonl(fh, lenient=True)
        assert header["flight_recorder"] is True
        assert header["site"] == site
    with flight_path(tmp_path, 0).open() as fh:
        header, _events = read_jsonl(fh, lenient=True)
    assert header["reason"] == "injected-crash"

    # The clients flagged the dead notifier live, before the run ended.
    health = TelemetryTailer(tmp_path).poll()
    dead_flags = [e for e in health if e.kind == "peer_dead"
                  and e.verdict == "fail" and e.peer == 0]
    assert {e.site for e in dead_flags} == {1, 2}
    # The crashed notifier's own stream survived (crash-safe writes).
    assert telemetry_path(tmp_path, 0).exists()
