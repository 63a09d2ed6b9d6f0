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
from repro.cluster.harness import read_trace
from repro.net.wire import encode_goodbye, encode_hello, frame
from repro.obs.tracer import TraceEventKind


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
    n_ops = report.cross_check.n_ops
    assert report.cross_check.pairs_checked == n_ops * (n_ops - 1) > 0
    # The processes ran the fast path; the verdicts come from the traces.
    assert report.check_disagreements == 0 and report.verdicts_checked > 0
    # Every process left its trace behind for post-mortems, closed by
    # the record of its end state.
    for site in range(4):
        last = read_trace(tmp_path, site)[-1]
        assert (last.kind, last.site) == (TraceEventKind.FINISHED, site)
        assert last.gauges["document"] == report.documents[site]
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
    # The monitor counts each client op once: GENERATED at its origin,
    # not the notifier's transformed copy as well.
    from repro.obs.monitor import TelemetryTailer, aggregate

    tailer = TelemetryTailer(tmp_path)
    tailer.poll()
    assert aggregate(tailer.latest).totals["ops_generated"] == config.total_ops


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


def _finished_endpoints(monkeypatch) -> dict[int, tuple]:
    """Spy on ``ProcessRig.finish``: per site, the endpoint a process
    closed its trace with, and its retransmit count at that moment."""
    from repro.cluster.harness import ProcessRig

    finished = {}
    finish = ProcessRig.finish

    def spy(rig, endpoint, *args):
        finished[rig.site] = (endpoint, endpoint.transport.stats.retransmits)
        return finish(rig, endpoint, *args)

    monkeypatch.setattr(ProcessRig, "finish", spy)
    return finished


def test_a_cluster_process_keeps_no_verdicts(tmp_path: Path, monkeypatch) -> None:
    """Every process runs the fast path: the verdicts are recomputed from
    its trace, so no endpoint keeps a check record or a history, and no
    closing record carries a ``checks`` key."""
    finished = _finished_endpoints(monkeypatch)
    config = ClusterConfig(clients=2, ops_per_client=3, seed=7,
                           timeout_s=15.0, settle_s=0.1)

    async def body() -> None:
        assert all(await _one_loop_session(config, tmp_path))

    asyncio.run(body())
    assert sorted(finished) == [0, 1, 2]
    for endpoint, _retransmits in finished.values():
        assert endpoint.checks == []
        assert len(endpoint.hb) == 0
    closing = [read_trace(tmp_path, site)[-1].gauges for site in range(3)]
    assert not any("checks" in gauges for gauges in closing)
    assert len({gauges["document"] for gauges in closing}) == 1


def _documents(out_dir: Path) -> set[str]:
    """The documents the sites' closing records hold."""
    return {read_trace(out_dir, site)[-1].gauges["document"] for site in range(3)}


@pytest.mark.parametrize("reliability", [False, True])
def test_serve_and_client_in_one_loop(tmp_path: Path, reliability: bool,
                                      capfd, caplog, monkeypatch) -> None:
    """The process entry points also compose in-process (one event loop).

    Covers the asyncio plumbing without subprocess overhead: the serve
    coroutine announces its port on a future and the client coroutines
    dial it, all on the test's own loop.  Over the reliability protocol
    an endpoint's ack and retransmit timers outlive its coroutine on the
    shared loop, so each trace sink must be unbound before its file
    closes.  The retransmits the monitor counts from each trace equal
    the endpoint's own count when it closed its trace.
    """
    from repro.obs.monitor import TelemetryTailer

    finished = _finished_endpoints(monkeypatch)
    config = ClusterConfig(clients=2, ops_per_client=2, seed=1,
                           timeout_s=15.0, settle_s=0.1,
                           reliability=reliability)

    async def body() -> None:
        assert all(await _one_loop_session(config, tmp_path))
        # Let the stragglers fire while the loop is still there.
        await asyncio.sleep(0.3)

    asyncio.run(body())
    assert len(_documents(tmp_path)) == 1
    tailer = TelemetryTailer(tmp_path)
    tailer.poll()
    assert {site: frame.retransmits for site, frame in tailer.latest.items()} \
        == {site: retransmits for site, (_, retransmits) in finished.items()}
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
        assert rig.finish(client)
        rig.tracer.emit(TraceEventKind.GENERATED, 1, op_id="after")

    asyncio.run(body())
    assert [(event.kind, event.op_id) for event in read_trace(tmp_path, 1)] \
        == [(TraceEventKind.GENERATED, "before"), (TraceEventKind.FINISHED, None)]


def test_a_process_stream_holds_its_own_sites_frames_only(tmp_path: Path) -> None:
    """One stream per process: a process traces its own samples, on a
    timer and once more as its closing record, into its own trace and
    nothing else -- no other site's, no watchdog verdict (the monitor
    judges), no second file -- under a header that says what the run
    is."""
    import json

    from repro.cluster.harness import ProcessRig, trace_path
    from repro.editor.star_notifier import StarNotifier
    from repro.obs.monitor import SAMPLED_GAUGES

    async def body() -> None:
        rig = ProcessRig(ClusterConfig(clients=3, ops_per_client=4),
                         tmp_path, 0, "notifier")
        notifier = StarNotifier(rig.sched, 3, tracer=rig.tracer)
        rig.sample(lambda: notifier)
        await asyncio.sleep(0.6)
        rig.finish(notifier)

    asyncio.run(body())
    header, *records = [json.loads(line) for line
                        in trace_path(tmp_path, 0).read_text().splitlines()]
    assert (header["site"], header["sites"], header["expected_ops"]) == (0, 4, 12)
    *samples, closing = records
    assert samples  # the timer's, before the closing one
    assert {(r["kind"], r["site"]) for r in samples} == {("sampled", 0)}
    assert (closing["kind"], closing["site"]) == ("finished", 0)
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert all(list(r["g"]) == list(SAMPLED_GAUGES) for r in samples)
    assert list(closing["g"]) == [*SAMPLED_GAUGES, "document", "timed_out"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace_0.jsonl"]


#: A frame that does not decode (an unassigned tag), sent after a HELLO.
GARBLED = frame(b"\x03")


def _peer_lost(out_dir: Path, site: int) -> list[tuple[int, int, str]]:
    return [(e.site, e.peer, e.via) for e in read_trace(out_dir, site)
            if e.kind is TraceEventKind.PEER_LOST]


def test_a_garbled_member_is_traced_by_the_original_centre(tmp_path: Path) -> None:
    """Under the default config the notifier's trace names the member it
    hung up on for a garbled frame, not only the ``SERVED`` count."""
    from repro.cluster.serve import serve

    config = ClusterConfig(clients=1, timeout_s=1.0)

    async def body() -> None:
        port_future: asyncio.Future[int] = (
            asyncio.get_running_loop().create_future())
        server = asyncio.ensure_future(serve(config, tmp_path, on_port=port_future))
        port = await asyncio.wait_for(port_future, 10.0)
        reader, writer = await asyncio.open_connection(config.host, port)
        writer.write(frame(encode_hello(1)) + GARBLED)
        await asyncio.wait_for(reader.read(), 5.0)  # the roster, then hung up
        writer.close()
        # Its only member gone, the run cannot complete.
        assert await asyncio.wait_for(server, 10.0) is False

    asyncio.run(body())
    assert _peer_lost(tmp_path, 0) == [(0, 1, "garbled")]


def test_a_garbled_member_is_traced_by_a_successor(tmp_path: Path) -> None:
    """The same at a client's own hub, the one a promoted successor
    serves members from."""
    from repro.cluster.failover import WireFailover
    from repro.cluster.harness import ProcessRig
    from repro.editor.star_client import StarClient

    config = ClusterConfig(clients=2)

    async def body() -> None:
        rig = ProcessRig(config, tmp_path, 1, "client")
        client = StarClient(rig.sched, 1, tracer=rig.tracer)
        coordinator = WireFailover(config, client, rig.done,
                                   workload_done=lambda: True)
        await coordinator.start()
        reader, writer = await asyncio.open_connection(
            config.host, coordinator.listen_port)
        writer.write(frame(encode_hello(2)) + GARBLED)
        assert await asyncio.wait_for(reader.read(), 5.0) == b""
        writer.close()
        await coordinator.hub.close()
        rig.finish(client)

    asyncio.run(body())
    assert _peer_lost(tmp_path, 1) == [(1, 2, "garbled")]


def test_a_centre_frame_the_client_refuses_ends_its_run_on_the_record(
    tmp_path: Path, capfd, caplog,
) -> None:
    """A centre sends a well-formed op message that acknowledges fifty
    edits this client never made.  The client refuses it
    (``ConsistencyError``) like a frame that does not decode: the centre
    connection is over, and without failover that is a terminal peer
    death -- traced as ``peer_lost`` and closed with ``timed_out`` --
    not an exception out of ``run_client`` after its timeout."""
    _a_centre_frame_ends_the_run(tmp_path, capfd, caplog,
                                 _op_frame(first=0, second=50, pos=0, origin=0))


def test_a_centre_edit_that_does_not_apply_ends_its_run_on_the_record(
    tmp_path: Path, capfd, caplog,
) -> None:
    """The same for a broadcast in sequence (``T=[1,0]``, origin 2)
    whose position is past the end of any document: the sequence rule
    checks ``T``, not the edit, so the client gets as far as executing
    it and fails (``OperationError``), which its endpoint refuses as a
    ``ConsistencyError``."""
    _a_centre_frame_ends_the_run(tmp_path, capfd, caplog,
                                 _op_frame(first=1, second=0, pos=999, origin=2))


def test_a_centre_that_overflows_the_reorder_buffer_ends_the_run_on_the_record(
    tmp_path: Path, capfd, caplog,
) -> None:
    """The same for a reliable centre whose first packet never comes:
    packets 1 .. ``HOLDBACK_LIMIT + 1`` wait on it until one more than the
    reorder buffer holds arrives (``HoldbackOverflow``), which the
    client's endpoint refuses as a ``ConsistencyError``."""
    from repro.net.reliability import HOLDBACK_LIMIT

    _a_centre_frame_ends_the_run(
        tmp_path, capfd, caplog,
        b"".join(_op_frame(first=1, second=0, pos=0, origin=2, seq=seq)
                 for seq in range(1, HOLDBACK_LIMIT + 2)),
        reliability=True)


def _op_frame(*, first: int, second: int, pos: int, origin: int,
              seq: int | None = None) -> bytes:
    """A centre's op message to client 1; with ``seq``, in a reliable packet."""
    from repro.editor.messages import OpMessage
    from repro.net.reliability import ReliablePacket
    from repro.net.transport import Envelope
    from repro.net.wire import encode_envelope
    from repro.ot.operations import Insert

    op = OpMessage(op=Insert("x", pos), first=first, second=second,
                   origin_site=origin)
    payload = op if seq is None else ReliablePacket(seq, 0, -1, op)
    return frame(encode_envelope(Envelope(source=0, dest=1, payload=payload)))


def _a_centre_frame_ends_the_run(tmp_path: Path, capfd, caplog, refused: bytes,
                                 *, reliability: bool = False) -> None:
    from repro.cluster.client import run_client

    config = ClusterConfig(clients=1, timeout_s=5.0, failover=False,
                           reliability=reliability)

    async def centre(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        await reader.readexactly(4)  # the HELLO's length prefix is enough
        writer.write(refused)
        await reader.read()  # until the client hangs up
        writer.close()

    async def body() -> None:
        server = await asyncio.start_server(centre, config.host, 0)
        port = server.sockets[0].getsockname()[1]
        finished = await asyncio.wait_for(
            run_client(config, 1, port, tmp_path), 4.0)
        server.close()
        await server.wait_closed()
        assert finished is False

    asyncio.run(body())
    assert _peer_lost(tmp_path, 1) == [(1, 0, "terminal")]
    closing = read_trace(tmp_path, 1)[-1]
    assert closing.kind is TraceEventKind.FINISHED
    assert closing.gauges["timed_out"] is True
    _assert_quiet(capfd, caplog)


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


def test_cluster_traces_feed_the_monitor_aggregation(
    tmp_path: Path,
) -> None:
    """The monitor beside a clean run: sampling on, cross-check EXACT.

    Every process traces its own samples and no other site's, into its
    trace and no other file; the monitor's watchdogs find nothing to
    flag, and its per-site aggregate equals each process's end state.
    """
    from repro.cluster.driver import ClusterError
    from repro.obs.monitor import TelemetryTailer, aggregate, run_monitor

    config = ClusterConfig(clients=3, ops_per_client=3, seed=7,
                           timeout_s=20.0)
    try:
        report = run_cluster(config, tmp_path)
    except ClusterError as exc:  # pragma: no cover - loaded-host diagnostics
        pytest.fail(f"cluster failed: {exc}")
    # Sampling changes no verdict: the trace-vs-oracle cross-check
    # passes EXACT on the merged trace, samples and all.
    assert report.ok, report.summary()
    assert report.cross_check.ok

    # Every process traced its own samples only, and wrote no other stream...
    assert not list(tmp_path.glob("telemetry_*"))
    for site in range(4):
        samples = [e for e in read_trace(tmp_path, site)
                   if e.kind is TraceEventKind.SAMPLED]
        assert samples and {e.site for e in samples} == {site}
    # ...the watchdogs its header arms flag nothing...
    tailer = TelemetryTailer(tmp_path)
    health = tailer.poll()
    assert sorted(tailer.latest) == [0, 1, 2, 3]
    assert len(tailer.watchdogs) == 4 and tailer.sites == 4
    assert not any(e.verdict == "fail" for e in health), health

    # ...and the monitor's aggregate equals each process's end state.
    snapshot = aggregate(tailer.latest, health, expected_sites=tailer.sites)
    assert "sites=4/4" in snapshot.line() and "digests=ok" in snapshot.line()
    for site in range(4):
        assert snapshot.totals["ops_executed"][site] == report.executed_ops[site]
        assert snapshot.latest[site].ops_generated == (
            config.ops_per_client if site else 0)
    # The end-to-end gauge no process sampled is derived from the traces:
    # each site's equals the p95 of its last 64 remote pairs.
    reference = _reference_e2e_p95(tmp_path, 4)
    assert set(reference) == {0, 1, 2, 3}
    assert {site: snapshot.latest[site].e2e_p95_ms for site in range(4)} == reference
    # The CI probe mode exits clean and leaves the artifact behind.
    assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 0
    assert (tmp_path / "monitor.jsonl").exists()


def _reference_e2e_p95(out_dir: Path, sites: int) -> dict[int, float]:
    """Per executing site, the p95 (ms) of the last 64 ``executed -
    generated`` pairs from another site, over the merged traces."""
    from repro.cluster.harness import trace_path
    from repro.obs.tracer import Histogram, Origins, TraceEventKind, read_jsonl

    merged = []
    for site in range(sites):
        with trace_path(out_dir, site).open() as fh:
            merged += read_jsonl(fh, lenient=True)[1]
    origins = Origins()
    pairs: dict[int, list[float]] = {}
    for event in sorted(merged, key=lambda e: (e.time, e.kind is TraceEventKind.EXECUTED)):
        origin = origins.see(event)
        if origin is not None and origin.site != event.site:
            pairs.setdefault(event.site, []).append((event.time - origin.time) * 1e3)
    out = {}
    for site, latencies in pairs.items():
        window = Histogram()
        window.values = latencies[-64:]
        out[site] = window.percentile(95)
    return out


def test_injected_notifier_crash_without_failover_leaves_its_traces(
    tmp_path: Path,
) -> None:
    """The negative test: failover disabled, a crash is cleanly terminal.

    The notifier hard-exits mid-run with ``failover=False``; every
    process's streamed trace is its post-mortem, and the notifier's ends
    with the ``crashed`` event it traced on the way down; the clients
    must flag the dead peer *live* (a terminal ``peer_lost`` in their
    traces, written before the run ends, which the monitor grades
    ``fail``), and the driver must
    salvage the artifacts by name instead of discarding the run -- the
    explained failure, not a hang or an unexplained one.
    """
    from repro.cluster.driver import ClusterError
    from repro.cluster.harness import trace_path
    from repro.obs.monitor import TelemetryTailer
    from repro.obs.tracer import read_jsonl

    config = ClusterConfig(clients=2, ops_per_client=20, seed=5,
                           time_scale=0.3, timeout_s=8.0,
                           crash_notifier_after_s=1.5,
                           failover=False)
    with pytest.raises(ClusterError) as excinfo:
        run_cluster(config, tmp_path)
    # The failure report names the salvaged artifacts, the traces among them.
    assert "salvaged" in str(excinfo.value)
    assert "trace_0.jsonl" in str(excinfo.value)

    # Every process's trace reads, a torn tail forgiven.
    traces = {}
    for site in range(3):
        with trace_path(tmp_path, site).open() as fh:
            header, traces[site] = read_jsonl(fh, lenient=True)
        assert header["site"] == site
        assert traces[site]
    # The notifier's ends with why it ends.
    last = traces[0][-1]
    assert (last.kind, last.site, last.epoch) == (TraceEventKind.CRASHED, 0, 0)

    # The clients flagged the dead notifier live, before the run ended.
    health = TelemetryTailer(tmp_path).poll()
    dead_flags = [e for e in health if e.kind == "peer_dead"
                  and e.verdict == "fail" and e.peer == 0]
    assert {e.site for e in dead_flags} == {1, 2}
    # The crash itself is graded where the notifier traced it.
    assert [(e.site, e.kind) for e in health if e.kind == "crash"] == [(0, "crash")]
