"""The ``wire-pair`` rig: the star over real TCP loopback, in one process.

One ``StarNotifier`` and two ``StarClient`` objects on one
``AsyncioScheduler``, one thread, two loopback connections (as many as
this box has cores).  Each connection opens with a HELLO frame, sends
through a ``WireChannel`` and receives through ``pump`` -- the stock
wire surface, assembled the way ``cluster/serve.py`` and
``cluster/client.py`` assemble it, minus what is not the protocol:
no tracer, no ``span_clock``, no telemetry, and the fast path
(``record_checks=False``).

Closed loop, window 1 per client: a client generates its next op when
its previous one has executed at the other client.  Generator and
system share the thread, so an open loop would time the generator.
"""

from __future__ import annotations

import asyncio
import random
from time import perf_counter
from typing import Any, Optional

from calibrate import Kernel
from probe import (
    OpTracker,
    TraceState,
    instrument,
    spanned_arrival,
    tracked_generate,
    transport_counters,
)
from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.scheduler import AsyncioScheduler
from repro.net.wire import (
    Hello,
    WireChannel,
    decode_frame,
    encode_hello,
    frame,
    pump,
    read_frame,
)
from repro.workloads.random_session import RandomSessionConfig, random_positional_op
from spans import CORPUS_LIMIT, StampingReader
from workloads import Workload

HOST = "127.0.0.1"
SLICE_OPS = 500  # completed ops per timed slice
TEARDOWN_TIMEOUT_S = 5.0


class CountingWriter:
    """Stands where the ``StreamWriter`` stood; counts what is written.

    ``frame_bytes_per_op`` is the bytes that reach the socket, whatever
    the model accounting in ``ChannelStats`` says.
    """

    def __init__(self, inner: asyncio.StreamWriter,
                 frames: Optional[list[bytes]] = None) -> None:
        self.inner = inner
        self.bytes = 0
        self.frames = 0
        self._frames = frames

    def write(self, data: bytes) -> None:
        self.bytes += len(data)
        self.frames += 1
        if self._frames is not None and len(self._frames) < CORPUS_LIMIT:
            self._frames.append(data)
        self.inner.write(data)

    def is_closing(self) -> bool:
        return self.inner.is_closing()


async def _run(workload: Workload, seed: int, scale: float, started: float,
               kernel: Kernel, trace: Optional[TraceState], tracer: Any,
               sabotage: Optional[str]) -> tuple[dict[str, Any], Any]:
    config = RandomSessionConfig(
        n_sites=workload.n_sites, ops_per_site=workload.ops(scale), seed=seed)
    sched = AsyncioScheduler()
    if tracer is not None:
        tracer.bind_clock(lambda: sched.now)
    document = config.initial_document
    notifier = StarNotifier(sched, workload.n_sites, initial_state=document,
                            record_checks=False, tracer=tracer)
    clients = {
        site: StarClient(sched, site, initial_state=document,
                         record_checks=False, tracer=tracer)
        for site in range(1, workload.n_sites + 1)
    }
    frames = trace.corpus.frames if trace is not None else None
    writers: list[CountingWriter] = []
    channels: list[WireChannel] = []
    accepted: dict[int, asyncio.StreamReader] = {}
    all_accepted = asyncio.Event()

    async def accept(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        body = await read_frame(reader)
        hello = decode_frame(body) if body is not None else None
        if not isinstance(hello, Hello):
            raise RuntimeError("connection did not open with a HELLO frame")
        counting = CountingWriter(writer, frames)
        writers.append(counting)
        channel = WireChannel(sched, 0, hello.pid, counting)
        channels.append(channel)
        notifier.attach_channel(hello.pid, channel)
        accepted[hello.pid] = reader
        if len(accepted) == len(clients):
            all_accepted.set()

    server = await asyncio.start_server(accept, HOST, 0)
    port = server.sockets[0].getsockname()[1]
    dialed: dict[int, asyncio.StreamReader] = {}
    for site, client in clients.items():
        reader, writer = await asyncio.open_connection(HOST, port)
        counting = CountingWriter(writer, frames)
        writers.append(counting)
        counting.write(frame(encode_hello(site)))
        await writer.drain()
        channel = WireChannel(sched, site, 0, counting)
        channels.append(channel)
        client.attach_channel(0, channel)
        dialed[site] = reader
    await all_accepted.wait()

    tracker = OpTracker(workload.n_sites - 1, lambda: sched.now, wall=True)
    recorder = trace.recorder if trace is not None else None
    if trace is not None:
        instrument(notifier, trace, "editor.notifier_handle", "wire.send",
                   track_transit=True)
        for client in clients.values():
            instrument(client, trace, "editor.client_handle", "wire.send",
                       track_transit=True)

    def pumping(reader: asyncio.StreamReader, endpoint: Any) -> asyncio.Future:
        on_message = endpoint.on_message
        if trace is not None:
            reader = StampingReader(reader)
            on_message = spanned_arrival(endpoint, trace, reader)
        return asyncio.ensure_future(
            pump(reader, tracker.watch(endpoint, on_message, endpoint is notifier)))

    pumps = [pumping(accepted[site], notifier) for site in clients] + [
        pumping(dialed[site], client) for site, client in clients.items()]

    remaining = {site: config.ops_per_site for site in clients}
    rngs = {site: random.Random(seed * 7919 + site) for site in clients}
    owner: dict[str, int] = {}
    attempted = 0
    lost = 0
    completed = 0
    finished = asyncio.Event()
    slices: list[float] = []
    marks: list[int] = []  # latency samples taken by the end of each slice
    kernel_s: list[float] = []
    slice_started = kernel_done = 0.0
    drop_at = config.ops_per_site // 2 if sabotage == "drop-op" else -1

    def fire(site: int) -> None:
        nonlocal attempted, lost
        client = clients[site]
        span = recorder.enter("bench.driver") if recorder is not None else -1
        op = random_positional_op(rngs[site], client.document, config)
        remaining[site] -= 1
        attempted += 1
        op_id = (None if site == 1 and remaining[site] == drop_at
                 else tracked_generate(client, op, tracker, recorder))
        if op_id is None:
            lost += 1
            advance(site)
        else:
            owner[op_id] = site
        if recorder is not None:
            recorder.exit(span)

    def advance(site: int) -> None:
        """The site's outstanding op is settled: next one, or done."""
        if remaining[site] > 0:
            sched.schedule_after(0.0, lambda: fire(site))
        elif not any(remaining.values()) and completed + lost == attempted:
            finished.set()

    def on_complete(op_id: str) -> None:
        nonlocal completed, slice_started, kernel_done
        if tracker.generated_at(op_id) < kernel_done:
            # In flight while the kernel ran: it waited for the bench,
            # not for the program.
            tracker.e2e_s.pop()
        completed += 1
        if completed % SLICE_OPS == 0:
            slices.append(perf_counter() - slice_started)
            marks.append(len(tracker.e2e_s))
            kernel_s.append(kernel())
            slice_started = kernel_done = perf_counter()
        advance(owner[op_id])

    tracker.on_complete = on_complete

    setup_s = perf_counter() - started
    kernel_s.append(kernel())
    slice_started = perf_counter()
    for site in clients:
        fire(site)
    await finished.wait()
    if completed % SLICE_OPS:
        slices.append(perf_counter() - slice_started)
        marks.append(len(tracker.e2e_s))
        kernel_s.append(kernel())

    # Teardown: hang up the dialing side, let the accepting side's pumps
    # see EOF, then close what is left.  Every task is awaited so nothing
    # is reported from a dying loop.
    for counting in writers:
        counting.inner.close()
    for counting in writers:
        try:
            await asyncio.wait_for(counting.inner.wait_closed(), TEARDOWN_TIMEOUT_S)
        except (ConnectionError, asyncio.TimeoutError):
            pass
    _, pending = await asyncio.wait(pumps, timeout=TEARDOWN_TIMEOUT_S)
    for task in pending:
        task.cancel()
    pump_errors = [
        repr(result)
        for result in await asyncio.gather(*pumps, return_exceptions=True)
        if isinstance(result, Exception) and not isinstance(result, ConnectionError)
    ]
    server.close()
    await server.wait_closed()

    endpoints = [notifier, *clients.values()]
    errors = [f"pump failed: {error}" for error in pump_errors]
    if sabotage == "diverge":
        clients[1].document += "!"
    if any(endpoint.document != notifier.document for endpoint in endpoints):
        errors.append("replicas hold different documents")
    failed = min(attempted, lost + tracker.incomplete())
    if failed:
        errors.append(f"{failed} of {attempted} ops not integrated everywhere")

    record: dict[str, Any] = {
        "ops": attempted,
        "failed": failed,
        "errors": errors,
        "setup_s": setup_s,
        "wall_s": sum(slices),
        "slices_s": slices,
        "kernel_s": kernel_s,
        "e2e_s": tracker.e2e_s,
        "e2e_marks": marks,
        "vt_e2e": [],
        "model_bytes": sum(ch.stats.total_bytes for ch in channels),
        "messages": sum(ch.stats.messages for ch in channels),
        "frame_bytes": sum(w.bytes for w in writers),
        "frames": sum(w.frames for w in writers),
        "events": sched.processed_events,
        "hb_entries_max": max(len(endpoint.hb) for endpoint in endpoints),
        "check_records": sum(len(endpoint.checks) for endpoint in endpoints),
        **transport_counters(endpoints),
    }
    return record, notifier


def run_wire(workload: Workload, seed: int, scale: float, started: float,
             kernel: Kernel, *, trace: Optional[TraceState] = None, tracer: Any = None,
             sabotage: Optional[str] = None) -> tuple[dict[str, Any], Any]:
    """One pass over the rig; returns the pass record and the notifier."""
    return asyncio.run(
        _run(workload, seed, scale, started, kernel, trace, tracer, sabotage))
