"""Layer stands: a layer's public functions, timed alone on real traffic.

Some layers have no boundary perfbench can wrap from outside
(``compress_for_destination`` is called from inside the notifier's
handler; the codec from inside ``WireChannel.send`` and ``pump``; the
schedulers fire events between the spans).  For those the traced
pass keeps the real messages, frames and timestamps that crossed the
boundaries it *can* see, and a stand calls the layer's public function
on that corpus: at least 10**4 calls in ten batches, reported as the
mean of the best three batches, in microseconds per call.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Callable, Sequence

from repro.core.concurrency import client_concurrent, notifier_concurrent
from repro.core.timestamp import CompressedTimestamp
from repro.editor.messages import OpMessage
from repro.net.codec import decode_op_message, encode_op_message
from repro.net.holdback import HoldbackQueue
from repro.net.scheduler import AsyncioScheduler
from repro.net.simulator import Simulator
from repro.net.wire import read_frame

BATCHES = 10
BEST = 3
BATCH_CALLS = 1000  # ten batches: 10**4 calls per stand


def best_mean(values: Sequence[float]) -> float:
    """Mean of the three smallest: a stand is a tight loop with nothing
    to calibrate against, and disturbance only ever adds time."""
    kept = sorted(values)[:BEST]
    return sum(kept) / len(kept)


def per_call_us(batch: Callable[[], int]) -> float:
    """``batch()`` makes some calls and returns how many; microseconds
    per call over the best three of ten batches."""
    samples = []
    for _ in range(BATCHES):
        t0 = perf_counter()
        calls = batch()
        samples.append((perf_counter() - t0) / calls)
    return best_mean(samples) * 1e6


def _cycled(corpus: Sequence[Any]) -> list[Any]:
    """``corpus`` repeated up to one batch's worth of calls."""
    reps = -(-BATCH_CALLS // len(corpus))
    return list(corpus) * reps


def op_messages(envelopes: Sequence[Any]) -> list[OpMessage]:
    out = []
    for envelope in envelopes:
        payload = envelope.payload
        if hasattr(payload, "seq"):
            payload = payload.payload
        if isinstance(payload, OpMessage):
            out.append(payload)
    return out


def compress_us(sv: Any) -> float:
    dests = _cycled(range(1, sv.n_sites + 1))

    def batch() -> int:
        for dest in dests:
            sv.compress_for_destination(dest)
        return len(dests)

    return per_call_us(batch)


def check_us(client: Any, notifier: Any) -> float:
    """One formula-5 / formula-7 evaluation, weighted as the star sweeps
    them: every op is checked at N-1 clients and once at the notifier."""
    probe = CompressedTimestamp(len(client.hb) // 2, len(client.hb) // 4)
    client_entries = _cycled(
        [(entry.timestamp, entry.origin_kind) for entry in client.hb])
    notifier_entries = _cycled(
        [(entry.timestamp, entry.origin_site) for entry in notifier.hb])

    def at_client() -> int:
        for timestamp, kind in client_entries:
            client_concurrent(probe, timestamp, kind)
        return len(client_entries)

    def at_notifier() -> int:
        for timestamp, origin in notifier_entries:
            notifier_concurrent(probe, 1, timestamp, origin)
        return len(notifier_entries)

    remote = notifier.n_sites - 1
    return (remote * per_call_us(at_client) + per_call_us(at_notifier)) / (remote + 1)


def hold_pop_us() -> float:
    queue: HoldbackQueue[int] = HoldbackQueue(capacity=1024)
    seqs = list(range(BATCH_CALLS))

    def batch() -> int:
        for seq in seqs:
            queue.hold(1, seq, seq)
            queue.pop(1, seq)
        return len(seqs)

    return per_call_us(batch)


def sim_dispatch_us() -> tuple[float, float]:
    """``(schedule, fire)`` microseconds per no-op event."""
    round_events = 200  # about the heap depth of a running session

    def noop() -> None:
        pass

    schedule_s: list[float] = []
    fire_s: list[float] = []
    for _ in range(BATCHES):
        sim = Simulator()
        scheduling = firing = 0.0
        events = 0
        while events < BATCH_CALLS:
            t0 = perf_counter()
            for i in range(round_events):
                sim.schedule_after(i * 0.001, noop)
            t1 = perf_counter()
            sim.run()
            t2 = perf_counter()
            scheduling += t1 - t0
            firing += t2 - t1
            events += round_events
        schedule_s.append(scheduling / events)
        fire_s.append(firing / events)
    return best_mean(schedule_s) * 1e6, best_mean(fire_s) * 1e6


def asyncio_dispatch_us() -> float:
    """Schedule one no-op on an ``AsyncioScheduler`` and wait for it to
    fire, as the rig's closed loop does for every op."""

    async def run() -> float:
        sched = AsyncioScheduler()
        loop = asyncio.get_running_loop()
        samples = []
        for _ in range(BATCHES):
            t0 = perf_counter()
            for _ in range(BATCH_CALLS):
                fired = loop.create_future()
                sched.schedule_after(0.0, lambda: fired.set_result(None))
                await fired
            samples.append((perf_counter() - t0) / BATCH_CALLS)
        return best_mean(samples) * 1e6

    return asyncio.run(run())


def codec_us(messages: Sequence[OpMessage]) -> tuple[float, float, float]:
    """``(encode, decode)`` microseconds per message and mean encoded bytes."""
    batch_messages = _cycled(messages)
    encoded = [encode_op_message(message) for message in batch_messages]

    def encode() -> int:
        for message in batch_messages:
            encode_op_message(message)
        return len(batch_messages)

    def decode() -> int:
        for data in encoded:
            decode_op_message(data)
        return len(encoded)

    mean_bytes = sum(len(data) for data in encoded) / len(encoded)
    return per_call_us(encode), per_call_us(decode), mean_bytes


def _data_frames(frames: Sequence[bytes]) -> list[bytes]:
    """The corpus minus the two HELLO frames that open the connections."""
    return [data for data in frames if len(data) > 16]


def socket_receive_us(frames: Sequence[bytes]) -> float:
    """Loopback delivery of one frame, net of the ``write`` call: selector
    wake-up, ``recv``, stream buffering and ``read_frame``.  One frame in
    flight at a time, as in the rig's chain."""
    corpus = _cycled(_data_frames(frames))

    async def run() -> float:
        accepted: asyncio.Future[asyncio.StreamReader] = (
            asyncio.get_running_loop().create_future())

        async def accept(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
            accepted.set_result(reader)
            held.append(writer)

        held: list[asyncio.StreamWriter] = []
        server = await asyncio.start_server(accept, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        _, writer = await asyncio.open_connection("127.0.0.1", port)
        reader = await accepted
        samples = []
        for _ in range(BATCHES):
            receiving = 0.0
            for data in corpus:
                writer.write(data)
                written = perf_counter()
                await read_frame(reader)
                receiving += perf_counter() - written
            samples.append(receiving / len(corpus))
        for stream in (writer, *held):
            stream.close()
            try:
                await stream.wait_closed()
            except ConnectionError:
                pass
        server.close()
        await server.wait_closed()
        return best_mean(samples) * 1e6

    return asyncio.run(run())
