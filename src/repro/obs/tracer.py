"""The structured protocol tracer and the counters/histograms registry.

Every layer of the editor protocol stack (transport, causality,
integration, session -- see DESIGN.md "Architecture layers") accepts an
optional :class:`Tracer` and emits a :class:`TraceEvent` at each
protocol step an operation passes through: generation, transport send,
retransmission, hold-back, in-order release, transformation, execution,
crash and recovery.  Each event is stamped with the site, the virtual
time, and -- where the layer knows them -- the reliability epoch and
sequence number and the operation's compressed timestamp.

The module is deliberately zero-dependency (stdlib only) and sits below
every other ``repro`` package, so any layer may import it without
creating a cycle.

Overhead contract
-----------------
Tracing is **opt-in**.  The disabled path at every hook site is a single
attribute check (``if self.tracer is not None``) -- no event object is
built, no string is formatted, nothing is appended.  A session
constructed without a tracer therefore runs the exact same instruction
stream as before instrumentation, plus one pointer comparison per hook;
``benchmarks/test_trace_overhead.py`` reports what an attached tracer
costs beside it.  "No tracer" (``None``) and "a tracer" are the only
two states: a tracer that exists records.
"""

from __future__ import annotations

import enum
import json
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional, TextIO, Union

TRACE_FORMAT = "repro-obs-trace-v1"

#: Bumped whenever the JSONL schema changes shape.  Version 1 predates
#: the field (readers treat a missing value as 1); version 2 fixed the
#: event field order (canonical, not alphabetical) and added this
#: header field; version 3 added a ``span`` event kind and an ``ot``
#: (origin wall-clock time) field, which version 4 removed again: a
#: latency span is a view of the events the trace already records
#: (:mod:`repro.obs.spans`).  The ``sampled``, ``peer_lost`` and
#: ``finished`` kinds and the optional ``g`` field are a cluster
#: process's alone: no simulator session emits them, so its files did
#: not change shape.  Version 5 gives a client's ``transformed`` event a
#: ``seq``: the number of unacknowledged entries the arrival was
#: transformed against.
TRACE_SCHEMA_VERSION = 5


class TraceEventKind(enum.Enum):
    """The event taxonomy: what can happen to an operation in flight."""

    GENERATED = "generated"  # a site generated (and locally executed) an op
    SENT = "sent"  # the transport put an application payload on the wire
    RETRANSMITTED = "retransmitted"  # the reliability protocol resent a packet
    HELD_BACK = "held_back"  # an arrival was buffered awaiting its turn
    RELEASED = "released"  # an arrival was handed up to the editor
    TRANSFORMED = "transformed"  # an op was transformed against concurrent ops
    EXECUTED = "executed"  # a site executed a remote operation
    SNAPSHOT = "snapshot"  # the notifier served a state snapshot
    CRASHED = "crashed"  # a client lost its volatile state
    RECOVERED = "recovered"  # a client installed a snapshot and went active
    ELECTED = "elected"  # a successor accepted a notifier election
    PROMOTED = "promoted"  # the successor assumed the notifier role
    HANDOFF = "handoff"  # a client switched its centre to the successor
    HOLDBACK_OVERFLOW = "holdback_overflow"  # the reorder buffer hit capacity
    SAMPLED = "sampled"  # a cluster process traced its gauges (``gauges``)
    PEER_LOST = "peer_lost"  # a cluster process lost a connection (``via``)
    FINISHED = "finished"  # a cluster process's closing record: its last sample


@dataclass(frozen=True)
class TraceEvent:
    """One structured protocol event.

    ``index`` is the global emission index (the trace is appended in
    simulation order, so it is also a topological order of the causal
    structure the events describe).  Optional fields are ``None`` when
    the emitting layer does not know them: transport events carry
    ``epoch``/``seq`` but no compressed timestamp, editor events the
    reverse.  ``via`` qualifies releases (``"direct"`` vs
    ``"holdback"``), snapshots and recoveries (``"join"`` /
    ``"resync"`` / ``"failover"``) and lost connections (``"eof"`` /
    ``"terminal"`` / ``"garbled"``).  ``gauges`` is a ``SAMPLED``
    event's measurements, by gauge name; ``seq`` is then the sample's
    index.  A ``FINISHED`` event is the last sample, whose ``gauges``
    also hold the replica's ``document`` and the process's
    ``timed_out``.
    """

    index: int
    kind: TraceEventKind
    time: float
    site: int
    op_id: Optional[str] = None
    peer: Optional[int] = None
    epoch: Optional[int] = None
    seq: Optional[int] = None
    timestamp: Optional[tuple[int, ...]] = None
    source_op: Optional[str] = None
    via: Optional[str] = None
    gauges: Optional[dict[str, Any]] = field(default=None, hash=False)

    def to_json(self) -> str:
        """One compact JSON object; ``None`` fields are omitted.

        Fields are emitted in the canonical schema order (``i``,
        ``kind``, ``t``, ``site``, ``op``, ``peer``, ``epoch``, ``seq``,
        ``ts``, ``src``, ``via``, ``g``) -- not alphabetically -- so
        exports are deterministic *and* diff cleanly between runs.
        """
        data: dict[str, Any] = {
            "i": self.index,
            "kind": self.kind.value,
            "t": self.time,
            "site": self.site,
        }
        if self.op_id is not None:
            data["op"] = self.op_id
        if self.peer is not None:
            data["peer"] = self.peer
        if self.epoch is not None:
            data["epoch"] = self.epoch
        if self.seq is not None:
            data["seq"] = self.seq
        if self.timestamp is not None:
            data["ts"] = list(self.timestamp)
        if self.source_op is not None:
            data["src"] = self.source_op
        if self.via is not None:
            data["via"] = self.via
        if self.gauges is not None:
            data["g"] = self.gauges
        return json.dumps(data)

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        data = json.loads(line)
        timestamp = data.get("ts")
        return cls(
            index=int(data["i"]),
            kind=TraceEventKind(data["kind"]),
            time=float(data["t"]),
            site=int(data["site"]),
            op_id=data.get("op"),
            peer=data.get("peer"),
            epoch=data.get("epoch"),
            seq=data.get("seq"),
            timestamp=tuple(timestamp) if timestamp is not None else None,
            source_op=data.get("src"),
            via=data.get("via"),
            gauges=data.get("g"),
        )


class Histogram:
    """A plain value-recording histogram with summary statistics."""

    def __init__(self) -> None:
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def minimum(self) -> Optional[float]:
        """Smallest observed value, or ``None`` on an empty histogram."""
        if not self.values:
            return None
        return min(self.values)

    @property
    def maximum(self) -> Optional[float]:
        """Largest observed value, or ``None`` on an empty histogram."""
        if not self.values:
            return None
        return max(self.values)

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean, or ``None`` on an empty histogram."""
        if not self.values:
            return None
        return sum(self.values) / len(self.values)

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile, ``p`` in [0, 100].

        An empty histogram has no percentiles: returns ``None`` (callers
        serialise that as JSON ``null`` rather than crashing a whole
        report on one idle site).  A single-sample histogram returns
        that sample for every ``p``.  ``p`` outside [0, 100] is still a
        programming error and raises.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.values:
            return None
        ordered = sorted(self.values)
        rank = max(1, -(-int(p * len(ordered)) // 100))  # ceil without floats
        return ordered[min(rank, len(ordered)) - 1]

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other``'s observations into this histogram; returns self.

        Merging concatenates the raw samples, so every statistic of the
        merged histogram equals the statistic computed over the union of
        observations -- percentiles included, which per-bucket or
        per-summary merging cannot guarantee.  ``other`` is untouched.
        """
        self.values.extend(other.values)
        return self

    def summary(self) -> str:
        if not self.values:
            return "n=0"
        return (
            f"n={self.count} min={self.minimum:.4g} p50={self.percentile(50):.4g} "
            f"p95={self.percentile(95):.4g} max={self.maximum:.4g} "
            f"mean={self.mean:.4g}"
        )


class MetricsRegistry:
    """Named counters and histograms, created on first touch."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}

    def inc(self, name: str, by: int = 1) -> int:
        """Bump counter ``name`` by ``by``; returns the new value."""
        value = self._counters.get(name, 0) + by
        self._counters[name] = value
        return value

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self._counters.get(name, 0)

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = Histogram()
            self._histograms[name] = hist
        return hist

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry; returns ``self``.

        Counters add; histograms concatenate their recorded values, so a
        percentile over the merged registry is the percentile over the
        union of observations (not an average of per-process
        percentiles, which would be statistically meaningless).  The
        cluster monitor uses this to fold what it kept of every site's
        samples into one cross-process view.  ``other`` is left untouched.
        """
        for name, value in other._counters.items():
            self.inc(name, value)
        for name, hist in other._histograms.items():
            self.histogram(name).merge(hist)
        return self

    def counters(self) -> dict[str, int]:
        """A sorted snapshot of every counter."""
        return dict(sorted(self._counters.items()))

    def histograms(self) -> dict[str, Histogram]:
        return dict(sorted(self._histograms.items()))

    def summary(self) -> str:
        lines = [f"  {name} = {value}" for name, value in self.counters().items()]
        lines.extend(
            f"  {name}: {hist.summary()}"
            for name, hist in self.histograms().items()
        )
        return "\n".join(lines) if lines else "  (no metrics recorded)"


def _zero_clock() -> float:
    return 0.0


class Tracer:
    """Collects :class:`TraceEvent` records from every instrumented layer.

    A tracer is shared by all endpoints of a session; the session binds
    the simulator clock via :meth:`bind_clock` so events are stamped
    with virtual time.  The bundled :class:`MetricsRegistry` holds what
    the layers count beside their events (session runs, failover losses).

    Ring mode: constructed with ``mode="ring"``, the tracer keeps only
    the most recent :data:`DEFAULT_RING_CAPACITY` events in a bounded
    deque -- constant memory, for processes whose record is the file a
    bound sink streams to (every cluster process) rather than the list.
    ``index`` stays the global emission index either way (``emitted``
    counts every emission, evicted or not), so the ring is still a
    causally ordered slice of the full trace.
    """

    #: The bound of a ``mode="ring"`` tracer.
    DEFAULT_RING_CAPACITY = 256

    def __init__(self, *, mode: str = "full") -> None:
        if mode not in ("full", "ring"):
            raise ValueError(f"tracer mode must be 'full' or 'ring', got {mode!r}")
        self.events: "deque[TraceEvent] | list[TraceEvent]" = (
            deque(maxlen=self.DEFAULT_RING_CAPACITY) if mode == "ring" else []
        )
        self.emitted = 0
        self.metrics = MetricsRegistry()
        self._clock: Callable[[], float] = _zero_clock
        self._sink: Optional[Callable[["TraceEvent"], None]] = None

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Stamp subsequent events with ``clock()`` (the session's sim)."""
        self._clock = clock

    def bind_sink(self, sink: Optional[Callable[["TraceEvent"], None]]) -> None:
        """Stream every subsequent event to ``sink`` as it is emitted.

        The sink sees the event *after* it is appended to the in-memory
        buffer.  This is what lets a cluster process persist its trace
        incrementally (crash-safe, flush-per-event) instead of only at
        orderly shutdown -- a process that dies by ``os._exit`` still
        leaves every emitted event on disk.
        """
        self._sink = sink

    def emit(
        self,
        kind: TraceEventKind,
        site: int,
        *,
        op_id: Optional[str] = None,
        peer: Optional[int] = None,
        epoch: Optional[int] = None,
        seq: Optional[int] = None,
        timestamp: Optional[tuple[int, ...]] = None,
        source_op: Optional[str] = None,
        via: Optional[str] = None,
        gauges: Optional[dict[str, Any]] = None,
        time: Optional[float] = None,
    ) -> TraceEvent:
        """Append one event and return it."""
        event = TraceEvent(
            index=self.emitted,
            kind=kind,
            time=self._clock() if time is None else time,
            site=site,
            op_id=op_id,
            peer=peer,
            epoch=epoch,
            seq=seq,
            timestamp=timestamp,
            source_op=source_op,
            via=via,
            gauges=gauges,
        )
        self.events.append(event)
        self.emitted += 1
        if self._sink is not None:
            self._sink(event)
        return event

    def __len__(self) -> int:
        return len(self.events)


# -- serialisation ---------------------------------------------------------------


def trace_header(extra: Optional[dict[str, Any]] = None) -> dict[str, Any]:
    """The canonical header object: format, schema, then sorted extras."""
    head: dict[str, Any] = {
        "format": TRACE_FORMAT,
        "schema_version": TRACE_SCHEMA_VERSION,
    }
    if extra:
        for key in sorted(extra):
            if key not in ("format", "schema_version"):
                head[key] = extra[key]
    return head


def write_jsonl(
    events: Iterable[TraceEvent], fh: TextIO, header: Optional[dict[str, Any]] = None
) -> int:
    """Write a header line plus one JSON line per event; returns lines.

    The header always leads with ``format`` then ``schema_version``;
    any caller-supplied extras follow in sorted key order.  Together
    with the canonical event field order in
    :meth:`TraceEvent.to_json` this makes exports byte-deterministic:
    two runs of the same seeded scenario produce identical files.

    The stream is flushed before returning, so a caller that crashes
    *after* this call still leaves a complete file behind.  For files
    that grow record-by-record over a process's lifetime (a cluster
    process's trace) use :class:`JsonlWriter`, which flushes after every
    record.
    """
    fh.write(json.dumps(trace_header(header)) + "\n")
    count = 1
    for event in events:
        fh.write(event.to_json() + "\n")
        count += 1
    fh.flush()
    return count


class JsonlWriter:
    """A crash-safe streaming JSONL writer: one flushed line per record.

    :func:`write_jsonl` writes a finished trace in one shot; this class
    is for streams that must survive the writer dying mid-run.  Every
    ``write_line`` is followed by a ``flush()``, so at any instant the
    file on disk is a complete prefix of whole records -- the only
    possible damage from a hard kill is a torn *final* line, which
    :func:`read_jsonl` in ``lenient`` mode drops instead of raising.
    Usable as a context manager; ``close()`` is idempotent and fsyncs
    best-effort so the bytes outlive the process.
    """

    def __init__(self, path: Union[str, Path],
                 header: Optional[dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self._fh: Optional[TextIO] = self.path.open("w", encoding="utf-8")
        if header is not None:
            self.write_line(json.dumps(header))

    @property
    def closed(self) -> bool:
        return self._fh is None

    def write_line(self, text: str) -> None:
        """Append one record line and flush it to the OS immediately."""
        if self._fh is None:
            raise ValueError(f"writer for {self.path} is closed")
        self._fh.write(text + "\n")
        self._fh.flush()

    def write_event(self, event: TraceEvent) -> None:
        self.write_line(event.to_json())

    def close(self) -> None:
        """Flush, fsync (best-effort), and close; safe to call twice."""
        fh = self._fh
        if fh is None:
            return
        self._fh = None
        fh.flush()
        try:
            os.fsync(fh.fileno())
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        fh.close()

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(
    fh: TextIO, *, lenient: bool = False
) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Read a trace written by :func:`write_jsonl`; (header, events).

    ``lenient`` tolerates a torn final line (a process killed mid-write
    through :class:`JsonlWriter` can leave at most one): a trailing line
    that fails to parse is dropped instead of failing the whole read.
    A malformed line *before* the end is still an error -- that is
    corruption, not a crash artifact -- and so is another ``schema_version``.
    """
    lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace file")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"unknown trace format {header.get('format')!r}")
    if header.get("schema_version") != TRACE_SCHEMA_VERSION:
        raise ValueError(f"unsupported trace schema {header.get('schema_version')!r}")
    events: list[TraceEvent] = []
    for position, line in enumerate(lines[1:], start=2):
        try:
            events.append(TraceEvent.from_json(line))
        except (ValueError, KeyError, TypeError):
            if lenient and position == len(lines):
                break  # torn final record: the crash the writer allows
            raise
    return header, events


class Origins:
    """Which generation an execution executes: the one pairing rule.

    Fed a trace in order through :meth:`see`, it keeps each op's latest
    ``GENERATED`` event (a re-issued name) and maps a transformed op to
    its source (the first ``TRANSFORMED`` event's ``source_op``), so the
    notifier's broadcast form pairs with the client op it was made from.
    """

    def __init__(self) -> None:
        #: op id -> its latest ``GENERATED`` event.
        self.generated: dict[str, TraceEvent] = {}
        self._source: dict[str, str] = {}

    def see(self, event: TraceEvent) -> Optional[TraceEvent]:
        """Record ``event``; for an ``EXECUTED`` one, return the
        ``GENERATED`` event of the operation it executes (``None`` when
        that generation is outside the trace window)."""
        op_id = event.op_id
        if op_id is None:
            return None
        if event.kind is TraceEventKind.GENERATED:
            self.generated[op_id] = event
        elif event.kind is TraceEventKind.TRANSFORMED:
            if event.source_op is not None:
                self._source.setdefault(op_id, event.source_op)
        elif event.kind is TraceEventKind.EXECUTED:
            return self.origin(op_id)
        return None

    def origin(self, op_id: str) -> Optional[TraceEvent]:
        """The ``GENERATED`` event of ``op_id``, or of the op it was
        transformed from (``None`` outside the trace window)."""
        return self.generated.get(self._source.get(op_id, op_id))


def write_chrome_trace(events: Iterable[TraceEvent], fh: TextIO) -> int:
    """Export in Chrome ``trace_event`` format (load in chrome://tracing).

    Each protocol event becomes an instant event on the emitting site's
    track (pid = site), and every operation additionally gets an async
    span from its generation to its last execution, so per-op
    end-to-end latency is visible as a bar.  Virtual time is mapped
    1 s -> 1 ms of trace time (the ``ts`` field is microseconds).
    Returns the number of trace records written.
    """
    records: list[dict[str, Any]] = []
    spans: dict[str, tuple[float, float]] = {}  # op -> (first gen, last exec)
    origins = Origins()
    for event in events:
        args: dict[str, Any] = {"index": event.index}
        if event.op_id is not None:
            args["op"] = event.op_id
        if event.peer is not None:
            args["peer"] = event.peer
        if event.epoch is not None:
            args["epoch"] = event.epoch
        if event.seq is not None:
            args["seq"] = event.seq
        if event.timestamp is not None:
            args["timestamp"] = list(event.timestamp)
        if event.source_op is not None:
            args["source_op"] = event.source_op
        if event.via is not None:
            args["via"] = event.via
        records.append(
            {
                "name": event.kind.value,
                "cat": "protocol",
                "ph": "i",
                "s": "t",  # thread-scoped instant
                "ts": event.time * 1000.0,
                "pid": event.site,
                "tid": 0,
                "args": args,
            }
        )
        origin = origins.see(event)
        if origin is not None:
            spans[origin.op_id] = (origin.time, event.time)
        elif event.kind is TraceEventKind.GENERATED and event.op_id is not None:
            spans.setdefault(event.op_id, (event.time, event.time))
    for op_id, (start, end) in sorted(spans.items()):
        for phase, ts in (("b", start), ("e", end)):
            records.append(
                {
                    "name": f"op {op_id}",
                    "cat": "op",
                    "ph": phase,
                    "id": op_id,
                    "ts": ts * 1000.0,
                    "pid": 0,
                    "tid": 0,
                }
            )
    json.dump({"traceEvents": records, "displayTimeUnit": "ms"}, fh)
    return len(records)
