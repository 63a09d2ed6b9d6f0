"""``python -m repro monitor``: one view of every site, from the traces.

Each cluster process writes one crash-safe stream, its
``trace_<site>.jsonl`` (one flushed line per event -- see
:class:`repro.obs.tracer.JsonlWriter`), and the monitor builds its whole
view from those files.  A :class:`TelemetryTailer` tails them and keeps
each site's :class:`~repro.obs.telemetry.TelemetryFrame`; it renders one
line per interval:

    t=2.10s sites=4/4 exec=9/9/9/9 gen=9 hold=0(hw 2) infl=0 rtx=0 \
store=11 q=3 epoch=0 digests=ok

Where a frame's gauges come from:

* *derived* -- a gauge whose counter is bumped by the statement that
  emits an event is that event's count in the site's trace:
  ``ops_generated`` (``generated``), ``retransmits``
  (``retransmitted``), ``elected``, ``promoted``, ``resynced``
  (``recovered`` with ``via="failover"``), and ``epoch`` (the last
  ``promoted`` or failover ``recovered`` epoch).  They count over the
  process's whole life, across a promotion too.  ``e2e_p95_ms`` pairs
  each ``executed`` event with its ``generated`` one across the traces
  through :class:`~repro.obs.tracer.Origins`: the p95 of the executing
  site's last 64 remote latencies;
* *sampled* -- every other gauge rides in the periodic ``sampled``
  event's gauge dict, and a ``sampled`` event is what makes a new frame
  (as does the ``finished`` event that closes a trace: the last sample).

What a process traces about its own faults is graded into the same
:class:`~repro.obs.telemetry.HealthEvent` records the watchdogs make:
a ``crashed`` event, a lost connection (``peer_lost``, by ``via``), and
the ``elected`` / ``promoted`` / ``handoff`` steps of a failover.

Tailing is incremental: the tailer keeps a byte cursor per file and each
interval parses only the lines appended since the previous poll -- every
line is parsed exactly once over the monitor's lifetime, however long
the run.  Every event enters through :meth:`TelemetryTailer.ingest`, and
an event is new iff its ``index`` is above its site's latest.  Of a
sample the monitor keeps the latest frame per site and the values of the
``keep="series"`` gauges, so an interval costs the sites plus the lines
that arrived in it.

The monitor is where cross-site verdicts are made.  Each trace header
says what the run is (``sites``, ``expected_ops``), and from it the
monitor builds the four watchdogs of :mod:`repro.obs.telemetry` and
feeds them every frame, each site's in ``seq`` order.  Silence is
clocked by each trace file's modification time, measured against the
newest file's, so a run whose processes end together flags nobody and
``--once`` can still judge who stopped early; a site whose own trace
recorded its ``crashed`` event was graded there and is not flagged
silent again.  The divergence sentinel is the one divergence rule:
``digests=DIVERGED`` and exit code 2 say the same thing.

``--follow`` turns the interval lines into a live per-site dashboard
with unicode sparklines (ops/sec, hold-back depth, in-flight window,
end-to-end latency) when stdout is a TTY, and degrades to the plain
deterministic line output when piped.

On exit (or with ``--once``, immediately) it writes a final
``monitor.jsonl`` artifact: the aggregation header, every interval
snapshot, and every health event observed -- the machine-readable
record of what the live view showed.

Reading is deliberately lenient: a process killed mid-write leaves at
most one torn trailing line, and the monitor's whole purpose is to work
*during* failures, so undecodable trailing records are skipped rather
than fatal.
"""

from __future__ import annotations

import json
import sys
import time as _time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.obs.telemetry import (
    CausalStallWatchdog,
    DivergenceSentinel,
    HealthEvent,
    RetransmitStormWatchdog,
    SilenceWatchdog,
    TelemetryFrame,
    Watchdog,
)
from repro.obs.tracer import (TRACE_SCHEMA_VERSION, Histogram, JsonlWriter,
                              MetricsRegistry, Origins, TraceEvent,
                              TraceEventKind)

MONITOR_FORMAT = "repro-obs-monitor-v1"
#: Version 2: the header names the trace schema the frames were built
#: from, not a telemetry stream's.
MONITOR_SCHEMA_VERSION = 2


# -- reading the traces --------------------------------------------------------


# ``TelemetryFrame``'s declarations, as the monitor reads them: how a
# gauge folds across sites (with the value of an empty fold), what the
# final registry keeps of it, and which ride in a ``sampled`` event.
_FOLDS = [(spec.name, spec.metadata["fold"], spec.default)
          for spec in fields(TelemetryFrame) if spec.metadata["fold"]]
_KEPT = {keep: [spec.name for spec in fields(TelemetryFrame)
                if spec.metadata["keep"] == keep]
         for keep in ("latest", "series")}
SAMPLED_GAUGES = tuple(spec.name for spec in fields(TelemetryFrame)
                       if spec.metadata["sampled"])

#: The derived counters: the gauge each event kind counts (a
#: ``recovered`` event only with ``via="failover"``).
_COUNTED = {
    TraceEventKind.GENERATED: "ops_generated",
    TraceEventKind.RETRANSMITTED: "retransmits",
    TraceEventKind.ELECTED: "elected",
    TraceEventKind.PROMOTED: "promoted",
    TraceEventKind.RECOVERED: "resynced",
}

#: What a site traces about its own faults, graded: (kind, via) -> the
#: health kind, its verdict and its detail (none of these kinds but
#: ``peer_lost`` is traced with a ``via``).  A crash alone is
#: survivable; the survivors' ``peer_lost`` events say whether it was.
_GRADES = {
    (TraceEventKind.CRASHED, None): ("crash", "warn", "traced its crash"),
    (TraceEventKind.PEER_LOST, "eof"): (
        "peer_dead", "warn", "connection closed mid-run; re-electing"),
    (TraceEventKind.PEER_LOST, "terminal"): (
        "peer_dead", "fail", "connection closed mid-run; no failover left"),
    (TraceEventKind.PEER_LOST, "garbled"): (
        "member_garbled", "warn", "hung up on for a frame it may not send"),
    (TraceEventKind.ELECTED, None): (
        "failover_elected", "warn", "elected for epoch {epoch}"),
    (TraceEventKind.PROMOTED, None): (
        "failover_promoted", "warn", "promoted to notifier at epoch {epoch}"),
    (TraceEventKind.HANDOFF, None): (
        "failover_rehomed", "warn", "re-homed to successor {peer}"),
}


class TelemetryTailer:
    """The monitor's state: every event enters by :meth:`ingest`.

    :meth:`poll` keeps one byte cursor per ``trace_*.jsonl`` file; each
    call consumes only the *complete* lines appended since (a partial
    line that a writer is mid-flush on stays unconsumed until its
    newline lands) -- so a line is parsed exactly once over the
    tailer's lifetime, which :attr:`records_parsed` counts and the
    exactly-once unit test pins.  A ``sampled`` (or ``finished``) event
    becomes the site's frame in :attr:`latest` and is folded into
    :attr:`kept` and handed to the :attr:`watchdogs` at once: no list of
    frames is held.  A poll pairs the new executions first, so a frame is
    built with its site's derived ``e2e_p95_ms`` and that series fills as
    any other's.
    """

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out_dir = Path(out_dir)
        self._offsets: dict[Path, int] = {}
        #: Each trace file's modification time at the last poll.
        self._mtimes: dict[Path, float] = {}
        #: Per site, its trace's modification time when its latest
        #: event was read: the silence watchdog's arrival clock (less
        #: ``_t0``, as every time reported).
        self._heard: dict[int, float] = {}
        #: Per site, the index of its latest event, and its role.
        self._index: dict[int, int] = {}
        self._roles: dict[int, str] = {}
        #: Per site, its derived counters so far.
        self._derived: dict[int, dict[str, int]] = {}
        #: Sites whose own trace recorded their crash.
        self._crashed: set[int] = set()
        #: The earliest instant the first poll read (wall clock, as the
        #: processes stamp their events): the zero of every time the
        #: monitor reports.
        self._t0: Optional[float] = None
        #: Trace lines parsed from files.
        self.records_parsed = 0
        #: The run's size, from a trace header (``None`` before one).
        self.sites: Optional[int] = None
        #: The verdict machines the trace header asked for.
        self.watchdogs: list[Watchdog] = []
        #: The newest frame of each site: all an interval reads.
        self.latest: dict[int, TelemetryFrame] = {}
        #: The frame count and every sampled value of the series gauges.
        self.kept = MetricsRegistry()
        self._origins = Origins()
        #: Executions whose generation no poll has read yet.
        self._unpaired: list[TraceEvent] = []
        #: Per executing site, its last 64 latencies (ms).
        self._e2e: dict[int, deque[float]] = {}

    def ingest(self, event: TraceEvent) -> list[HealthEvent]:
        """Offer an event; returns its grade and, for a sample, the
        watchdogs' verdicts on the frame it makes (none for an event that
        is not new: its ``index`` is not above its site's latest)."""
        site = event.site
        if event.index <= self._index.get(site, -1):
            return []
        self._index[site] = event.index
        if self._t0 is None:
            self._t0 = event.time
        kind = event.kind
        derived = self._derived.setdefault(site, {"epoch": 0})
        counted = _COUNTED.get(kind)
        if counted is not None and (kind is not TraceEventKind.RECOVERED
                                    or event.via == "failover"):
            derived[counted] = derived.get(counted, 0) + 1
            if kind in (TraceEventKind.PROMOTED, TraceEventKind.RECOVERED):
                derived["epoch"] = event.epoch or 0
        if kind is TraceEventKind.SAMPLED or kind is TraceEventKind.FINISHED:
            return self._sample(event, derived)
        grade = _GRADES.get((kind, event.via))
        if grade is None:
            return []
        if kind is TraceEventKind.CRASHED:
            self._crashed.add(site)
        health_kind, verdict, detail = grade
        return [HealthEvent(time=event.time - self._t0, site=site, kind=health_kind,
                            verdict=verdict, peer=event.peer,
                            detail=detail.format(epoch=event.epoch,
                                                 peer=event.peer))]

    def _sample(self, event: TraceEvent,
                derived: dict[str, Any]) -> list[HealthEvent]:
        assert self._t0 is not None
        gauges = event.gauges or {}
        frame = self.latest[event.site] = self._with_e2e(TelemetryFrame(
            site=event.site, role=self._roles.get(event.site, ""),
            seq=event.seq or 0, time=event.time - self._t0, **derived,
            **{name: gauges[name] for name in SAMPLED_GAUGES if name in gauges}))
        self.kept.inc("telemetry.frames")
        for name in _KEPT["series"]:
            value = getattr(frame, name)
            if value is not None:
                self.kept.observe(f"telemetry.{name}", value)
        return [verdict for watchdog in self.watchdogs
                for verdict in watchdog.observe(frame)]

    def poll(self) -> list[HealthEvent]:
        """Ingest the events the traces gained since the last poll;
        returns their grades and the watchdogs' verdicts, oldest first."""
        events: list[TraceEvent] = []
        for path in sorted(self.out_dir.glob("trace_*.jsonl")):
            for record in self._read_new(path):
                if isinstance(record, TraceEvent):
                    events.append(record)
                    self._heard[record.site] = self._mtimes[path]
                else:
                    self._read_header(record)
        if self._t0 is None and events:
            self._t0 = min(event.time for event in events)
        self._pair([event for event in events
                    if event.index > self._index.get(event.site, -1)])
        health = [verdict for event in events for verdict in self.ingest(event)]
        for site, frame in self.latest.items():
            self.latest[site] = self._with_e2e(frame)
        if self._t0 is not None:
            newest = max(self._mtimes.values()) - self._t0
            # A site whose own trace recorded its crash was graded there:
            # its silence since says nothing new.
            health += [verdict for watchdog in self.watchdogs
                       for verdict in watchdog.check(newest)
                       if verdict.site not in self._crashed]
        health.sort(key=lambda e: (e.time, e.site, e.kind))
        return health

    def _pair(self, events: list[TraceEvent]) -> None:
        """New trace events, and the executions still waiting, through
        :class:`Origins` in time order: the files are read one after
        another, so an execution can be read a poll before its generation."""
        batch = sorted([*self._unpaired, *events],
                       key=lambda e: (e.time, e.kind is TraceEventKind.EXECUTED))
        self._unpaired = []
        for event in batch:
            origin = self._origins.see(event)
            if event.kind is not TraceEventKind.EXECUTED:
                continue
            if origin is None:
                self._unpaired.append(event)
            elif origin.site != event.site:  # remote executions only
                self._e2e.setdefault(event.site, deque(maxlen=64)).append(
                    (event.time - origin.time) * 1e3)

    def _with_e2e(self, frame: TelemetryFrame) -> TelemetryFrame:
        """``frame`` carrying its site's derived p95, once it has one."""
        window = self._e2e.get(frame.site)
        if not window:
            return frame
        latencies = Histogram()
        latencies.values.extend(window)
        return replace(frame, e2e_p95_ms=latencies.percentile(95))

    def _read_header(self, header: dict[str, Any]) -> None:
        """Note a trace header's role, and build the watchdogs the first
        header that describes the run asks for (a header that does not
        is no description)."""
        try:
            if "site" in header:
                self._roles[int(header["site"])] = str(header.get("role", ""))
            if "sites" not in header or self.watchdogs:
                return
            sentinel = DivergenceSentinel(expected_ops=int(header["expected_ops"]))
            self.sites = int(header["sites"])
        except (KeyError, TypeError, ValueError):
            return
        self.watchdogs = [
            RetransmitStormWatchdog(),
            CausalStallWatchdog(),
            sentinel,
            SilenceWatchdog(clock=self._heard_at),
        ]

    def _heard_at(self, site: int) -> float:
        assert self._t0 is not None
        return self._heard[site] - self._t0

    def registry(self) -> MetricsRegistry:
        """The cross-process registry: what was kept of every sample,
        each site's latest cumulative counters summed, and the monitor's
        own count."""
        registry = MetricsRegistry().merge(self.kept)
        for site in sorted(self.latest):
            for name in _KEPT["latest"]:
                registry.inc(f"telemetry.{name}", getattr(self.latest[site], name))
        registry.inc("monitor.records_parsed", self.records_parsed)
        return registry

    def _read_new(self, path: Path) -> Iterator[Union[TraceEvent, dict[str, Any]]]:
        """The events ``path`` gained, and its header (a dict) when the
        file is read from its start."""
        offset = self._offsets.get(path, 0)
        try:
            stat = path.stat()
            self._mtimes[path] = stat.st_mtime
            size = stat.st_size
            if size < offset:
                offset = 0  # truncated/rewritten file: start over
            if size == offset:
                return
            with path.open("rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
        except OSError:
            return  # vanished mid-poll; next poll sees the final state
        end = chunk.rfind(b"\n")
        if end < 0:
            return  # no complete line yet: leave the cursor put
        self._offsets[path] = offset + end + 1
        for raw in chunk[:end].split(b"\n"):
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                if not isinstance(data, dict):
                    continue
                if "kind" not in data:
                    yield data  # the header
                    continue
                self.records_parsed += 1
                yield TraceEvent.from_json(line)
            except (ValueError, KeyError, TypeError):
                continue  # torn line from a killed writer


# -- aggregation ---------------------------------------------------------------


def _health_line(event: HealthEvent) -> str:
    return (f"  health: [{event.verdict}] site {event.site} {event.kind}"
            + (f" (peer {event.peer})" if event.peer is not None else "")
            + (f": {event.detail}" if event.detail else ""))


@dataclass
class MonitorSnapshot:
    """One aggregated interval: the latest frame per site, folded.

    ``expected_sites`` is the run's size as its trace header says;
    ``digests_agree`` is False once the divergence sentinel has flagged
    a pair of complete replicas.
    """

    time: float
    latest: dict[int, TelemetryFrame] = field(default_factory=dict)
    health: list[HealthEvent] = field(default_factory=list)
    expected_sites: Optional[int] = None
    digests_agree: bool = True

    @property
    def sites(self) -> list[int]:
        return sorted(self.latest)

    @cached_property
    def totals(self) -> dict[str, Any]:
        """Every folded gauge as its declaration says: summed, or the
        maximum, over the sites that report it (``None`` if none does),
        or one value per site."""
        totals: dict[str, Any] = {}
        for name, fold, empty in _FOLDS:
            values = {site: getattr(self.latest[site], name) for site in self.sites}
            present = [v for v in values.values() if v is not None]
            totals[name] = (values if fold == "site"
                            else sum(present) if fold == "sum"
                            else max(present, default=empty))
        return totals

    @property
    def sites_column(self) -> str:
        """``K/N`` sites reporting of those the run has (``K`` alone
        before a header said)."""
        count = len(self.latest)
        return f"{count}/{self.expected_sites}" if self.expected_sites else str(count)

    def line(self) -> str:
        """The live one-line-per-interval rendering."""
        totals = self.totals
        text = (
            "t={time:8.2f}s sites={sites} exec={executed} "
            "gen={ops_generated} hold={holdback_depth}"
            "(hw {holdback_high_water}) infl={inflight} "
            "rtx={retransmits} store={storage_ints} "
            "q={queue_depth} epoch={epoch} digests={digests}"
        ).format(
            time=self.time,
            sites=self.sites_column,
            executed="/".join(map(str, totals["ops_executed"].values())) or "-",
            digests="ok" if self.digests_agree else "DIVERGED",
            **totals,
        )
        if totals["e2e_p95_ms"] is not None:
            text += f" e2e={totals['e2e_p95_ms']:.1f}ms"
        failover = [totals[name] for name in
                    ("elected", "promoted", "resynced", "degraded_queued")]
        if any(failover):
            # The epoch transition, live: elections opened, promotions
            # completed, members resynced under the new centre, edits
            # queued while leaderless.
            text += " failover={}e/{}p/{}r dq={}".format(*failover)
        return "\n".join([text, *map(_health_line, self.health)])

    def to_json(self) -> str:
        return json.dumps({
            "rec": "interval",
            "time": self.time,
            "sites": self.sites,
            # An optional gauge no site reports is left out, as in a frame.
            **{k: v for k, v in self.totals.items() if v is not None},
            "digests_agree": self.digests_agree,
            "health": [json.loads(e.to_json()) for e in self.health],
        })


def aggregate(
    latest: dict[int, TelemetryFrame],
    health: Sequence[HealthEvent] = (),
    *,
    expected_sites: Optional[int] = None,
    digests_agree: bool = True,
) -> MonitorSnapshot:
    """One interval's snapshot of the latest frame per site (copied: the
    caller's mapping moves on)."""
    newest = max((frame.time for frame in latest.values()), default=0.0)
    return MonitorSnapshot(time=newest, latest=dict(latest), health=list(health),
                           expected_sites=expected_sites,
                           digests_agree=digests_agree)


# -- the follow view -----------------------------------------------------------


#: Eight block heights, the classic terminal sparkline alphabet.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 12) -> str:
    """The last ``width`` values as unicode block heights.

    Scaled against the window maximum (an all-zero window renders as a
    flat floor), so the shape shows *relative* movement -- which is what
    a human scans a dashboard for.
    """
    tail = [max(0.0, float(v)) for v in list(values)[-width:]]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return SPARK_BLOCKS[0] * len(tail)
    steps = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[min(steps, round(v / top * steps))] for v in tail
    )


class FollowView:
    """Per-site gauge history and rendering for ``monitor --follow``.

    Each :meth:`update` appends one interval's gauges per site; on a TTY
    :meth:`render` redraws a whole-screen dashboard (ANSI home + clear,
    one row per site with sparklines for ops/sec, hold-back depth,
    in-flight window and end-to-end latency, plus failover/degraded
    markers); piped, it falls back to the deterministic one-line
    rendering -- same information, diffable in CI logs.
    """

    #: Sparkline window (intervals) kept per gauge.
    WINDOW = 24
    #: The gauges drawn as sparklines, beside the ops/sec derived here.
    PLOTTED = ("holdback_depth", "inflight", "e2e_p95_ms")

    def __init__(self) -> None:
        self.intervals = 0
        self._history: dict[int, dict[str, deque[float]]] = {}
        self._prev: dict[int, TelemetryFrame] = {}
        self._recent_health: deque[HealthEvent] = deque(maxlen=6)

    def update(self, snapshot: MonitorSnapshot) -> None:
        self.intervals += 1
        self._recent_health.extend(snapshot.health)
        for site, frame in snapshot.latest.items():
            hist = self._history.setdefault(site, {
                name: deque(maxlen=self.WINDOW) for name in ("rate", *self.PLOTTED)
            })
            prev = self._prev.get(site)
            rate = 0.0
            if prev is not None and frame.time > prev.time:
                rate = max(0, frame.ops_executed - prev.ops_executed) / (
                    frame.time - prev.time
                )
            hist["rate"].append(rate)
            for name in self.PLOTTED:
                hist[name].append(float(getattr(frame, name) or 0))
            self._prev[site] = frame

    def _markers(self, frame: TelemetryFrame) -> str:
        flags = []
        if frame.promoted:
            flags.append("PROMOTED")
        elif frame.resynced:
            flags.append("REHOMED")
        elif frame.elected:
            flags.append("ELECTED")
        if frame.degraded_queued:
            flags.append(f"DEGRADED({frame.degraded_queued})")
        return f" [{' '.join(flags)}]" if flags else ""

    def render(self, snapshot: MonitorSnapshot, *, tty: bool) -> str:
        if not tty:
            return snapshot.line()
        digests = "ok" if snapshot.digests_agree else "DIVERGED"
        lines = [
            f"repro monitor --follow   t={snapshot.time:.2f}s  "
            f"sites={snapshot.sites_column}  "
            f"epoch={snapshot.totals['epoch']}  digests={digests}  "
            f"interval #{self.intervals}",
            "",
        ]
        for site in sorted(self._history):
            frame = self._prev[site]
            hist = self._history[site]
            rate = hist["rate"][-1] if hist["rate"] else 0.0
            e2e = frame.e2e_p95_ms
            e2e_text = f"{e2e:6.1f}ms" if e2e is not None else "      --"
            stale = "" if site in snapshot.latest else " (stale)"
            lines.append(
                f"site {site} {frame.role:<8} exec {frame.ops_executed:>4} "
                f"| ops/s {rate:6.1f} {sparkline(hist['rate']):<12} "
                f"| hold {frame.holdback_depth:>3} "
                f"{sparkline(hist['holdback_depth']):<12} "
                f"| infl {frame.inflight:>3} "
                f"{sparkline(hist['inflight']):<12} "
                f"| e2e {e2e_text} {sparkline(hist['e2e_p95_ms']):<12}"
                f"{self._markers(frame)}{stale}"
            )
        if self._recent_health:
            lines.append("")
            lines.extend(map(_health_line, self._recent_health))
        # Home the cursor and clear to end of screen: a flicker-free
        # redraw without pulling in any terminal library.
        return "\x1b[H\x1b[J" + "\n".join(lines)


# -- the live loop -------------------------------------------------------------


def run_monitor(
    out_dir: Union[str, Path],
    *,
    interval_s: float = 1.0,
    duration_s: Optional[float] = None,
    once: bool = False,
    artifact: Optional[Union[str, Path]] = None,
    follow: bool = False,
    max_intervals: Optional[int] = None,
    tty: Optional[bool] = None,
    emit: Callable[[str], None] = print,
    clock: Callable[[], float] = _time.monotonic,
    sleep: Callable[[float], None] = _time.sleep,
) -> int:
    """Tail ``out_dir``'s traces, print interval lines, write the artifact.

    With ``once``, aggregates whatever is on disk right now, prints a
    single line, writes the artifact, and returns -- the CI probe mode.
    Otherwise loops every ``interval_s`` until ``duration_s`` elapses or
    ``max_intervals`` rounds have run (or forever when neither is set;
    the live loop also stops once every expected site has gone quiet
    for a few intervals).  All reading goes through one
    :class:`TelemetryTailer`, so each interval parses only the newly
    appended lines, and every verdict -- the grades of what the sites
    traced and the watchdogs' -- reaches the exit code.  ``follow``
    renders the sparkline dashboard on a TTY (``tty=None`` autodetects
    stdout) and plain lines otherwise.

    Returns 0 if any sample was seen and no ``fail`` health verdict
    surfaced (divergence is one), 2 on a ``fail`` verdict, 1 if no
    sample ever appeared.
    """
    out_path = Path(out_dir)
    artifact_path = Path(artifact) if artifact else out_path / "monitor.jsonl"
    started = clock()
    tailer = TelemetryTailer(out_path)
    view = FollowView() if follow else None
    if tty is None:
        tty = bool(getattr(sys.stdout, "isatty", lambda: False)())
    snapshots: list[MonitorSnapshot] = []
    all_health: list[HealthEvent] = []
    idle_rounds = rounds = accepted = 0

    while True:
        fresh = tailer.poll()
        all_health.extend(fresh)
        if tailer.latest:
            snapshot = aggregate(
                tailer.latest, fresh, expected_sites=tailer.sites,
                digests_agree=not any(e.kind == "divergence" for e in all_health))
            snapshots.append(snapshot)
            if view is not None:
                view.update(snapshot)
                emit(view.render(snapshot, tty=tty))
            else:
                emit(snapshot.line())
        rounds += 1
        if once:
            break
        if max_intervals is not None and rounds >= max_intervals:
            break
        frames = tailer.kept.counter("telemetry.frames")
        idle_rounds = idle_rounds + 1 if frames == accepted else 0
        accepted = frames
        if duration_s is not None and clock() - started >= duration_s:
            break
        if tailer.latest and idle_rounds >= 3:
            break  # every trace has stopped sampling: the run is over
        sleep(interval_s)

    _write_artifact(artifact_path, snapshots, all_health, tailer.registry())
    if any(e.verdict == "fail" for e in all_health):
        return 2
    return 0 if tailer.latest else 1


def _write_artifact(
    path: Path,
    snapshots: Sequence[MonitorSnapshot],
    health: Sequence[HealthEvent],
    registry: MetricsRegistry,
) -> None:
    """The final JSONL artifact: header, intervals, health, merged metrics."""
    header = {
        "format": MONITOR_FORMAT,
        "schema_version": MONITOR_SCHEMA_VERSION,
        "trace_schema_version": TRACE_SCHEMA_VERSION,
        "intervals": len(snapshots),
        "health_events": len(health),
    }
    with JsonlWriter(path, header) as writer:
        for snapshot in snapshots:
            writer.write_line(snapshot.to_json())
        for event in health:
            writer.write_line(event.to_json())
        writer.write_line(json.dumps({
            "rec": "metrics",
            "counters": registry.counters(),
            "histograms": {
                name: _histogram_summary(hist)
                for name, hist in registry.histograms().items()
            },
        }))


def _histogram_summary(hist: Histogram) -> dict[str, Any]:
    return {
        "count": hist.count,
        "min": hist.minimum,
        "p50": hist.percentile(50),
        "p95": hist.percentile(95),
        "max": hist.maximum,
        "mean": hist.mean,
    }


__all__ = [
    "MONITOR_FORMAT",
    "MONITOR_SCHEMA_VERSION",
    "MonitorSnapshot",
    "aggregate",
    "run_monitor",
]
