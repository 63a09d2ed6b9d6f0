"""``python -m repro monitor``: aggregate live telemetry across processes.

Cluster processes append :class:`~repro.obs.telemetry.TelemetryFrame`
and :class:`~repro.obs.telemetry.HealthEvent` records to per-site
``telemetry_<site>.jsonl`` streams (crash-safe, one flushed line per
record -- see :class:`repro.obs.tracer.JsonlWriter`).  The monitor
tails those files in the artifact directory, merges per-site state into
one cross-process view (counters summed and histograms concatenated via
:meth:`~repro.obs.tracer.MetricsRegistry.merge`), and renders one line
per interval:

    t=2.10s sites=4/4 exec=9/9/9/9 gen=9 hold=0(hw 2) infl=0 rtx=0 \
store=11 q=3 epoch=0 digests=ok

Tailing is incremental: a :class:`TelemetryTailer` keeps a byte cursor
per stream file and each interval parses only the lines appended since
the previous poll -- every record is parsed exactly once over the
monitor's lifetime, however long the run (re-reading whole files each
interval would make the monitor quadratic in run length).

Each process's stream holds its own frames only, and it is the one
carriage they have: no process forwards another's, so no centre's
death costs the monitor a site.  Every frame enters through
:meth:`TelemetryTailer.ingest`, and a frame is new iff its ``seq`` is
above its site's latest.  Of an accepted frame the monitor keeps the
latest per site and the sampled values of the ``keep="series"`` gauges,
so an interval costs the sites plus the records that arrived in it.

The monitor is where cross-site verdicts are made.  Each stream's header
says what the run is (``sites``, ``expected_ops``, ``interval_s``), and
from it the monitor builds the four watchdogs of
:mod:`repro.obs.telemetry` and feeds them every frame it ingests, each
site's in ``seq`` order.  Silence is clocked by each stream file's
modification time, measured against the newest stream's, so a run whose
processes end together flags nobody and ``--once`` can still judge who
stopped early; a site whose own stream recorded its ``crash`` was graded
there and is not flagged silent again.  The divergence sentinel is the
one divergence rule: ``digests=DIVERGED`` and exit code 2 say the same
thing.

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
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    CausalStallWatchdog,
    DivergenceSentinel,
    HealthEvent,
    RetransmitStormWatchdog,
    SilenceWatchdog,
    TelemetryFrame,
    Watchdog,
)
from repro.obs.tracer import Histogram, JsonlWriter, MetricsRegistry

MONITOR_FORMAT = "repro-obs-monitor-v1"
MONITOR_SCHEMA_VERSION = 1


# -- reading the streams -------------------------------------------------------


# ``TelemetryFrame``'s declarations, as the monitor reads them: how a
# gauge folds across sites (with the value of an empty fold), and what
# the final registry keeps of it.
_FOLDS = [(spec.name, spec.metadata["fold"], spec.default)
          for spec in fields(TelemetryFrame) if spec.metadata["fold"]]
_KEPT = {keep: [spec.name for spec in fields(TelemetryFrame)
                if spec.metadata["keep"] == keep]
         for keep in ("latest", "series")}


class TelemetryTailer:
    """The monitor's state: every frame enters by :meth:`ingest`.

    :meth:`poll` keeps one byte cursor per ``telemetry_*.jsonl`` file;
    each call consumes only the *complete* lines appended since (a
    partial line that a writer is mid-flush on stays unconsumed until
    its newline lands) -- so a record is parsed exactly once over the
    tailer's lifetime, which :attr:`records_parsed` counts and the
    exactly-once unit test pins.  An accepted frame is folded into
    :attr:`latest` and :attr:`kept` at once and handed to the
    :attr:`watchdogs`: no list of frames is held.
    """

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out_dir = Path(out_dir)
        self._offsets: dict[Path, int] = {}
        self._seen_health: set[HealthEvent] = set()
        #: Each stream file's modification time at the last poll.
        self._mtimes: dict[Path, float] = {}
        #: Per site, its stream's modification time when its latest
        #: frame was read: the silence watchdog's arrival clock.
        self._heard: dict[int, float] = {}
        #: Sites whose own stream recorded their crash.
        self._crashed: set[int] = set()
        #: Stream records (frames + health) parsed from files.
        self.records_parsed = 0
        #: The run's size, from the stream header (``None`` before one).
        self.sites: Optional[int] = None
        #: The verdict machines the stream header asked for.
        self.watchdogs: list[Watchdog] = []
        #: The newest frame of each site: all an interval reads.
        self.latest: dict[int, TelemetryFrame] = {}
        #: The frame count and every sampled value of the series gauges.
        self.kept = MetricsRegistry()

    def ingest(self, frame: TelemetryFrame) -> list[HealthEvent]:
        """Offer a frame; returns the watchdogs' verdicts on it (none for
        a frame that is not new: its ``seq`` is not above its site's
        latest)."""
        held = self.latest.get(frame.site)
        if held is not None and held.seq >= frame.seq:
            return []
        self.latest[frame.site] = frame
        self.kept.inc("telemetry.frames")
        for name in _KEPT["series"]:
            value = getattr(frame, name)
            if value is not None:
                self.kept.observe(f"telemetry.{name}", value)
        return [event for watchdog in self.watchdogs
                for event in watchdog.observe(frame)]

    def poll(self) -> list[HealthEvent]:
        """Ingest the frames the files gained since the last poll; returns
        the health events they gained and the watchdogs' verdicts, oldest
        first."""
        frames: list[TelemetryFrame] = []
        health: list[HealthEvent] = []
        for path in sorted(self.out_dir.glob("telemetry_*.jsonl")):
            for record in self._read_new(path):
                if isinstance(record, TelemetryFrame):
                    frames.append(record)
                    self._heard[record.site] = self._mtimes[path]
                elif isinstance(record, HealthEvent):
                    if record not in self._seen_health:
                        self._seen_health.add(record)
                        health.append(record)
                        if record.kind == "crash":
                            self._crashed.add(record.site)
                elif not self.watchdogs:
                    self._arm(record)
        # Each site's frames in seq order, as the watchdogs expect.
        for frame in sorted(frames, key=lambda f: (f.site, f.seq)):
            health += self.ingest(frame)
        if self._mtimes:
            newest = max(self._mtimes.values())
            # A site whose own stream recorded its crash was graded there:
            # its silence since says nothing new.
            health += [event for watchdog in self.watchdogs
                       for event in watchdog.check(newest)
                       if event.site not in self._crashed]
        health.sort(key=lambda e: (e.time, e.site, e.kind))
        return health

    def _arm(self, header: dict[str, Any]) -> None:
        """Build the watchdogs a stream header describes (a header that
        does not describe the run leaves the tailer without any)."""
        if "sites" not in header:
            return
        self.sites = int(header["sites"])
        interval = float(header["interval_s"])
        self.watchdogs = [
            RetransmitStormWatchdog(),
            CausalStallWatchdog(stall_after=max(4 * interval, 1.0)),
            DivergenceSentinel(expected_ops=int(header["expected_ops"])),
            SilenceWatchdog(max_silence=max(6 * interval, 2.0),
                            clock=self._heard.__getitem__),
        ]

    def registry(self) -> MetricsRegistry:
        """The cross-process registry: what was kept of every frame,
        each site's latest cumulative counters summed (they are already
        monotone totals in the frames), and the monitor's own count."""
        registry = MetricsRegistry().merge(self.kept)
        for site in sorted(self.latest):
            for name in _KEPT["latest"]:
                registry.inc(f"telemetry.{name}", getattr(self.latest[site], name))
        registry.inc("monitor.records_parsed", self.records_parsed)
        return registry

    def _read_new(
        self, path: Path
    ) -> Iterator[Union[TelemetryFrame, HealthEvent, dict[str, Any]]]:
        """The records ``path`` gained: frames, health events, and the
        stream header (a dict) when the file is read from its start."""
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
            except ValueError:
                continue  # torn line from a killed writer
            rec = data.get("rec")  # the stream header has none
            try:
                if rec == "frame":
                    self.records_parsed += 1
                    yield TelemetryFrame.from_json(line)
                elif rec == "health":
                    self.records_parsed += 1
                    yield HealthEvent.from_json(line)
                elif rec is None:
                    yield data
            except (ValueError, KeyError, TypeError):
                continue


# -- aggregation ---------------------------------------------------------------


def _health_line(event: HealthEvent) -> str:
    return (f"  health: [{event.verdict}] site {event.site} {event.kind}"
            + (f" (peer {event.peer})" if event.peer is not None else "")
            + (f": {event.detail}" if event.detail else ""))


@dataclass
class MonitorSnapshot:
    """One aggregated interval: the latest frame per site, folded.

    ``expected_sites`` is the run's size as its stream header says;
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
    """Tail ``out_dir``'s telemetry, print interval lines, write the artifact.

    With ``once``, aggregates whatever is on disk right now, prints a
    single line, writes the artifact, and returns -- the CI probe mode.
    Otherwise loops every ``interval_s`` until ``duration_s`` elapses or
    ``max_intervals`` rounds have run (or forever when neither is set;
    the live loop also stops once every expected site has gone quiet
    for a few intervals).  All reading goes through one
    :class:`TelemetryTailer`, so each interval parses only the newly
    appended records, and every verdict -- the streams' own health
    events and the watchdogs' -- reaches the exit code.  ``follow``
    renders the sparkline dashboard on a TTY (``tty=None`` autodetects
    stdout) and plain lines otherwise.

    Returns 0 if any telemetry was seen and no ``fail`` health verdict
    surfaced (divergence is one), 2 on a ``fail`` verdict, 1 if no
    telemetry ever appeared.
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
            break  # every stream has gone quiet: the run is over
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
        "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
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
