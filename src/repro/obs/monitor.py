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

Two more arrival paths feed the same deduplication:

* TELEMETRY frames gossiped over TCP land in the notifier's stream file
  (nothing special to do -- they are just lines);
* the optional **UDP sideband** (:mod:`repro.net.beacon`): with
  ``--beacon-port`` the monitor binds a datagram socket and every
  cluster process fires its frames straight at it, so frames keep
  arriving while the TCP gossip hub is dead mid-failover.

Frames are deduplicated by ``(site, seq)`` regardless of arrival path,
so a frame seen on disk, via gossip, and via UDP still counts once.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence, Union

from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    TELEMETRY_SCHEMA_VERSION,
    HealthEvent,
    TelemetryFrame,
)
from repro.obs.tracer import Histogram, JsonlWriter, MetricsRegistry

MONITOR_FORMAT = "repro-obs-monitor-v1"
MONITOR_SCHEMA_VERSION = 1


# -- reading the streams -------------------------------------------------------


class TelemetryTailer:
    """Incremental, deduplicating reader of a directory's telemetry.

    Keeps one byte cursor per ``telemetry_*.jsonl`` file; each
    :meth:`poll` seeks to the cursor, consumes only the *complete* lines
    appended since (a partial line that a writer is mid-flush on stays
    unconsumed until its newline lands), and advances the cursor -- so a
    record is parsed exactly once over the tailer's lifetime, no matter
    how many times the monitor polls.  :attr:`records_parsed` counts
    those parses, which is what the exactly-once unit test pins.

    Deduplication state lives here too: frames are keyed by
    ``(site, seq)`` and health events by full identity, across *all*
    arrival paths -- stream files via :meth:`poll`, and the UDP sideband
    via :meth:`ingest`.  A frame seen on disk, via gossip (the
    notifier's file), and via datagram counts once.
    """

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out_dir = Path(out_dir)
        self._offsets: dict[Path, int] = {}
        self._seen_frames: set[tuple[int, int]] = set()
        self._seen_health: set[HealthEvent] = set()
        #: Stream records (frames + health) parsed from files, pre-dedup.
        self.records_parsed = 0
        #: Frames accepted (post-dedup) from stream files.
        self.frames_from_files = 0
        #: Frames accepted (post-dedup) through :meth:`ingest` (UDP).
        self.frames_from_ingest = 0

    def poll(self) -> tuple[dict[int, list[TelemetryFrame]], list[HealthEvent]]:
        """New records since the last poll: ``(frames by site, health)``."""
        by_site: dict[int, list[TelemetryFrame]] = {}
        health: list[HealthEvent] = []
        for path in sorted(self.out_dir.glob("telemetry_*.jsonl")):
            for record in self._read_new(path):
                if isinstance(record, TelemetryFrame):
                    key = (record.site, record.seq)
                    if key in self._seen_frames:
                        continue
                    self._seen_frames.add(key)
                    self.frames_from_files += 1
                    by_site.setdefault(record.site, []).append(record)
                else:
                    if record in self._seen_health:
                        continue
                    self._seen_health.add(record)
                    health.append(record)
        for frames_list in by_site.values():
            frames_list.sort(key=lambda f: f.seq)
        health.sort(key=lambda e: (e.time, e.site, e.kind))
        return by_site, health

    def ingest(self, frame: TelemetryFrame) -> bool:
        """Offer a frame that arrived outside the files (UDP sideband).

        Returns True iff the frame was new -- i.e. not already seen on
        any path.  Rejected duplicates are the common case while both
        the files and the sideband are healthy; that is the design, not
        a problem.
        """
        key = (frame.site, frame.seq)
        if key in self._seen_frames:
            return False
        self._seen_frames.add(key)
        self.frames_from_ingest += 1
        return True

    def _read_new(
        self, path: Path
    ) -> Iterator[Union[TelemetryFrame, HealthEvent]]:
        offset = self._offsets.get(path, 0)
        try:
            size = path.stat().st_size
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
            if data.get("format") == TELEMETRY_FORMAT:
                continue  # the stream header
            rec = data.get("rec")
            try:
                if rec == "frame":
                    self.records_parsed += 1
                    yield TelemetryFrame.from_json(line)
                elif rec == "health":
                    self.records_parsed += 1
                    yield HealthEvent.from_json(line)
            except (ValueError, KeyError, TypeError):
                continue


# -- aggregation ---------------------------------------------------------------


def site_registry(frames: Sequence[TelemetryFrame]) -> MetricsRegistry:
    """One site's frames as a registry: final counters, gauge histograms.

    Counters carry the *latest* cumulative values (they are already
    monotone totals in the frames); histograms record every sampled
    gauge value, so a percentile over the merged registry answers "how
    deep did hold-back get across the whole cluster".
    """
    registry = MetricsRegistry()
    if not frames:
        return registry
    last = max(frames, key=lambda f: f.seq)
    registry.inc("telemetry.ops_generated", last.ops_generated)
    registry.inc("telemetry.ops_executed", last.ops_executed)
    registry.inc("telemetry.retransmits", last.retransmits)
    registry.inc("telemetry.storage_ints", last.storage_ints)
    registry.inc("telemetry.elected", last.elected)
    registry.inc("telemetry.promoted", last.promoted)
    registry.inc("telemetry.resynced", last.resynced)
    registry.inc("telemetry.degraded_queued", last.degraded_queued)
    registry.inc("telemetry.frames", len(frames))
    for frame in frames:
        registry.observe("telemetry.holdback_depth", frame.holdback_depth)
        registry.observe("telemetry.inflight", frame.inflight)
        registry.observe("telemetry.queue_depth", frame.queue_depth)
        if frame.e2e_p95_ms is not None:
            registry.observe("telemetry.e2e_p95_ms", frame.e2e_p95_ms)
    return registry


def merged_registry(by_site: dict[int, list[TelemetryFrame]]) -> MetricsRegistry:
    """The cross-process registry: every site merged into one."""
    merged = MetricsRegistry()
    for site in sorted(by_site):
        merged.merge(site_registry(by_site[site]))
    return merged


@dataclass
class MonitorSnapshot:
    """One aggregated interval: the latest frame per site, summed."""

    time: float
    latest: dict[int, TelemetryFrame] = field(default_factory=dict)
    health: list[HealthEvent] = field(default_factory=list)

    @property
    def sites(self) -> list[int]:
        return sorted(self.latest)

    @property
    def ops_executed(self) -> dict[int, int]:
        return {site: self.latest[site].ops_executed for site in self.sites}

    @property
    def ops_generated(self) -> int:
        return sum(f.ops_generated for f in self.latest.values())

    @property
    def holdback_depth(self) -> int:
        return sum(f.holdback_depth for f in self.latest.values())

    @property
    def holdback_high_water(self) -> int:
        return max((f.holdback_high_water for f in self.latest.values()),
                   default=0)

    @property
    def inflight(self) -> int:
        return sum(f.inflight for f in self.latest.values())

    @property
    def retransmits(self) -> int:
        return sum(f.retransmits for f in self.latest.values())

    @property
    def storage_ints(self) -> int:
        return sum(f.storage_ints for f in self.latest.values())

    @property
    def queue_depth(self) -> int:
        return sum(f.queue_depth for f in self.latest.values())

    @property
    def epoch(self) -> int:
        return max((f.epoch for f in self.latest.values()), default=0)

    @property
    def elected(self) -> int:
        return sum(f.elected for f in self.latest.values())

    @property
    def promoted(self) -> int:
        return sum(f.promoted for f in self.latest.values())

    @property
    def resynced(self) -> int:
        return sum(f.resynced for f in self.latest.values())

    @property
    def degraded_queued(self) -> int:
        return sum(f.degraded_queued for f in self.latest.values())

    @property
    def e2e_p95_ms(self) -> Optional[float]:
        """Worst per-site end-to-end latency p95, or ``None`` if no site
        reports the gauge (span instrumentation off or nothing remote
        executed yet).  The maximum -- not an average of percentiles,
        which would be meaningless -- so the line shows the site a human
        would look at first."""
        values = [
            f.e2e_p95_ms for f in self.latest.values()
            if f.e2e_p95_ms is not None
        ]
        return max(values) if values else None

    @property
    def digests_agree(self) -> bool:
        """True unless two *complete-looking* replicas disagree.

        Mid-run digests legitimately differ, so disagreement is only
        meaningful among sites at the maximum executed count.
        """
        if not self.latest:
            return True
        top = max(f.ops_executed for f in self.latest.values())
        digests = {
            f.digest for f in self.latest.values()
            if f.ops_executed == top and f.digest
        }
        return len(digests) <= 1

    def line(self, expected_sites: Optional[int] = None) -> str:
        """The live one-line-per-interval rendering."""
        count = len(self.latest)
        sites = f"{count}/{expected_sites}" if expected_sites else str(count)
        executed = "/".join(
            str(self.latest[s].ops_executed) for s in self.sites
        ) or "-"
        digests = "ok" if self.digests_agree else "DIVERGED"
        text = (
            f"t={self.time:8.2f}s sites={sites} exec={executed} "
            f"gen={self.ops_generated} hold={self.holdback_depth}"
            f"(hw {self.holdback_high_water}) infl={self.inflight} "
            f"rtx={self.retransmits} store={self.storage_ints} "
            f"q={self.queue_depth} epoch={self.epoch} digests={digests}"
        )
        if self.e2e_p95_ms is not None:
            text += f" e2e={self.e2e_p95_ms:.1f}ms"
        if self.elected or self.promoted or self.resynced or self.degraded_queued:
            # The epoch transition, live: elections opened, promotions
            # completed, members resynced under the new centre, edits
            # queued while leaderless.
            text += (
                f" failover={self.elected}e/{self.promoted}p/"
                f"{self.resynced}r dq={self.degraded_queued}"
            )
        for event in self.health:
            text += (
                f"\n  health: [{event.verdict}] site {event.site} "
                f"{event.kind}"
                + (f" (peer {event.peer})" if event.peer is not None else "")
                + (f": {event.detail}" if event.detail else "")
            )
        return text

    def to_json(self) -> str:
        data: dict[str, Any] = {
            "rec": "interval",
            "time": self.time,
            "sites": self.sites,
            "ops_executed": {str(s): n for s, n in self.ops_executed.items()},
            "ops_generated": self.ops_generated,
            "holdback_depth": self.holdback_depth,
            "holdback_high_water": self.holdback_high_water,
            "inflight": self.inflight,
            "retransmits": self.retransmits,
            "storage_ints": self.storage_ints,
            "queue_depth": self.queue_depth,
            "epoch": self.epoch,
            "elected": self.elected,
            "promoted": self.promoted,
            "resynced": self.resynced,
            "degraded_queued": self.degraded_queued,
            "digests_agree": self.digests_agree,
            "health": [json.loads(e.to_json()) for e in self.health],
        }
        if self.e2e_p95_ms is not None:
            data["e2e_p95_ms"] = self.e2e_p95_ms
        return json.dumps(data)


def aggregate(
    by_site: dict[int, list[TelemetryFrame]],
    health: Sequence[HealthEvent] = (),
) -> MonitorSnapshot:
    """Fold per-site frame lists into one snapshot (latest per site)."""
    latest: dict[int, TelemetryFrame] = {}
    newest = 0.0
    for site, frames in by_site.items():
        if not frames:
            continue
        last = max(frames, key=lambda f: f.seq)
        latest[site] = last
        newest = max(newest, last.time)
    return MonitorSnapshot(time=newest, latest=latest, health=list(health))


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

    def __init__(self, expect_sites: Optional[int] = None) -> None:
        self.expect_sites = expect_sites
        self.intervals = 0
        self._history: dict[int, dict[str, deque[float]]] = {}
        self._prev: dict[int, TelemetryFrame] = {}
        self._recent_health: deque[HealthEvent] = deque(maxlen=6)

    def _site_history(self, site: int) -> dict[str, deque[float]]:
        hist = self._history.get(site)
        if hist is None:
            hist = {
                name: deque(maxlen=self.WINDOW)
                for name in ("rate", "hold", "inflight", "e2e")
            }
            self._history[site] = hist
        return hist

    def update(self, snapshot: MonitorSnapshot) -> None:
        self.intervals += 1
        self._recent_health.extend(snapshot.health)
        for site, frame in snapshot.latest.items():
            hist = self._site_history(site)
            prev = self._prev.get(site)
            rate = 0.0
            if prev is not None and frame.time > prev.time:
                rate = max(0, frame.ops_executed - prev.ops_executed) / (
                    frame.time - prev.time
                )
            hist["rate"].append(rate)
            hist["hold"].append(float(frame.holdback_depth))
            hist["inflight"].append(float(frame.inflight))
            hist["e2e"].append(
                frame.e2e_p95_ms if frame.e2e_p95_ms is not None else 0.0
            )
            self._prev[site] = frame

    def _markers(self, site: int, frame: TelemetryFrame) -> str:
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
            return snapshot.line(self.expect_sites)
        count = len(snapshot.latest)
        sites = (f"{count}/{self.expect_sites}" if self.expect_sites
                 else str(count))
        digests = "ok" if snapshot.digests_agree else "DIVERGED"
        lines = [
            f"repro monitor --follow   t={snapshot.time:.2f}s  "
            f"sites={sites}  epoch={snapshot.epoch}  digests={digests}  "
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
                f"{sparkline(hist['hold']):<12} "
                f"| infl {frame.inflight:>3} "
                f"{sparkline(hist['inflight']):<12} "
                f"| e2e {e2e_text} {sparkline(hist['e2e']):<12}"
                f"{self._markers(site, frame)}{stale}"
            )
        if self._recent_health:
            lines.append("")
            lines.extend(
                f"  health: [{e.verdict}] site {e.site} {e.kind}"
                + (f" (peer {e.peer})" if e.peer is not None else "")
                + (f": {e.detail}" if e.detail else "")
                for e in self._recent_health
            )
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
    expect_sites: Optional[int] = None,
    artifact: Optional[Union[str, Path]] = None,
    follow: bool = False,
    max_intervals: Optional[int] = None,
    beacon_port: Optional[int] = None,
    beacon: Optional[Any] = None,
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
    appended records.

    ``beacon_port`` binds the UDP telemetry sideband
    (:class:`repro.net.beacon.BeaconReceiver`) and folds arriving
    datagrams through the same ``(site, seq)`` dedup as the files --
    the monitor keeps rendering fresh frames while the TCP gossip hub
    is dead.  ``follow`` renders the sparkline dashboard on a TTY
    (``tty=None`` autodetects stdout) and plain lines otherwise.

    Returns 0 if any telemetry was seen and no ``fail`` health verdict
    surfaced, 2 on a ``fail`` verdict, 1 if no telemetry ever appeared.
    """
    out_path = Path(out_dir)
    artifact_path = Path(artifact) if artifact else out_path / "monitor.jsonl"
    started = clock()
    tailer = TelemetryTailer(out_path)
    # ``beacon`` injects an already-bound receiver (tests); the caller
    # keeps ownership.  ``beacon_port`` binds one here and closes it.
    receiver = beacon
    owns_receiver = False
    if receiver is None and beacon_port is not None:
        from repro.net.beacon import BeaconReceiver

        receiver = BeaconReceiver(port=beacon_port)
        owns_receiver = True
    view = FollowView(expect_sites) if follow else None
    if tty is None:
        tty = bool(getattr(sys.stdout, "isatty", lambda: False)())
    by_site: dict[int, list[TelemetryFrame]] = {}
    snapshots: list[MonitorSnapshot] = []
    all_health: list[HealthEvent] = []
    seen_any = False
    idle_rounds = 0
    rounds = 0
    last_fingerprint: Optional[tuple[tuple[int, int], ...]] = None

    try:
        while True:
            fresh_by_site, fresh = tailer.poll()
            for site, frames in fresh_by_site.items():
                by_site.setdefault(site, []).extend(frames)
            if receiver is not None:
                for tframe in receiver.drain():
                    if tailer.ingest(tframe):
                        by_site.setdefault(tframe.site, []).append(tframe)
            all_health.extend(fresh)
            snapshot = aggregate(by_site, fresh)
            if snapshot.latest:
                seen_any = True
                snapshots.append(snapshot)
                if view is not None:
                    view.update(snapshot)
                    emit(view.render(snapshot, tty=tty))
                else:
                    emit(snapshot.line(expect_sites))
            fingerprint = tuple(
                (site, max(f.seq for f in frames))
                for site, frames in sorted(by_site.items())
            )
            rounds += 1
            if once:
                break
            if max_intervals is not None and rounds >= max_intervals:
                break
            idle_rounds = (idle_rounds + 1
                           if fingerprint == last_fingerprint else 0)
            last_fingerprint = fingerprint
            if duration_s is not None and clock() - started >= duration_s:
                break
            if seen_any and idle_rounds >= 3:
                break  # every stream has gone quiet: the run is over
            sleep(interval_s)
    finally:
        if receiver is not None and owns_receiver:
            receiver.close()

    registry = merged_registry(by_site)
    registry.inc("monitor.records_parsed", tailer.records_parsed)
    registry.inc("monitor.frames_from_files", tailer.frames_from_files)
    registry.inc("monitor.frames_from_udp", tailer.frames_from_ingest)
    if receiver is not None:
        registry.inc("monitor.udp_datagrams", receiver.received)
    _write_artifact(artifact_path, snapshots, all_health, registry)
    if any(e.verdict == "fail" for e in all_health):
        return 2
    return 0 if seen_any else 1


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
    "merged_registry",
    "run_monitor",
    "site_registry",
]
