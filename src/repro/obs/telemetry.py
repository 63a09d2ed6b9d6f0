"""Live runtime telemetry: gauges, samplers, watchdogs.

The tracer (:mod:`repro.obs.tracer`) records what *happened* to each
operation; this module records what the system *looks like* while it
runs.  A :class:`TelemetrySampler`, driven by any
:class:`~repro.net.scheduler.Scheduler`, periodically snapshots an
endpoint's runtime gauges -- operations generated/executed, hold-back
depth and high-water, the reliability layer's in-flight window and
retransmit count, resident clock-storage integers, scheduler queue
depth, the current notifier epoch, and a short document digest -- into a
versioned :class:`TelemetryFrame`.

A cluster process appends its frames to one crash-safe JSONL stream of
its own, and that file is the only carriage: ``python -m repro
monitor`` (:mod:`repro.obs.monitor`) reads every process's stream and
runs the **watchdogs** -- stateful verdict machines that turn the gauge
stream into structured :class:`HealthEvent` records: retransmit-storm
detection, causal-stall detection (held-back operations with no
execution progress), cross-site digest divergence, and peer silence.
The monitor is the one place that sees every site, so it is the one
place cross-site verdicts are made.

The module is stdlib-only, like the tracer it sits beside: gauge
collection duck-types the endpoint/transport surfaces (``getattr`` with
defaults), so it never imports upward and any layer can hold a sampler
without cycles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable, Optional, Protocol, Sequence

TELEMETRY_FORMAT = "repro-obs-telemetry-v1"

#: Bumped whenever the frame schema changes shape.  Every stream header
#: carries it, so readers can tell frames of a future schema apart
#: instead of misparsing them.  v2 added the failover
#: gauges (elected / promoted / resynced / degraded_queued); v3 added
#: the optional end-to-end latency gauge (``e2e_p95_ms``).
TELEMETRY_SCHEMA_VERSION = 3


def document_digest(document: Any) -> str:
    """A short stable digest of replica state, cheap enough to sample.

    12 hex chars of SHA-256 over the ``repr``: collisions are
    astronomically unlikely at the scale of a divergence check, and the
    digest is comparable across processes because every replica holds
    the same concrete type (text documents, for everything that crosses
    the cluster wire).
    """
    return hashlib.sha256(repr(document).encode("utf-8")).hexdigest()[:12]


def _gauge(default: Any = MISSING, *, fold: Optional[str] = None,
           keep: Optional[str] = None) -> Any:
    """A :class:`TelemetryFrame` field and what its readers do with it."""
    return field(default=default, metadata={"fold": fold, "keep": keep})


@dataclass(frozen=True)
class TelemetryFrame:
    """One versioned snapshot of a process's runtime gauges.

    The declarations are the one table of gauges; a new one is its line
    here and its measurement in :func:`snapshot_endpoint`.  ``fold`` is
    how the monitor makes one number of every site's latest
    value (``"sum"`` or ``"max"`` over the sites that report one,
    ``"site"`` to keep them apart) and ``keep`` what its final registry
    holds: the ``"latest"`` cumulative value as a counter, or the
    ``"series"`` of sampled values as a histogram.  A field that only
    identifies the frame has neither.

    ``seq`` is the per-process sample index (monotone within one
    emitter): a frame is new to a reader iff its ``seq`` is above the
    latest it holds for that site.
    """

    site: int = _gauge()
    role: str = _gauge()  # "notifier" | "client" | "session"
    seq: int = _gauge()
    time: float = _gauge()
    epoch: int = _gauge(0, fold="max")
    ops_generated: int = _gauge(0, fold="sum", keep="latest")
    ops_executed: int = _gauge(0, fold="site", keep="latest")
    holdback_depth: int = _gauge(0, fold="sum", keep="series")
    holdback_high_water: int = _gauge(0, fold="max")
    # reliability send-window: unacked packets
    inflight: int = _gauge(0, fold="sum", keep="series")
    retransmits: int = _gauge(0, fold="sum", keep="latest")
    # resident clock-state integers (CLAIM-MEM)
    storage_ints: int = _gauge(0, fold="sum", keep="latest")
    # scheduler pending events
    queue_depth: int = _gauge(0, fold="sum", keep="series")
    # elections this endpoint has opened or joined
    elected: int = _gauge(0, fold="sum", keep="latest")
    # in-process promotions to notifier (successor only)
    promoted: int = _gauge(0, fold="sum", keep="latest")
    # failover handoffs completed (snapshot installed)
    resynced: int = _gauge(0, fold="sum", keep="latest")
    # local edits queued while leaderless
    degraded_queued: int = _gauge(0, fold="sum", keep="latest")
    digest: str = _gauge("")  # document_digest() of the replica
    #: p95 over the site's last 64 *uncorrected* end-to-end latencies
    #: (ms; ``generated`` at the origin to ``executed`` here).  No
    #: process samples it: the monitor derives it from the traces, so
    #: it is absent on disk -- hence last and optional.  Across sites
    #: the worst one is shown, not an average of percentiles (which
    #: would be meaningless): the site a human would look at first.
    e2e_p95_ms: Optional[float] = _gauge(None, fold="max", keep="series")

    def to_json(self) -> str:
        """One compact JSON object, fields in declaration order.

        Leads with ``rec: "frame"`` so frames and health events share
        one JSONL stream and readers can dispatch per line.
        """
        data: dict[str, Any] = {"rec": "frame"}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is None:
                continue  # optional gauges absent: keep old shape
            data[spec.name] = value
        return json.dumps(data)

    @classmethod
    def from_json(cls, line: str) -> "TelemetryFrame":
        data = json.loads(line)
        if data.get("rec", "frame") != "frame":
            raise ValueError(f"not a telemetry frame record: {line!r}")
        kwargs = {
            spec.name: data[spec.name] for spec in fields(cls) if spec.name in data
        }
        return cls(**kwargs)


@dataclass(frozen=True)
class HealthEvent:
    """A watchdog verdict about one site, derived from the gauge stream.

    ``site`` is the site the verdict is *about*; ``peer`` (when set) is
    the other party -- a client flagging its dead notifier emits
    ``site=<client>, peer=0, kind="peer_dead"``.  ``verdict`` grades
    severity: ``"warn"`` for pressure (storms, stalls), ``"fail"`` for
    broken invariants (divergence, death).
    """

    time: float
    site: int
    kind: str  # "retransmit_storm" | "causal_stall" | "divergence" | ...
    verdict: str  # "warn" | "fail"
    peer: Optional[int] = None
    detail: str = ""

    def to_json(self) -> str:
        data: dict[str, Any] = {
            "rec": "health",
            "time": self.time,
            "site": self.site,
            "kind": self.kind,
            "verdict": self.verdict,
        }
        if self.peer is not None:
            data["peer"] = self.peer
        if self.detail:
            data["detail"] = self.detail
        return json.dumps(data)

    @classmethod
    def from_json(cls, line: str) -> "HealthEvent":
        data = json.loads(line)
        if data.get("rec") != "health":
            raise ValueError(f"not a health record: {line!r}")
        return cls(
            time=float(data["time"]),
            site=int(data["site"]),
            kind=str(data["kind"]),
            verdict=str(data["verdict"]),
            peer=data.get("peer"),
            detail=data.get("detail", ""),
        )


# -- gauge collection ----------------------------------------------------------


def snapshot_endpoint(
    endpoint: Any,
    *,
    sched: Any,
    seq: int,
    role: Optional[str] = None,
    time: Optional[float] = None,
) -> TelemetryFrame:
    """Snapshot one editor endpoint's gauges into a frame.

    Duck-typed against the endpoint/transport surfaces so one collector
    serves star clients, the star notifier, and mesh sites alike; a
    gauge the endpoint cannot answer reads as zero rather than failing
    the sample (telemetry must never take the protocol down with it).
    Hold-back depth sums the transport's reorder buffer and any
    editor-level causal buffer (the mesh's), because both are "arrivals
    waiting for causality".
    """
    transport = getattr(endpoint, "transport", None)
    stats = getattr(transport, "stats", None)
    depth = _call_int(transport, "holdback_depth")
    high = _call_int(transport, "holdback_high_water")
    editor_buffer = getattr(endpoint, "hold_back", None)
    if editor_buffer is not None:
        depth += len(editor_buffer)
        high += int(getattr(editor_buffer, "max_held", 0))
    site = int(getattr(endpoint, "pid", 0))
    if role is None:
        role = "notifier" if site == 0 else "client"
    return TelemetryFrame(
        site=site,
        role=role,
        seq=seq,
        time=float(sched.now) if time is None else time,
        epoch=int(getattr(endpoint, "notifier_epoch", 0)),
        ops_generated=_call_int(endpoint, "local_ops_generated"),
        ops_executed=len(getattr(endpoint, "executed_op_ids", ())),
        holdback_depth=depth,
        holdback_high_water=high,
        inflight=_call_int(transport, "inflight"),
        retransmits=int(getattr(stats, "retransmits", 0)),
        storage_ints=_call_int(endpoint, "clock_storage_ints"),
        queue_depth=int(getattr(sched, "pending_events", 0)),
        elected=int(getattr(stats, "elections", 0)),
        promoted=int(getattr(stats, "promotions", 0)),
        resynced=int(getattr(stats, "handoffs", 0)),
        degraded_queued=int(getattr(stats, "degraded_queued", 0)),
        digest=document_digest(getattr(endpoint, "document", "")),
    )


def _call_int(obj: Any, method: str) -> int:
    fn = getattr(obj, method, None)
    if fn is None:
        return 0
    return int(fn())


# -- watchdogs -----------------------------------------------------------------


class Watchdog(Protocol):
    """A stateful verdict machine over the frame stream.

    ``observe`` sees every frame, each site's in ``seq`` order; ``check``
    is called with the current time after each round of frames, for
    verdicts about *absence* of frames (silence) that no single frame
    can carry.
    """

    def observe(self, frame: TelemetryFrame) -> list[HealthEvent]: ...

    def check(self, now: float) -> list[HealthEvent]: ...


class RetransmitStormWatchdog:
    """Fires when retransmits *burst*: a large delta between samples.

    A steady trickle of retransmits is the reliability protocol doing
    its job over a lossy link; ``threshold`` or more new retransmits
    within one sampling interval means the link is in a storm (a dead
    or wedged peer with a full send window).  Re-arms per site once the
    delta falls back under the threshold, so a run reports each storm
    once rather than every interval it persists.
    """

    def __init__(self, threshold: int = 10) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self._last: dict[int, int] = {}
        self._storming: set[int] = set()

    def observe(self, frame: TelemetryFrame) -> list[HealthEvent]:
        last = self._last.get(frame.site)
        self._last[frame.site] = frame.retransmits
        if last is None:
            return []
        delta = frame.retransmits - last
        if delta < self.threshold:
            self._storming.discard(frame.site)
            return []
        if frame.site in self._storming:
            return []
        self._storming.add(frame.site)
        return [HealthEvent(
            time=frame.time, site=frame.site, kind="retransmit_storm",
            verdict="warn",
            detail=f"{delta} retransmits in one interval (>= {self.threshold})",
        )]

    def check(self, now: float) -> list[HealthEvent]:
        return []


class CausalStallWatchdog:
    """Fires when a site holds operations back but executes nothing.

    A non-empty hold-back buffer is normal for an interval or two (the
    gap is in flight); a buffer that stays non-empty for longer than
    ``stall_after`` with zero execution progress means the gap-filling
    operation is not coming -- a lost op that retransmission is not
    recovering, or a causally stranded stream.  Re-arms on progress.
    """

    def __init__(self, stall_after: float = 2.0) -> None:
        if stall_after <= 0:
            raise ValueError(f"stall_after must be positive, got {stall_after}")
        self.stall_after = stall_after
        self._progress: dict[int, tuple[int, float]] = {}  # site -> (executed, at)
        self._stalled: set[int] = set()

    def observe(self, frame: TelemetryFrame) -> list[HealthEvent]:
        executed, since = self._progress.get(frame.site, (-1, frame.time))
        if frame.ops_executed > executed:
            self._progress[frame.site] = (frame.ops_executed, frame.time)
            self._stalled.discard(frame.site)
            return []
        if frame.holdback_depth <= 0:
            return []
        waited = frame.time - since
        if waited < self.stall_after or frame.site in self._stalled:
            return []
        self._stalled.add(frame.site)
        return [HealthEvent(
            time=frame.time, site=frame.site, kind="causal_stall",
            verdict="warn",
            detail=(f"{frame.holdback_depth} op(s) held back for "
                    f"{waited:.2f}s with no execution progress"),
        )]

    def check(self, now: float) -> list[HealthEvent]:
        return []


class DivergenceSentinel:
    """Flags replica divergence from the sites' digests, live.

    Two replicas may legitimately differ mid-run (operations execute in
    different orders before transformation closes the gap), so digests
    are only comparable once a replica reports having executed every
    expected operation.  The sentinel keeps the digest of each site's
    first *complete* frame and fires when two complete sites disagree --
    before the run ends and long before the post-hoc oracle replays the
    merged trace.
    """

    def __init__(self, expected_ops: int) -> None:
        if expected_ops < 1:
            raise ValueError(f"expected_ops must be positive, got {expected_ops}")
        self.expected_ops = expected_ops
        self._complete: dict[int, str] = {}  # site -> digest at completion
        self._flagged: set[tuple[int, int]] = set()

    def observe(self, frame: TelemetryFrame) -> list[HealthEvent]:
        if frame.ops_executed < self.expected_ops or not frame.digest:
            return []
        self._complete[frame.site] = frame.digest
        events: list[HealthEvent] = []
        for other, digest in sorted(self._complete.items()):
            if other == frame.site:
                continue
            pair = (min(other, frame.site), max(other, frame.site))
            if digest == frame.digest or pair in self._flagged:
                continue
            self._flagged.add(pair)
            events.append(HealthEvent(
                time=frame.time, site=frame.site, kind="divergence",
                verdict="fail", peer=other,
                detail=(f"digest {frame.digest} != {digest} at site {other} "
                        f"after {self.expected_ops} ops"),
            ))
        return events

    def check(self, now: float) -> list[HealthEvent]:
        return []


class SilenceWatchdog:
    """Flags sites whose frames stopped arriving: the dead-peer signal.

    ``observe`` records when each site's latest frame arrived; ``check(now)``
    fires for any known site not heard from within ``max_silence``.
    Distinct from the reliability layer's probe-based death detection:
    this works on the frame streams alone, so the monitor can flag a
    silent peer even over the raw transport, where no protocol-level
    liveness probe exists.  Fires once per site per silence; a site
    that resumes sampling re-arms.

    ``clock(site)`` stamps *arrival* times (the monitor's is the
    modification time of the site's stream); ``frame.time`` is not
    trusted: each process stamps frames on its own scheduler epoch, so
    comparing them across processes would fold clock-domain skew into
    the silence verdict.
    """

    def __init__(self, max_silence: float, clock: Callable[[int], float]) -> None:
        if max_silence <= 0:
            raise ValueError(f"max_silence must be positive, got {max_silence}")
        self.max_silence = max_silence
        self.clock = clock
        self._last_heard: dict[int, float] = {}
        self._silent: set[int] = set()

    def observe(self, frame: TelemetryFrame) -> list[HealthEvent]:
        self._last_heard[frame.site] = float(self.clock(frame.site))
        self._silent.discard(frame.site)
        return []

    def check(self, now: float) -> list[HealthEvent]:
        events: list[HealthEvent] = []
        for site, heard in sorted(self._last_heard.items()):
            silent_for = now - heard
            if silent_for < self.max_silence or site in self._silent:
                continue
            self._silent.add(site)
            events.append(HealthEvent(
                time=now, site=site, kind="peer_silent", verdict="fail",
                detail=f"no telemetry for {silent_for:.2f}s "
                       f"(threshold {self.max_silence:.2f}s)",
            ))
        return events


# -- the sampler ---------------------------------------------------------------


Probe = Callable[[int], Sequence[TelemetryFrame]]


class TelemetrySampler:
    """Periodic gauge snapshots on any :class:`Scheduler`.

    ``probe(seq)`` returns the frames of one sample (one frame per
    endpoint this process hosts -- a cluster process has one, an
    in-process session has all of them).  Each frame flows through the
    watchdogs, then ``on_frame``; verdicts collect in :attr:`health`.

    ``start`` arms a repeating timer on the scheduler.  Under the
    wall-clock scheduler it repeats until :meth:`stop`; under the
    deterministic simulator pass ``max_samples`` or ``until`` so the
    run still quiesces (a perpetual timer never would), and the seeded
    event stream stays identical -- sampling only *reads* state.
    """

    def __init__(
        self,
        sched: Any,
        probe: Probe,
        *,
        interval: float,
        on_frame: Optional[Callable[[TelemetryFrame], None]] = None,
        watchdogs: Sequence[Watchdog] = (),
        keep: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.sched = sched
        self.interval = interval
        self.watchdogs = list(watchdogs)
        self.frames: list[TelemetryFrame] = []
        self.health: list[HealthEvent] = []
        self._probe = probe
        self._on_frame = on_frame
        self._keep = keep
        self._seq = 0
        self._timer: Any = None
        self._samples_left: Optional[int] = None
        self._until: Optional[float] = None

    @property
    def samples_taken(self) -> int:
        return self._seq

    def sample(self) -> list[TelemetryFrame]:
        """Take one snapshot now; returns its frames."""
        frames = list(self._probe(self._seq))
        self._seq += 1
        for frame in frames:
            if self._keep:
                self.frames.append(frame)
            for watchdog in self.watchdogs:
                self.health += watchdog.observe(frame)
            if self._on_frame is not None:
                self._on_frame(frame)
        now = float(self.sched.now)
        for watchdog in self.watchdogs:
            self.health += watchdog.check(now)
        return frames

    def start(self, *, max_samples: Optional[int] = None,
              until: Optional[float] = None) -> None:
        """Arm the repeating sample timer (idempotent while running)."""
        if self._timer is not None:
            return
        self._samples_left = max_samples
        self._until = until
        self._arm()

    def stop(self) -> None:
        """Cancel the timer; :meth:`sample` still works on demand."""
        if self._timer is not None:
            self.sched.cancel(self._timer)
            self._timer = None

    def _arm(self) -> None:
        if self._samples_left is not None and self._samples_left <= 0:
            self._timer = None
            return
        next_time = float(self.sched.now) + self.interval
        if self._until is not None and next_time > self._until:
            self._timer = None
            return
        self._timer = self.sched.schedule_after(self.interval, self._tick)

    def _tick(self) -> None:
        self._timer = None
        if self._samples_left is not None:
            self._samples_left -= 1
        self.sample()
        self._arm()


__all__ = [
    "TELEMETRY_FORMAT",
    "TELEMETRY_SCHEMA_VERSION",
    "CausalStallWatchdog",
    "DivergenceSentinel",
    "HealthEvent",
    "RetransmitStormWatchdog",
    "SilenceWatchdog",
    "TelemetryFrame",
    "TelemetrySampler",
    "Watchdog",
    "document_digest",
    "snapshot_endpoint",
]
