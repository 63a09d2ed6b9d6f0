"""The monitor's view of a site: gauges, health verdicts, watchdogs.

The tracer (:mod:`repro.obs.tracer`) records what *happened* to each
operation; a :class:`TelemetryFrame` is what one site *looks like*:
operations generated/executed, hold-back depth and high-water, the
reliability layer's in-flight window and retransmit count, resident
clock-storage integers, scheduler queue depth, the notifier epoch, the
failover counters and a short document digest.

No process writes a frame.  A cluster process's trace is the one stream
it writes, and the monitor (:mod:`repro.obs.monitor`) builds each
site's frame from it: a gauge whose counter is bumped by the statement
that emits an event is *derived* by counting those events, and every
other gauge rides in the periodic ``sampled`` event's gauge dict.  The
frame's declarations say which is which.

The **watchdogs** are stateful verdict machines that turn a site's
frames into structured :class:`HealthEvent` records: retransmit-storm
detection, causal-stall detection (held-back operations with no
execution progress), cross-site digest divergence, and peer silence.
Their thresholds are constants.  The monitor is the one place that sees
every site, so it is the one place they run.

The module is stdlib-only, like the tracer it sits beside.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Optional, Protocol

#: New retransmits within one sample that make a storm.
STORM_THRESHOLD = 10
#: Seconds a non-empty hold-back buffer may go without execution progress.
STALL_AFTER_S = 1.0
#: Seconds a site's trace may go unwritten before it is silent.
SILENT_AFTER_S = 2.0


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
           keep: Optional[str] = None, sampled: bool = False) -> Any:
    """A :class:`TelemetryFrame` field and what its readers do with it."""
    return field(default=default,
                 metadata={"fold": fold, "keep": keep, "sampled": sampled})


@dataclass(frozen=True)
class TelemetryFrame:
    """One site's gauges as of its latest ``sampled`` event.

    The declarations are the one table of gauges.  ``sampled`` marks the
    gauges that ride in a ``sampled`` event (the rest are derived from
    the site's other events, or identify the frame).  ``fold`` is how
    the monitor makes one number of every site's latest value (``"sum"``
    or ``"max"`` over the sites that report one, ``"site"`` to keep them
    apart) and ``keep`` what its final registry holds: the ``"latest"``
    cumulative value as a counter, or the ``"series"`` of sampled values
    as a histogram.  A field that only identifies the frame has neither.

    ``seq`` is the site's sample index and ``time`` the sample's stamp.
    """

    site: int = _gauge()
    role: str = _gauge()  # "notifier" | "client", from the trace header
    seq: int = _gauge()
    time: float = _gauge()
    # the last PROMOTED or failover RECOVERED epoch
    epoch: int = _gauge(0, fold="max")
    # GENERATED events
    ops_generated: int = _gauge(0, fold="sum", keep="latest")
    ops_executed: int = _gauge(0, fold="site", keep="latest", sampled=True)
    holdback_depth: int = _gauge(0, fold="sum", keep="series", sampled=True)
    holdback_high_water: int = _gauge(0, fold="max", sampled=True)
    # reliability send-window: unacked packets
    inflight: int = _gauge(0, fold="sum", keep="series", sampled=True)
    # RETRANSMITTED events
    retransmits: int = _gauge(0, fold="sum", keep="latest")
    # resident clock-state integers (CLAIM-MEM)
    storage_ints: int = _gauge(0, fold="sum", keep="latest", sampled=True)
    # scheduler pending events
    queue_depth: int = _gauge(0, fold="sum", keep="series", sampled=True)
    # ELECTED events: elections this site opened or joined
    elected: int = _gauge(0, fold="sum", keep="latest")
    # PROMOTED events (successor only)
    promoted: int = _gauge(0, fold="sum", keep="latest")
    # failover RECOVERED events: handoffs completed (snapshot installed)
    resynced: int = _gauge(0, fold="sum", keep="latest")
    # local edits queued while leaderless
    degraded_queued: int = _gauge(0, fold="sum", keep="latest", sampled=True)
    digest: str = _gauge("", sampled=True)  # document_digest() of the replica
    #: p95 over the site's last 64 *uncorrected* end-to-end latencies
    #: (ms; ``generated`` at the origin to ``executed`` here), paired
    #: across the traces; ``None`` until the site has one.  Across sites
    #: the worst one is shown, not an average of percentiles (which
    #: would be meaningless): the site a human would look at first.
    e2e_p95_ms: Optional[float] = _gauge(None, fold="max", keep="series")


@dataclass(frozen=True)
class HealthEvent:
    """A verdict about one site: a watchdog's, or the monitor's grade of
    an event the site traced.

    ``site`` is the site the verdict is *about*; ``peer`` (when set) is
    the other party -- a client flagging its dead notifier yields
    ``site=<client>, peer=0, kind="peer_dead"``.  ``verdict`` grades
    severity: ``"warn"`` for pressure (storms, stalls) and survivable
    faults, ``"fail"`` for broken invariants (divergence, death).
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


# -- watchdogs -----------------------------------------------------------------


class Watchdog(Protocol):
    """A stateful verdict machine over the frames.

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
    its job over a lossy link; :data:`STORM_THRESHOLD` or more new
    retransmits within one sampling interval means the link is in a
    storm (a dead or wedged peer with a full send window).  Re-arms per
    site once the delta falls back under the threshold, so a run reports
    each storm once rather than every interval it persists.
    """

    def __init__(self) -> None:
        self._last: dict[int, int] = {}
        self._storming: set[int] = set()

    def observe(self, frame: TelemetryFrame) -> list[HealthEvent]:
        last = self._last.get(frame.site)
        self._last[frame.site] = frame.retransmits
        if last is None:
            return []
        delta = frame.retransmits - last
        if delta < STORM_THRESHOLD:
            self._storming.discard(frame.site)
            return []
        if frame.site in self._storming:
            return []
        self._storming.add(frame.site)
        return [HealthEvent(
            time=frame.time, site=frame.site, kind="retransmit_storm",
            verdict="warn",
            detail=f"{delta} retransmits in one interval (>= {STORM_THRESHOLD})",
        )]

    def check(self, now: float) -> list[HealthEvent]:
        return []


class CausalStallWatchdog:
    """Fires when a site holds operations back but executes nothing.

    A non-empty hold-back buffer is normal for an interval or two (the
    gap is in flight); a buffer that stays non-empty for longer than
    :data:`STALL_AFTER_S` with zero execution progress means the
    gap-filling operation is not coming -- a lost op that retransmission
    is not recovering, or a causally stranded stream.  Re-arms on
    progress.
    """

    def __init__(self) -> None:
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
        if waited < STALL_AFTER_S or frame.site in self._stalled:
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
    expected operation -- a count measured in the same sample as the
    digest.  The sentinel keeps the digest of each site's first
    *complete* frame and fires when two complete sites disagree --
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
    """Flags sites whose samples stopped arriving: the dead-peer signal.

    ``observe`` records when each site's latest frame arrived; ``check(now)``
    fires for any known site not heard from within
    :data:`SILENT_AFTER_S`.  Distinct from the reliability layer's
    probe-based death detection: this works on the traces alone, so the
    monitor can flag a silent peer even over the raw transport, where no
    protocol-level liveness probe exists.  Fires once per site per
    silence; a site that resumes sampling re-arms.

    ``clock(site)`` stamps *arrival* times (the monitor's is the
    modification time of the site's trace); ``frame.time`` is not
    trusted: each process stamps its own events, so comparing them
    across processes would fold clock-domain skew into the verdict.
    """

    def __init__(self, clock: Callable[[int], float]) -> None:
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
            if silent_for < SILENT_AFTER_S or site in self._silent:
                continue
            self._silent.add(site)
            events.append(HealthEvent(
                time=now, site=site, kind="peer_silent", verdict="fail",
                detail=f"no samples for {silent_for:.2f}s "
                       f"(threshold {SILENT_AFTER_S:.2f}s)",
            ))
        return events


__all__ = [
    "SILENT_AFTER_S",
    "STALL_AFTER_S",
    "STORM_THRESHOLD",
    "CausalStallWatchdog",
    "DivergenceSentinel",
    "HealthEvent",
    "RetransmitStormWatchdog",
    "SilenceWatchdog",
    "TelemetryFrame",
    "Watchdog",
    "document_digest",
]
