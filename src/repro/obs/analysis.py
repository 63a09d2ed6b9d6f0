"""Trace analysis: happens-before, formula-(5)/(7) verdicts, latency.

A recorded trace (:mod:`repro.obs.tracer`) contains enough structure to
rebuild the happened-before relation of the paper's Definition 1 without
any access to the live session: generations and executions give the
event set, emission order gives each site's program order, and
snapshot/recovery pairs give the causal edge a state transfer creates.
:func:`replay_event_log` turns the trace into the ground-truth event
log an oracle session records, so the one oracle of
:mod:`repro.analysis.causality` answers for it, and
:func:`cross_check_causality` compares that relation -- pair by pair --
with a session's own log, the way model-checking work validates
replication algorithms against recorded executions.  A default session
and a cluster run have no live log: there the replayed log's DAG is
checked against its own vector clocks.

:func:`check_verdicts` closes the loop on formulas (5) and (7): every
``GENERATED``, ``EXECUTED`` and centre ``TRANSFORMED`` event carries its
timestamp, so each site's history is rebuilt from the trace, every
concurrency verdict the compressed scheme makes is recomputed, and each
must equal what the replayed happens-before relation says.

:func:`latency_histograms` computes per-site generation-to-execution
latency distributions from the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.analysis.causality import CausalityOracle
from repro.clocks.events import EventLog, transfer_key
from repro.core.concurrency import client_concurrent, notifier_concurrent
from repro.core.timestamp import CompressedTimestamp, FullTimestamp, OriginKind
from repro.obs.tracer import (
    Histogram,
    MetricsRegistry,
    Origins,
    TraceEvent,
    TraceEventKind,
)


class TraceAnalysisError(ValueError):
    """Raised on a structurally malformed trace."""


def replay_event_log(events: Sequence[TraceEvent]) -> EventLog:
    """The ground-truth event log of a recorded trace.

    Each causally meaningful event becomes the log call an oracle session
    makes at the same point: a ``GENERATED`` a generation, a
    ``TRANSFORMED`` one too the first time its name is seen (the
    notifier's broadcast copy; a client's only notes a transform), an
    ``EXECUTED`` an execution, a ``SNAPSHOT`` a snapshot and a
    ``RECOVERED`` its install.  The log spans every site the trace
    names, the notifier's included.  A malformed trace raises
    ``ValueError``.
    """
    log = EventLog(1 + max((event.site for event in events), default=0))
    named: set[str] = set()
    for event in events:
        kind = event.kind
        if kind is TraceEventKind.GENERATED or (
                kind is TraceEventKind.TRANSFORMED and event.op_id not in named):
            if event.op_id is None:
                raise TraceAnalysisError(f"generation event without op id: {event}")
            named.add(event.op_id)
            log.generate(event.site, event.op_id)
        elif kind is TraceEventKind.EXECUTED:
            log.execute(event.site, event.op_id)
        elif kind is TraceEventKind.SNAPSHOT and event.peer is not None:
            log.snapshot(event.site, transfer_key(event.peer, event.epoch, event.via))
        elif kind is TraceEventKind.RECOVERED:
            log.install(event.site, transfer_key(event.site, event.epoch, event.via))
    return log


@dataclass
class CrossCheckReport:
    """Pairwise comparison of trace-derived HB against the oracle."""

    n_ops: int
    pairs_checked: int
    mismatches: list[tuple[str, str, bool, bool]] = field(default_factory=list)
    only_in_trace: list[str] = field(default_factory=list)
    only_in_log: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.only_in_trace or self.only_in_log)

    def summary(self) -> str:
        verdict = "EXACT MATCH" if self.ok else "MISMATCH"
        lines = [
            f"happens-before cross-check: {verdict} "
            f"({self.n_ops} ops, {self.pairs_checked} ordered pairs)"
        ]
        for a, b, trace_hb, oracle_hb in self.mismatches[:10]:
            lines.append(
                f"  {a} -> {b}: trace says {trace_hb}, oracle says {oracle_hb}"
            )
        if self.only_in_trace:
            lines.append(f"  ops only in trace: {self.only_in_trace}")
        if self.only_in_log:
            lines.append(f"  ops only in event log: {self.only_in_log}")
        return "\n".join(lines)


def cross_check_causality(
    trace: "CausalityOracle | Sequence[TraceEvent]", event_log: EventLog
) -> CrossCheckReport:
    """Compare the trace's happens-before against the ground truth.

    The trace side is the oracle over the log :func:`replay_event_log`
    rebuilds (pass one already built to share it) and answers each pair
    by DAG reachability alone.  The ground truth is the
    :class:`~repro.analysis.causality.CausalityOracle` over
    ``event_log``, which answers by DAG reachability checked against the
    log's vector clocks (state transfers included: the log records both
    ends of each).  Given the replayed oracle and its own log -- a
    cluster run's one record -- the check is that agreement, pair by
    pair, and a pair on which the DAG and the vector clocks differ is a
    mismatch.
    """
    replayed = (trace if isinstance(trace, CausalityOracle)
                else CausalityOracle(replay_event_log(trace)))
    oracle = replayed if replayed.log is event_log else CausalityOracle(event_log)
    # One record is checked DAG against clocks, a difference reported
    # rather than raised; a live log's oracle checks itself as it answers.
    truth = oracle.clock_before if oracle is replayed else oracle.happened_before
    trace_ops = replayed.ops()
    in_trace, in_log = set(trace_ops), set(oracle.ops())
    report = CrossCheckReport(
        n_ops=len(trace_ops),
        pairs_checked=0,
        only_in_trace=sorted(in_trace - in_log),
        only_in_log=sorted(in_log - in_trace),
    )
    shared = [op for op in trace_ops if op in in_log]
    for a in shared:
        for b in shared:
            if a == b:
                continue
            report.pairs_checked += 1
            trace_hb = replayed.reaches(a, b)
            oracle_hb = truth(a, b)
            if trace_hb != oracle_hb:
                report.mismatches.append((a, b, trace_hb, oracle_hb))
    return report


def check_verdicts(
    events: Sequence[TraceEvent], oracle: CausalityOracle
) -> tuple[int, list[tuple[int, str, Optional[str], bool]]]:
    """Formulas (5)/(7) recomputed from the trace, against ``oracle``.

    Walks the trace keeping, per site, the unpruned history a diagnostic
    sweep would hold: at a client each ``GENERATED`` (local) and
    ``EXECUTED`` (from the centre) with its ``T``, at the centre each
    ``TRANSFORMED`` with its full ``SV_0``.  A history restarts where the
    site's replica does: at ``CRASHED``, at a failover ``RECOVERED`` and
    at ``PROMOTED`` (a promoted centre starts an empty ``HB_0``).  At each
    ``EXECUTED`` the site's formula, (5) at a client or (7) at the centre,
    is evaluated against every entry and compared with Definition 2 over
    ``oracle``, the replayed log's: a client compares the names as
    recorded, the centre the entry's source operation, because formula
    (7) is over operations "as originally generated".  At a client a
    ``TRANSFORMED`` precedes the ``EXECUTED`` exactly when formula (5)
    found a concurrent entry, and its ``seq`` (the unacknowledged entries
    it transformed against) is how many: the fast path's "concurrent set
    = unacknowledged set" as the trace shows it.

    Returns the number of verdicts checked and the disagreements, each
    ``(site, op, entry, verdict)`` with the formula's verdict; ``entry``
    is ``None`` for a transform that did or did not happen.  A verdict
    on an operation generated outside the trace is skipped; a malformed
    timestamp raises :class:`TraceAnalysisError`.
    """
    known = set(oracle.ops())
    origins = Origins()
    centres = {0}
    # Per site: (op, T, formula-(5) kind at a client / origin at the centre).
    history: dict[int, list[tuple[Optional[str], Any, Any]]] = {}
    #: Per client: the op its last TRANSFORMED names, and that event's seq.
    transformed: dict[int, tuple[str, Optional[int]]] = {}
    checked = 0
    disagreements: list[tuple[int, str, Optional[str], bool]] = []

    def concurrent(a: Optional[str], b: Optional[str]) -> bool:
        return not oracle.reaches(a, b) and not oracle.reaches(b, a)

    for event in events:
        generation = origins.see(event)
        kind, site, op, ts = event.kind, event.site, event.op_id, event.timestamp
        if kind is TraceEventKind.CRASHED or kind is TraceEventKind.PROMOTED or (
                kind is TraceEventKind.RECOVERED and event.via == "failover"):
            history[site] = []
            if kind is TraceEventKind.PROMOTED:
                centres.add(site)
        elif op is None:
            continue  # not an operation's event
        elif kind is TraceEventKind.TRANSFORMED and site not in centres:
            transformed[site] = (op, event.seq)  # a client's notes the transform only
        elif ts is None or not all(type(n) is int for n in ts) or (
                len(ts) != 2 and kind is not TraceEventKind.TRANSFORMED):
            # A centre's transform carries its SV_0, every other event T.
            raise TraceAnalysisError(f"{kind.value} event with a malformed T: {event}")
        elif kind is TraceEventKind.GENERATED:
            if site not in centres:
                history.setdefault(site, []).append(
                    (op, CompressedTimestamp(*ts), OriginKind.LOCAL))
        elif kind is TraceEventKind.TRANSFORMED:
            source = origins.origin(op)
            if source is not None:
                history.setdefault(site, []).append(
                    (source.op_id, FullTimestamp(ts), source.site))
        elif site in centres:
            if generation is None or op not in known:
                continue
            if generation.site < 1:
                raise TraceAnalysisError(f"a centre arrival from no client: {event}")
            arrival = CompressedTimestamp(*ts)
            for entry, entry_ts, entry_origin in history.get(site, ()):
                if entry in known:
                    verdict = notifier_concurrent(arrival, generation.site,
                                                  entry_ts, entry_origin)
                    checked += 1
                    if verdict != concurrent(op, entry):
                        disagreements.append((site, op, entry, verdict))
        else:
            arrival = CompressedTimestamp(*ts)
            entries = history.setdefault(site, [])
            found = 0
            for entry, entry_ts, entry_kind in entries:
                verdict = client_concurrent(arrival, entry_ts, entry_kind)
                found += verdict
                if op in known and entry in known:
                    checked += 1
                    if verdict != concurrent(op, entry):
                        disagreements.append((site, op, entry, verdict))
            if transformed.pop(site, None) != ((op, found) if found else None):
                disagreements.append((site, op, None, found > 0))
            entries.append((op, arrival, OriginKind.FROM_CENTER))
    return checked, disagreements


def latency_histograms(
    events: Sequence[TraceEvent], metrics: Optional[MetricsRegistry] = None
) -> dict[int, Histogram]:
    """Per-site generation-to-execution latency distributions.

    For every ``EXECUTED`` event, the latency is the virtual time since
    the *original* operation's generation (paired by :class:`Origins`:
    transformed notifier outputs map back through their ``TRANSFORMED``
    event).  Results are keyed by executing site; when ``metrics`` is
    given, each observation is also recorded under ``latency.site_<site>``.
    """
    origins = Origins()
    out: dict[int, Histogram] = {}
    for event in events:
        origin = origins.see(event)
        if origin is None:
            continue  # not an execution, or generated outside the trace window
        latency = event.time - origin.time
        out.setdefault(event.site, Histogram()).observe(latency)
        if metrics is not None:
            metrics.observe(f"latency.site_{event.site}", latency)
    return out


def released_without_cause(events: Sequence[TraceEvent]) -> list[TraceEvent]:
    """Releases that neither arrived in order nor were ever held back.

    The delivery audit behind the trace property tests: every
    ``RELEASED`` event must be a direct in-order delivery
    (``via="direct"``) or must be preceded by a matching ``HELD_BACK``
    event for the same (site, peer, epoch, seq) slot.  Returns the
    offending releases (empty on a well-formed trace).
    """
    held: set[tuple[int, Optional[int], Optional[int], Optional[int]]] = set()
    bad: list[TraceEvent] = []
    for event in events:
        key = (event.site, event.peer, event.epoch, event.seq)
        if event.kind is TraceEventKind.HELD_BACK:
            held.add(key)
        elif event.kind is TraceEventKind.RELEASED:
            if event.via == "direct":
                continue
            if key not in held:
                bad.append(event)
    return bad
