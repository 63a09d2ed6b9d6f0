"""Trace analysis: happens-before reconstruction and latency metrics.

A recorded trace (:mod:`repro.obs.tracer`) contains enough structure to
rebuild the happened-before relation of the paper's Definition 1 without
any access to the live session: generations and executions give the
event set, emission order gives each site's program order, and
snapshot/recovery pairs give the causal edge a state transfer creates.
:class:`TraceCausality` performs that reconstruction, and
:func:`cross_check_causality` verifies it -- pair by pair -- against the
ground-truth oracle in :mod:`repro.analysis.causality`, the same way
model-checking work validates replication algorithms against recorded
executions.  In-process the oracle reads the session's event log; a
cluster run has none, so :func:`replay_event_log` rebuilds one from the
merged trace and the same check runs over it.

:func:`verify_check_records` closes the loop on formulas (5) and (7):
every concurrency verdict the compressed scheme produced during the run
must equal what the reconstructed happens-before relation says.

:func:`latency_histograms` computes per-site generation-to-execution
latency distributions from the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.analysis.causality import CausalityOracle, HappenedBefore
from repro.clocks.events import EventLog, TransferKey, transfer_key
from repro.obs.tracer import (
    Histogram,
    MetricsRegistry,
    Origins,
    TraceEvent,
    TraceEventKind,
)

if TYPE_CHECKING:
    from repro.session.base import CheckRecord

# Event kinds that are *causally meaningful*: they enter the DAG as
# nodes.  Transport bookkeeping (sent / retransmitted / held back /
# released) moves payloads around but creates no happened-before edge of
# its own -- causality is carried entirely by generations, executions and
# state transfers.
_DAG_KINDS = frozenset(
    {
        TraceEventKind.GENERATED,
        TraceEventKind.TRANSFORMED,
        TraceEventKind.EXECUTED,
        TraceEventKind.SNAPSHOT,
        TraceEventKind.CRASHED,
        TraceEventKind.RECOVERED,
        # Failover milestones are program-order-only nodes: they order a
        # site's own timeline (a successor's post-promotion generations
        # follow its election) but add no cross-site edge of their own --
        # causality crosses sites only through the failover SNAPSHOT ->
        # RECOVERED transfer, mirroring the event log's snapshot -> install.
        TraceEventKind.ELECTED,
        TraceEventKind.PROMOTED,
        TraceEventKind.HANDOFF,
    }
)


class TraceAnalysisError(ValueError):
    """Raised on a structurally malformed trace."""


class TraceCausality(HappenedBefore[str]):
    """The happened-before relation reconstructed from a recorded trace.

    Construction mirrors :class:`repro.analysis.causality.CausalityOracle`
    but reads *trace events* instead of the live event log:

    * one DAG node per causally meaningful trace event;
    * program-order edges within each site (emission order restricted to
      one site is that site's local order);
    * an edge from each operation's generation event -- its latest
      ``GENERATED`` (a re-issued name) or first ``TRANSFORMED`` event;
      the notifier's transformed output counts as a fresh operation
      generated at site 0, exactly as in the paper's Section 3.1 -- to
      every execution of the operation;
    * an edge from each ``SNAPSHOT`` event to the matching *resync* or
      *failover* ``RECOVERED`` event (matched on
      :func:`~repro.clocks.events.transfer_key`, as the event log pairs
      a snapshot with its install): a state transfer delivers the
      sender's entire causal history in bulk.  Join snapshots create
      **no** edge, in the trace as in the log, so a joiner's first
      operations are concurrent with the pre-join history.

    Emission order is a topological order of this DAG (every edge points
    forward in the trace), so reachability is one reverse sweep with
    bitset accumulation.
    """

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self.events = list(events)
        nodes = [e for e in self.events if e.kind in _DAG_KINDS]
        self._generation: dict[str, TraceEvent] = {}
        self.transform_source: dict[str, str] = {}
        for event in nodes:
            if event.kind in (TraceEventKind.GENERATED, TraceEventKind.TRANSFORMED):
                if event.op_id is None:
                    raise TraceAnalysisError(f"generation event without op id: {event}")
                if (event.kind is TraceEventKind.GENERATED
                        or event.op_id not in self._generation):
                    self._generation[event.op_id] = event
                if (
                    event.kind is TraceEventKind.TRANSFORMED
                    and event.source_op is not None
                    and event.source_op != event.op_id
                ):
                    self.transform_source.setdefault(event.op_id, event.source_op)
        # Adjacency over positions in ``nodes`` (trace order, hence
        # topological order); bitset reachability over the same indexing.
        position = {event.index: pos for pos, event in enumerate(nodes)}
        successors: list[list[int]] = [[] for _ in nodes]
        last_at_site: dict[int, int] = {}
        pending_snapshots: dict[TransferKey, int] = {}
        for pos, event in enumerate(nodes):
            previous = last_at_site.get(event.site)
            if previous is not None:
                successors[previous].append(pos)
            last_at_site[event.site] = pos
            if event.kind is TraceEventKind.EXECUTED:
                if event.op_id is None:
                    raise TraceAnalysisError(f"execution event without op id: {event}")
                generation = self._generation.get(event.op_id)
                if generation is None:
                    raise TraceAnalysisError(
                        f"operation {event.op_id!r} executed at site {event.site} "
                        "before any generation event"
                    )
                successors[position[generation.index]].append(pos)
            elif event.kind is TraceEventKind.SNAPSHOT and event.peer is not None:
                key = transfer_key(event.peer, event.epoch, event.via)
                if key is not None:
                    pending_snapshots[key] = pos
            elif event.kind is TraceEventKind.RECOVERED:
                key = transfer_key(event.site, event.epoch, event.via)
                sender = pending_snapshots.pop(key, None) if key is not None else None
                if sender is not None:
                    successors[sender].append(pos)
        reach = [0] * len(nodes)
        for pos in range(len(nodes) - 1, -1, -1):
            mask = 0
            for succ in successors[pos]:
                mask |= (1 << succ) | reach[succ]
            reach[pos] = mask
        self._position = position
        self._reach = reach

    # -- queries over operations ----------------------------------------------

    def ops(self) -> list[str]:
        """All operation ids with a generation event, in trace order."""
        return list(self._generation)

    def happened_before(self, op_a: str, op_b: str) -> bool:
        """Definition 1 over the reconstructed DAG: ``O_a -> O_b``."""
        gen_a = self._generation[op_a]
        gen_b = self._generation[op_b]
        pos_b = self._position[gen_b.index]
        return bool(self._reach[self._position[gen_a.index]] >> pos_b & 1)

    def original_op(self, op_id: str) -> str:
        """Map a transformed operation back to its original client op."""
        return self.transform_source.get(op_id, op_id)


def replay_event_log(events: Sequence[TraceEvent], n_sites: int) -> EventLog:
    """The ground-truth event log of a recorded trace.

    Each causally meaningful event becomes the log call a live session
    makes at the same point: a ``GENERATED`` a generation, a
    ``TRANSFORMED`` one too the first time its name is seen (the
    notifier's broadcast copy; a client's only notes a transform), an
    ``EXECUTED`` an execution, a ``SNAPSHOT`` a snapshot and a non-join
    ``RECOVERED`` its install.  ``n_sites`` counts every site, the
    notifier's included.  A malformed trace raises ``ValueError``.
    """
    log = EventLog(n_sites)
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
            key = transfer_key(event.peer, event.epoch, event.via)
            if key is not None:
                log.snapshot(event.site, key)
        elif kind is TraceEventKind.RECOVERED:
            key = transfer_key(event.site, event.epoch, event.via)
            if key is not None:
                log.install(event.site, key)
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
    trace: "TraceCausality | Sequence[TraceEvent]", event_log: EventLog
) -> CrossCheckReport:
    """Compare trace-derived happens-before against the ground truth.

    The ground truth is the :class:`~repro.analysis.causality.CausalityOracle`
    over ``event_log`` -- the session's own, or one replayed from a
    cluster's merged trace -- which answers each pair by DAG
    reachability and checks the answer against the log's vector clocks
    (state transfers included: the log records both ends of each).
    """
    causality = trace if isinstance(trace, TraceCausality) else TraceCausality(trace)
    oracle = CausalityOracle(event_log)
    trace_ops = causality.ops()
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
            trace_hb = causality.happened_before(a, b)
            oracle_hb = oracle.happened_before(a, b)
            if trace_hb != oracle_hb:
                report.mismatches.append((a, b, trace_hb, oracle_hb))
    return report


def verify_check_records(
    causality: TraceCausality, checks: Sequence["CheckRecord"]
) -> list["CheckRecord"]:
    """Formulas (5)/(7) vs the trace: return the disagreeing checks.

    Every recorded concurrency verdict must equal trace-level
    concurrency.  The notifier's formula (7) is defined over operations
    "as originally generated" (paper Section 4.2), so site-0 checks
    compare the buffered entry's *source* operation; client-side
    formula (5) checks compare the ids as recorded.
    """
    known = set(causality.ops())
    disagreements: list["CheckRecord"] = []
    for record in checks:
        buffered = (
            causality.original_op(record.buffered_op_id)
            if record.site == 0
            else record.buffered_op_id
        )
        if record.new_op_id not in known or buffered not in known:
            continue  # ops outside the trace window (pre-attach history)
        if causality.concurrent(record.new_op_id, buffered) != record.verdict:
            disagreements.append(record)
    return disagreements


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
