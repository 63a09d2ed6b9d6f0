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
executions.

:func:`verify_check_records` closes the loop on formulas (5) and (7):
every concurrency verdict the compressed scheme produced during the run
must equal what the reconstructed happens-before relation says.

:func:`latency_histograms` computes per-site generation-to-execution
latency distributions from the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.obs.tracer import (
    Histogram,
    MetricsRegistry,
    Origins,
    TraceEvent,
    TraceEventKind,
)

if TYPE_CHECKING:
    from repro.clocks.events import EventLog
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
        # RECOVERED transfer, mirroring the ground-truth clock merge.
        TraceEventKind.ELECTED,
        TraceEventKind.PROMOTED,
        TraceEventKind.HANDOFF,
    }
)


def _transfer_category(via: Optional[str]) -> str:
    """Snapshot/recovery matching category.

    Failover re-admission and crash resync both use epoch-numbered
    snapshots, and a client's crash epochs are numbered independently of
    the notifier epochs -- ``(peer, 1)`` alone would collide when site 3
    both restarts (crash epoch 1) and survives a failover (notifier
    epoch 1).  The ``via`` tag separates the two keyspaces; historic
    traces without the tag fall into the resync category.
    """
    return "failover" if via == "failover" else "resync"


class TraceAnalysisError(ValueError):
    """Raised on a structurally malformed trace."""


class TraceCausality:
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
      *failover* ``RECOVERED`` event (matched on destination site,
      epoch, and transfer category -- crash epochs and notifier epochs
      are numbered independently): a state transfer delivers the
      sender's entire causal history in bulk.  Join snapshots create
      **no** edge -- the
      ground-truth event log does not absorb the notifier's clock on a
      join, so a joiner's first operations are concurrent with the
      pre-join history, and the trace relation mirrors that.

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
        pending_snapshots: dict[tuple[int, int, str], int] = {}
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
            elif event.kind is TraceEventKind.SNAPSHOT:
                if event.peer is not None:
                    key = (event.peer, event.epoch or 0, _transfer_category(event.via))
                    pending_snapshots[key] = pos
            elif event.kind is TraceEventKind.RECOVERED and event.via != "join":
                sender = pending_snapshots.pop(
                    (event.site, event.epoch or 0, _transfer_category(event.via)), None
                )
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

    def concurrent(self, op_a: str, op_b: str) -> bool:
        """Definition 2: neither happened before the other."""
        if op_a == op_b:
            return False
        return not self.happened_before(op_a, op_b) and not self.happened_before(
            op_b, op_a
        )

    def causal_pairs(self) -> set[tuple[str, str]]:
        """All ordered pairs ``(a, b)`` with ``a -> b``."""
        ops = self.ops()
        return {
            (a, b)
            for a in ops
            for b in ops
            if a != b and self.happened_before(a, b)
        }

    def concurrent_pairs(self) -> set[frozenset[str]]:
        """All unordered concurrent pairs."""
        ops = self.ops()
        out: set[frozenset[str]] = set()
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if self.concurrent(a, b):
                    out.add(frozenset((a, b)))
        return out

    def original_op(self, op_id: str) -> str:
        """Map a transformed operation back to its original client op."""
        return self.transform_source.get(op_id, op_id)


@dataclass
class CrossCheckReport:
    """Pairwise comparison of trace-derived HB against the oracle."""

    mode: str  # "causality-oracle" (DAG + VC) or "vector-clock" (VC only)
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
            f"happens-before cross-check [{self.mode}]: {verdict} "
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
    trace: "TraceCausality | Sequence[TraceEvent]", event_log: "EventLog"
) -> CrossCheckReport:
    """Compare trace-derived happens-before against the ground truth.

    Without recoveries in the trace, the ground truth is the full
    :class:`~repro.analysis.causality.CausalityOracle` (which itself
    cross-checks its DAG against vector clocks).  A crash recovery
    transfers causality through a snapshot rather than through logged
    events, which the oracle's event DAG does not model; the oracle's
    *vector-clock* half stays exact across state transfers (the event
    log absorbs the snapshot clock), so recovery traces are checked
    against that relation instead.
    """
    from repro.clocks.vector import Ordering, compare

    causality = trace if isinstance(trace, TraceCausality) else TraceCausality(trace)
    trace_ops = causality.ops()
    log_ops = event_log.op_ids()
    report = CrossCheckReport(
        mode="vector-clock",
        n_ops=len(trace_ops),
        pairs_checked=0,
        only_in_trace=sorted(set(trace_ops) - set(log_ops)),
        only_in_log=sorted(set(log_ops) - set(trace_ops)),
    )
    recovered = any(
        e.kind is TraceEventKind.RECOVERED and e.via != "join"
        for e in causality.events
    )
    if not recovered:
        from repro.analysis.causality import CausalityOracle

        report.mode = "causality-oracle"
        oracle = CausalityOracle(event_log)

        def ground_truth(a: str, b: str) -> bool:
            return oracle.happened_before(a, b)

    else:

        def ground_truth(a: str, b: str) -> bool:
            return (
                compare(event_log.generation_clock(a), event_log.generation_clock(b))
                is Ordering.BEFORE
            )

    shared = [op for op in trace_ops if op in set(log_ops)]
    for a in shared:
        for b in shared:
            if a == b:
                continue
            report.pairs_checked += 1
            trace_hb = causality.happened_before(a, b)
            oracle_hb = ground_truth(a, b)
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
