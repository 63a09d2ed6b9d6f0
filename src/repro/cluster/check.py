"""Merging and verifying multi-process traces.

Each cluster process records its own trace with its own event indices
and (same-host) wall-clock stamps.  The in-process analysis machinery
(:mod:`repro.obs.analysis`) requires one stream whose order is a
topological order of the causal DAG; this module builds that stream and
then runs the repo's standard verdicts plus an independent vector-clock
replay over it.

Why not just sort by time?  Same-host clocks make timestamp order
*almost* causal, but nothing guarantees it: an NTP slew or coarse clock
granularity can stamp an execution microseconds before the generation
it depends on, and a flaky CI gate is worse than none.
:func:`merge_traces` therefore performs a k-way merge that prefers
timestamp order but never emits an event before its cross-process
cause: an ``EXECUTED`` waits for its operation's generation, a
``RECOVERED`` for its snapshot.  Per-process order (each site's program
order) is preserved unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.clocks.vector import Ordering, VectorClock, compare
from repro.cluster.harness import ProcessResult
from repro.obs.analysis import (
    CrossCheckReport,
    TraceCausality,
    latency_histograms,
    released_without_cause,
    verify_check_records,
)
from repro.obs.spans import SpanReport, assemble_spans
from repro.obs.tracer import Histogram, TraceEvent, TraceEventKind

_GENERATION_KINDS = (TraceEventKind.GENERATED, TraceEventKind.TRANSFORMED)


def _dependency_satisfied(
    event: TraceEvent, generated: set[str], snapshots: set[tuple[int, int, str]]
) -> bool:
    """May ``event`` be emitted given what the merge already emitted?"""
    if event.kind is TraceEventKind.EXECUTED:
        return event.op_id is None or event.op_id in generated
    if event.kind is TraceEventKind.RECOVERED and event.via != "join":
        key = (event.site, event.epoch or 0, event.via or "resync")
        return key in snapshots
    return True


def merge_traces(streams: Sequence[Sequence[TraceEvent]]) -> list[TraceEvent]:
    """Merge per-process traces into one causally consistent stream.

    Preserves each stream's internal order (per-site program order),
    orders across streams by timestamp, and defers a stream whose head
    still waits on a cross-process cause.  Events are re-indexed into
    the merged order, since per-process indices collide.  If every head
    is blocked (a genuinely missing cause -- e.g. a process died before
    writing its generation events), the earliest head is emitted anyway
    and the downstream :class:`TraceCausality` construction reports the
    defect rather than the merge hanging.
    """
    heads = [0] * len(streams)
    generated: set[str] = set()
    snapshots: set[tuple[int, int, str]] = set()
    merged: list[TraceEvent] = []
    while True:
        live = [i for i, pos in enumerate(heads) if pos < len(streams[i])]
        if not live:
            break
        ready = [
            i for i in live
            if _dependency_satisfied(streams[i][heads[i]], generated, snapshots)
        ]
        pick_from = ready if ready else live
        best = min(pick_from, key=lambda i: (streams[i][heads[i]].time, i))
        event = streams[best][heads[best]]
        heads[best] += 1
        if event.kind in _GENERATION_KINDS and event.op_id is not None:
            generated.add(event.op_id)
        elif event.kind is TraceEventKind.SNAPSHOT and event.peer is not None:
            snapshots.add((event.peer, event.epoch or 0, event.via or "resync"))
        merged.append(replace(event, index=len(merged)))
    return merged


# -- the independent happened-before replay ------------------------------------


def trace_vector_clock_hb(
    events: Sequence[TraceEvent], n_sites: int
) -> dict[str, VectorClock]:
    """Replay the merged trace with real vector clocks.

    An independent reconstruction of the happened-before relation: where
    :class:`TraceCausality` builds a DAG and computes reachability with
    bitsets, this walks the same events with textbook Fidge/Mattern
    clocks -- tick on every causal event, merge the generation clock on
    execution, merge the snapshot clock on recovery.  Returns each
    operation's generation clock; ``compare(clock_a, clock_b) is
    BEFORE`` then decides ``a happened-before b``.
    """
    width = n_sites + 1  # sites 0..n_sites
    site_clock: dict[int, VectorClock] = {}
    gen_clock: dict[str, VectorClock] = {}
    snapshot_clock: dict[tuple[int, int, str], VectorClock] = {}

    def clock_of(site: int) -> VectorClock:
        return site_clock.get(site, VectorClock.zero(width))

    for event in events:
        site = event.site
        if event.kind in _GENERATION_KINDS:
            ticked = clock_of(site).tick(site)
            site_clock[site] = ticked
            op_id = event.op_id  # a re-issued name's latest generation counts
            if op_id is not None and (event.kind is TraceEventKind.GENERATED
                                      or op_id not in gen_clock):
                gen_clock[op_id] = ticked
        elif event.kind is TraceEventKind.EXECUTED:
            incoming = gen_clock.get(event.op_id or "")
            current = clock_of(site)
            if incoming is not None:
                current = current.merge(incoming)
            site_clock[site] = current.tick(site)
        elif event.kind is TraceEventKind.SNAPSHOT:
            ticked = clock_of(site).tick(site)
            site_clock[site] = ticked
            if event.peer is not None:
                key = (event.peer, event.epoch or 0, event.via or "resync")
                snapshot_clock[key] = ticked
        elif event.kind is TraceEventKind.RECOVERED and event.via != "join":
            key = (site, event.epoch or 0, event.via or "resync")
            incoming = snapshot_clock.get(key)
            current = clock_of(site)
            if incoming is not None:
                current = current.merge(incoming)
            site_clock[site] = current.tick(site)
    return gen_clock


def cross_check_merged_trace(
    causality: TraceCausality, n_sites: int
) -> CrossCheckReport:
    """DAG reachability vs vector-clock replay over the merged trace.

    The cluster has no shared in-process event log, so the in-repo
    trace-vs-oracle check does not apply directly; instead two
    *independent algorithms* reconstruct happened-before from the same
    merged stream and every ordered pair must agree.
    """
    gen_clock = trace_vector_clock_hb(causality.events, n_sites)
    ops = [op for op in causality.ops() if op in gen_clock]
    report = CrossCheckReport(
        mode="vector-clock-replay",
        n_ops=len(ops),
        pairs_checked=0,
        only_in_trace=sorted(set(causality.ops()) - set(gen_clock)),
    )
    for a in ops:
        for b in ops:
            if a == b:
                continue
            report.pairs_checked += 1
            dag_hb = causality.happened_before(a, b)
            vc_hb = compare(gen_clock[a], gen_clock[b]) is Ordering.BEFORE
            if dag_hb != vc_hb:
                report.mismatches.append((a, b, dag_hb, vc_hb))
    return report


# -- the full verdict ----------------------------------------------------------


@dataclass
class ClusterReport:
    """Every verdict over one cluster run, for the CLI and the CI gate."""

    converged: bool
    documents: dict[int, str]
    executed_ops: dict[int, int]
    expected_ops: int
    timed_out: bool
    check_disagreements: int
    bad_releases: int
    cross_check: CrossCheckReport
    trace_events: int
    latency_p50_s: Optional[float] = None
    latency_p95_s: Optional[float] = None
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: The run crossed a notifier-epoch boundary by live failover: the
    #: dead centre left no result artifact (only its streamed trace) and
    #: survivors receive the successor's unacknowledged operations via
    #: the failover snapshot rather than as executions, so the
    #: per-replica executed-op floor does not apply.
    failover_run: bool = False
    #: Human-readable context rendered with the summary but not part of
    #: the verdict (e.g. which artifacts a crashed site left behind).
    notes: list[str] = field(default_factory=list)
    #: Wall-clock end-to-end latency derived from the merged trace
    #: (:mod:`repro.obs.spans`): per site-pair percentiles with
    #: skew-corrected values where the estimator had samples in both
    #: directions.  Informational -- never part of the :attr:`ok`
    #: verdict, since wall-clock latency is hardware noise.
    spans: SpanReport = field(default_factory=SpanReport)

    @property
    def ok(self) -> bool:
        return (
            self.converged
            and not self.timed_out
            and self.check_disagreements == 0
            and self.bad_releases == 0
            and self.cross_check.ok
            and (self.failover_run
                 or all(n >= self.expected_ops
                        for n in self.executed_ops.values()))
            and not self.errors
        )

    def summary(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"cluster run: {verdict} ({len(self.documents)} processes, "
            f"{self.expected_ops} ops expected, {self.trace_events} trace "
            f"events, {self.wall_s:.2f}s wall)",
            f"  converged: {self.converged}   timed_out: {self.timed_out}",
            f"  executed per site: "
            f"{ {site: n for site, n in sorted(self.executed_ops.items())} }",
            f"  check records disagreeing with trace: "
            f"{self.check_disagreements}",
            f"  releases without cause: {self.bad_releases}",
            f"  {self.cross_check.summary()}",
        ]
        if self.latency_p50_s is not None and self.latency_p95_s is not None:
            lines.append(
                f"  op latency: p50 {self.latency_p50_s * 1e3:.1f} ms, "
                f"p95 {self.latency_p95_s * 1e3:.1f} ms"
            )
        lines.extend(f"  {line}" for line in self.spans.summary_lines())
        lines.extend(f"  note: {note}" for note in self.notes)
        lines.extend(f"  error: {err}" for err in self.errors)
        return "\n".join(lines)


def analyze_cluster(
    results: Sequence[ProcessResult],
    streams: Sequence[Sequence[TraceEvent]],
    *,
    expected_ops: int,
    n_sites: int,
    wall_s: float = 0.0,
    failover_run: bool = False,
    notes: Sequence[str] = (),
) -> ClusterReport:
    """Run every verdict over the artifacts of one cluster run."""
    documents = {r.site: r.document for r in results}
    docs = list(documents.values())
    merged = merge_traces(streams)
    errors: list[str] = []
    checks = [record for r in results for record in r.checks]
    try:
        causality = TraceCausality(merged)
        disagreements = len(verify_check_records(causality, checks))
        cross = cross_check_merged_trace(causality, n_sites)
    except ValueError as exc:  # TraceAnalysisError: malformed merged trace
        errors.append(f"trace analysis failed: {exc}")
        disagreements = -1
        cross = CrossCheckReport(mode="vector-clock-replay", n_ops=0,
                                 pairs_checked=0,
                                 only_in_trace=["<analysis failed>"])
    latencies = latency_histograms(merged)
    all_lat = Histogram()
    for hist in latencies.values():
        all_lat.merge(hist)
    return ClusterReport(
        converged=bool(docs) and all(doc == docs[0] for doc in docs[1:]),
        documents=documents,
        executed_ops={r.site: r.executed_ops for r in results},
        expected_ops=expected_ops,
        timed_out=any(r.timed_out for r in results),
        check_disagreements=disagreements,
        bad_releases=len(released_without_cause(merged)),
        cross_check=cross,
        trace_events=len(merged),
        latency_p50_s=all_lat.percentile(50),
        latency_p95_s=all_lat.percentile(95),
        wall_s=wall_s,
        errors=errors,
        failover_run=failover_run,
        notes=list(notes),
        spans=assemble_spans(merged),
    )
