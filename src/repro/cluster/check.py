"""Merging and verifying multi-process traces.

Each cluster process records its own trace with its own event indices
and (same-host) wall-clock stamps, and nothing else: no process keeps a
verdict of its own, and its end state is the trace's closing
``finished`` record.  The in-process analysis machinery
(:mod:`repro.obs.analysis`) requires one stream whose order is a
topological order of the causal DAG; this module builds that stream,
replays the ground-truth event log from it once, and runs the repo's
standard verdicts over the two -- the happens-before cross-check
(:func:`~repro.obs.analysis.cross_check_causality`, the replayed DAG
against its own vector clocks) and every formula-(5)/(7) verdict
recomputed from the trace's timestamps
(:func:`~repro.obs.analysis.check_verdicts`).

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
from typing import Mapping, Optional, Sequence

from repro.analysis.causality import CausalityOracle
from repro.clocks.events import TransferKey, transfer_key
from repro.cluster.harness import closing_records
from repro.obs.analysis import (
    CrossCheckReport,
    TraceAnalysisError,
    check_verdicts,
    cross_check_causality,
    released_without_cause,
    replay_event_log,
)
from repro.obs.spans import SpanReport, assemble_spans
from repro.obs.tracer import Histogram, TraceEvent, TraceEventKind

_GENERATION_KINDS = (TraceEventKind.GENERATED, TraceEventKind.TRANSFORMED)


def _dependency_satisfied(
    event: TraceEvent, generated: set[str], snapshots: set[TransferKey]
) -> bool:
    """May ``event`` be emitted given what the merge already emitted?"""
    if event.kind is TraceEventKind.EXECUTED:
        return event.op_id is None or event.op_id in generated
    if event.kind is TraceEventKind.RECOVERED:
        return transfer_key(event.site, event.epoch, event.via) in snapshots
    return True


def merge_traces(streams: Sequence[Sequence[TraceEvent]]) -> list[TraceEvent]:
    """Merge per-process traces into one causally consistent stream.

    Preserves each stream's internal order (per-site program order),
    orders across streams by timestamp, and defers a stream whose head
    still waits on a cross-process cause.  Events are re-indexed into
    the merged order, since per-process indices collide.  If every head
    is blocked (a genuinely missing cause -- e.g. a process died before
    writing its generation events), the earliest head is emitted anyway
    and the downstream :func:`~repro.obs.analysis.replay_event_log`
    reports the defect rather than the merge hanging.
    """
    heads = [0] * len(streams)
    generated: set[str] = set()
    snapshots: set[TransferKey] = set()
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
            snapshots.add(transfer_key(event.peer, event.epoch, event.via))
        merged.append(replace(event, index=len(merged)))
    return merged


# -- the full verdict ----------------------------------------------------------


@dataclass
class ClusterReport:
    """Every verdict over one cluster run, for the CLI and the CI gate."""

    converged: bool
    documents: dict[int, str]
    executed_ops: dict[int, int]
    expected_ops: int
    timed_out: bool
    verdicts_checked: int
    check_disagreements: int
    bad_releases: int
    cross_check: CrossCheckReport
    trace_events: int
    latency_p50_s: Optional[float] = None
    latency_p95_s: Optional[float] = None
    wall_s: float = 0.0
    errors: list[str] = field(default_factory=list)
    #: The run crossed a notifier-epoch boundary by live failover (some
    #: trace records ``promoted``): the dead centre's trace has no
    #: closing record and survivors receive the successor's
    #: unacknowledged operations via the failover snapshot rather than
    #: as executions, so the per-replica executed-op floor does not apply.
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
            f"  formula (5)/(7) verdicts vs trace: "
            f"{self.check_disagreements} disagreements in "
            f"{self.verdicts_checked}",
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
    traces: Mapping[int, Sequence[TraceEvent]],
    *,
    expected_ops: int,
    wall_s: float = 0.0,
    notes: Sequence[str] = (),
) -> ClusterReport:
    """Run every verdict over the traces of one cluster run, by site."""
    merged = merge_traces(list(traces.values()))
    ends: dict[int, tuple[str, int, bool]] = {}
    errors: list[str] = []
    try:
        ends = closing_records(traces)
        # The replay spans the sites the trace names; those are the run's
        # processes.
        stray = {e.site for e in merged} - set(traces)
        if stray:
            raise TraceAnalysisError(f"events from sites {sorted(stray)}, "
                                     "which no process of the run is")
        # One record, one replay: its DAG is checked against its vector
        # clocks, and it is the relation every verdict is checked against.
        oracle = CausalityOracle(replay_event_log(merged))
        checked, found = check_verdicts(merged, oracle)
        disagreements = len(found)
        cross = cross_check_causality(oracle, oracle.log)
    except ValueError as exc:  # a malformed merged trace
        errors.append(f"trace analysis failed: {exc}")
        checked, disagreements = 0, -1
        cross = CrossCheckReport(n_ops=0, pairs_checked=0,
                                 only_in_trace=["<analysis failed>"])
    documents = {site: document for site, (document, _, _) in ends.items()}
    docs = list(documents.values())
    spans = assemble_spans(merged)
    latencies = Histogram()
    for pair in spans.pairs.values():
        latencies.merge(pair.raw)
    return ClusterReport(
        converged=bool(docs) and all(doc == docs[0] for doc in docs[1:]),
        documents=documents,
        executed_ops={site: executed for site, (_, executed, _) in ends.items()},
        expected_ops=expected_ops,
        timed_out=any(timed_out for _, _, timed_out in ends.values()),
        verdicts_checked=checked,
        check_disagreements=disagreements,
        bad_releases=len(released_without_cause(merged)),
        cross_check=cross,
        trace_events=len(merged),
        latency_p50_s=latencies.percentile(50),
        latency_p95_s=latencies.percentile(95),
        wall_s=wall_s,
        errors=errors,
        failover_run=any(e.kind is TraceEventKind.PROMOTED for e in merged),
        notes=list(notes),
        spans=spans,
    )
