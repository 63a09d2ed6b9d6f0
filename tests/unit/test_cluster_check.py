"""The cluster's trace merge and its happens-before cross-check.

Per-process traces arrive with private indices and same-host wall-clock
stamps; :func:`merge_traces` must produce one stream that is a
topological order of the causal DAG even when clock skew stamps an
execution *before* the generation it depends on.  The ground-truth
event log replayed from that stream (:func:`replay_event_log`) is the
one record the merged trace is checked against: its DAG against its own
vector clocks, and every verdict recomputed from the trace.
"""

from __future__ import annotations

import pytest

from repro.analysis.causality import CausalityOracle
from repro.clocks.vector import Ordering, compare
from repro.cluster.check import analyze_cluster, merge_traces
from repro.obs.analysis import cross_check_causality, replay_event_log
from repro.obs.tracer import TraceEvent, TraceEventKind


def _event(index: int, kind: TraceEventKind, time: float, site: int,
           **kw) -> TraceEvent:
    return TraceEvent(index=index, kind=kind, time=time, site=site, **kw)


def _finished(site: int, document="", executed=1, timed_out=False,
              index: int = 99) -> TraceEvent:
    """A closing record: the end state a finished process reports."""
    return _event(index, TraceEventKind.FINISHED, 9.0, site, seq=0,
                  gauges={"ops_executed": executed, "document": document,
                          "timed_out": timed_out})


def test_merge_orders_by_time_and_reindexes() -> None:
    a = [
        _event(0, TraceEventKind.GENERATED, 1.0, 1, op_id="1-1"),
        _event(1, TraceEventKind.EXECUTED, 3.0, 1, op_id="1-1'"),
    ]
    b = [
        _event(0, TraceEventKind.GENERATED, 0.5, 2, op_id="2-1"),
        _event(1, TraceEventKind.TRANSFORMED, 2.0, 0, op_id="1-1'",
               source_op="1-1"),
    ]
    merged = merge_traces([a, b])
    assert [e.index for e in merged] == [0, 1, 2, 3]
    assert [e.op_id for e in merged] == ["2-1", "1-1", "1-1'", "1-1'"]
    assert [e.time for e in merged] == [0.5, 1.0, 2.0, 3.0]


def test_merge_repairs_clock_skew_on_execution() -> None:
    # Site 1's clock runs ahead: its EXECUTED is stamped *before* the
    # notifier's TRANSFORMED that generated the op.  The merge must
    # defer the execution anyway.
    executor = [_event(0, TraceEventKind.EXECUTED, 1.0, 1, op_id="2-1'")]
    notifier = [
        _event(0, TraceEventKind.GENERATED, 0.5, 2, op_id="2-1"),
        _event(1, TraceEventKind.TRANSFORMED, 2.0, 0, op_id="2-1'",
               source_op="2-1"),
    ]
    merged = merge_traces([executor, notifier])
    kinds = [e.kind for e in merged]
    assert kinds.index(TraceEventKind.TRANSFORMED) \
        < kinds.index(TraceEventKind.EXECUTED)
    # The repaired stream must satisfy the strict analysis layer.
    replay_event_log(merged)


def test_merge_preserves_per_stream_program_order() -> None:
    # Stream-internal order survives even when timestamps say otherwise
    # (a site's own trace IS its program order).
    stream = [
        _event(0, TraceEventKind.GENERATED, 2.0, 1, op_id="1-1"),
        _event(1, TraceEventKind.GENERATED, 1.0, 1, op_id="1-2"),
    ]
    merged = merge_traces([stream])
    assert [e.op_id for e in merged] == ["1-1", "1-2"]


def test_merge_emits_blocked_heads_rather_than_hanging() -> None:
    # A dead process never wrote the generation; the merge must still
    # terminate (the analysis layer then reports the dangling EXECUTED).
    orphan = [_event(0, TraceEventKind.EXECUTED, 1.0, 1, op_id="ghost'")]
    merged = merge_traces([orphan])
    assert len(merged) == 1


def test_vector_clock_replay_agrees_with_dag_reachability() -> None:
    # 1-1 happens-before its transform 1-1'; 2-1 is concurrent with 1-1.
    # Site 1 then restarts: 2-2 reaches it only through the resync
    # snapshot, so 2-2 -> 1-2 is the state transfer's edge.
    events = [
        _event(0, TraceEventKind.GENERATED, 1.0, 1, op_id="1-1"),
        _event(1, TraceEventKind.GENERATED, 1.1, 2, op_id="2-1"),
        _event(2, TraceEventKind.EXECUTED, 1.5, 0, op_id="1-1"),
        _event(3, TraceEventKind.TRANSFORMED, 1.5, 0, op_id="1-1'",
               source_op="1-1"),
        _event(4, TraceEventKind.EXECUTED, 1.6, 0, op_id="2-1"),
        _event(5, TraceEventKind.TRANSFORMED, 1.6, 0, op_id="2-1'",
               source_op="2-1"),
        _event(6, TraceEventKind.EXECUTED, 2.0, 2, op_id="1-1'"),
        _event(7, TraceEventKind.EXECUTED, 2.1, 1, op_id="2-1'"),
        _event(8, TraceEventKind.GENERATED, 2.2, 2, op_id="2-2"),
        _event(9, TraceEventKind.EXECUTED, 2.3, 0, op_id="2-2"),
        _event(10, TraceEventKind.TRANSFORMED, 2.3, 0, op_id="2-2'",
               source_op="2-2"),
        _event(11, TraceEventKind.CRASHED, 2.35, 1, epoch=1),
        _event(12, TraceEventKind.SNAPSHOT, 2.4, 0, peer=1, epoch=1,
               via="resync"),
        _event(13, TraceEventKind.RECOVERED, 2.5, 1, peer=0, epoch=1,
               via="resync"),
        _event(14, TraceEventKind.GENERATED, 2.6, 1, op_id="1-2"),
    ]
    log = replay_event_log(events)
    assert log.n_sites == 3  # the sites the trace names
    clocks = log.generation_clock
    assert compare(clocks("1-1"), clocks("1-1'")) is Ordering.BEFORE
    assert compare(clocks("1-1"), clocks("2-1")) is Ordering.CONCURRENT
    assert compare(clocks("2-2"), clocks("1-2")) is Ordering.BEFORE
    # The relation worked out by hand: every op reaches the centre's
    # later copies, and the resync snapshot carries all of it to 1-2.
    oracle = CausalityOracle(log)
    assert oracle.causal_pairs() == {
        ("1-1", "1-1'"), ("1-1", "2-1'"), ("1-1", "2-2"), ("1-1", "2-2'"),
        ("1-1", "1-2"), ("2-1", "2-1'"), ("2-1", "2-2"), ("2-1", "2-2'"),
        ("2-1", "1-2"), ("1-1'", "2-1'"), ("1-1'", "2-2"), ("1-1'", "2-2'"),
        ("1-1'", "1-2"), ("2-1'", "2-2'"), ("2-1'", "1-2"), ("2-2", "2-2'"),
        ("2-2", "1-2"), ("2-2'", "1-2"),
    }
    # One record: the replayed DAG against its own vector clocks.
    report = cross_check_causality(oracle, log)
    assert report.ok, report.summary()
    assert report.n_ops == 7
    assert report.pairs_checked == 42


def test_a_malformed_merged_trace_is_an_analysis_error() -> None:
    traces = {1: [_event(0, TraceEventKind.EXECUTED, 1.0, 1, op_id="ghost'"),
                  _finished(1)]}
    report = analyze_cluster(traces, expected_ops=1)
    assert not report.ok
    assert report.errors and "trace analysis failed" in report.errors[0]


# A client op 1-1 at the centre, then one broken event each.
_PREFIX = [
    _event(0, TraceEventKind.GENERATED, 1.0, 1, op_id="1-1", timestamp=(0, 1)),
    _event(1, TraceEventKind.EXECUTED, 1.4, 0, op_id="1-1", timestamp=(0, 1)),
    _event(2, TraceEventKind.TRANSFORMED, 1.4, 0, op_id="1-1'",
           source_op="1-1", timestamp=(1,)),
]


@pytest.mark.parametrize("broken", [
    [_event(3, TraceEventKind.EXECUTED, 1.8, 1, op_id="1-1'", timestamp=(0, 1, 0))],
    [_event(3, TraceEventKind.EXECUTED, 1.8, 1, op_id="1-1'", timestamp=(1,))],
    [_event(3, TraceEventKind.EXECUTED, 1.8, 1, op_id="1-1'", timestamp=("1", 1))],
    [_event(3, TraceEventKind.GENERATED, 1.8, 1, op_id="1-2", timestamp=())],
    # The centre's SV_0 must hold counts.
    [_event(3, TraceEventKind.TRANSFORMED, 1.8, 0, op_id="1-1''",
            source_op="1-1", timestamp=(None,))],
    # Formula (7) indexes SV_0 by the arrival's origin, which is a client.
    [_event(3, TraceEventKind.GENERATED, 1.8, 0, op_id="0-1", timestamp=(0, 1)),
     _event(4, TraceEventKind.EXECUTED, 1.9, 0, op_id="0-1", timestamp=(0, 1))],
    # The replay spans the sites the trace names: one far out is refused
    # before anything is sized by it.
    [_event(3, TraceEventKind.GENERATED, 1.8, 10**9, op_id="x-1", timestamp=(0, 1))],
], ids=["T-too-long", "T-too-short", "T-not-counts", "T-empty", "SV0-not-counts",
        "centre-arrival-from-centre", "stray-site"])
def test_a_malformed_event_is_an_analysis_error(broken: list[TraceEvent]) -> None:
    traces = {0: [_finished(0)], 1: [*_PREFIX, *broken, _finished(1)]}
    report = analyze_cluster(traces, expected_ops=1)
    assert not report.ok
    assert report.errors and "trace analysis failed" in report.errors[0]


def test_a_dag_clock_disagreement_is_a_mismatch_not_a_crash() -> None:
    # One record whose DAG loses the execution that carries 1-1 to the
    # centre, while its vector clocks keep it: the cross-check reports
    # the pair rather than raising.
    log = replay_event_log(_PREFIX)
    assert [e.kind.value for e in log.events] == ["generate", "execute", "generate"]
    del log.events[1]
    report = cross_check_causality(CausalityOracle(log), log)
    assert not report.ok
    assert report.mismatches == [("1-1", "1-1'", False, True)]
    assert "MISMATCH" in report.summary()


def test_analyze_cluster_full_verdict() -> None:
    # Formulas (5) and (7) read the timestamps the editor events carry.
    traces = {
        1: [
            _event(0, TraceEventKind.GENERATED, 1.0, 1, op_id="1-1",
                   timestamp=(0, 1)),
            _event(1, TraceEventKind.EXECUTED, 1.8, 1, op_id="1-1'",
                   timestamp=(0, 1)),
            _finished(1, "abc"),
        ],
        0: [
            _event(0, TraceEventKind.EXECUTED, 1.4, 0, op_id="1-1",
                   timestamp=(0, 1)),
            _event(1, TraceEventKind.TRANSFORMED, 1.4, 0, op_id="1-1'",
                   source_op="1-1", timestamp=(1,)),
            _finished(0, "abc"),
        ],
    }
    report = analyze_cluster(traces, expected_ops=1)
    assert report.ok, report.summary()
    assert report.verdicts_checked == 1  # 1-1' at site 1 against 1-1
    assert report.converged
    assert report.executed_ops == {0: 1, 1: 1}
    assert "OK" in report.summary()


def test_analyze_cluster_flags_divergence_and_timeout() -> None:
    traces = {1: [_finished(1, "abc")], 0: [_finished(0, "abX", timed_out=True)]}
    report = analyze_cluster(traces, expected_ops=1)
    assert not report.converged
    assert report.timed_out
    assert not report.ok
    assert "FAILED" in report.summary()


@pytest.mark.parametrize("traces, problem", [
    ({0: [_finished(0, None)], 1: [_finished(1)]}, "lacks a document"),
    ({0: [_finished(0, 7)], 1: [_finished(1)]}, "lacks a document"),
    ({0: [_finished(0, index=1), _finished(0, index=2)], 1: [_finished(1)]},
     "2 closing records"),
    ({0: [_finished(0)], 1: [_finished(2)]}, "site 1 is closed by site 2"),
], ids=["document-missing", "document-not-a-string", "second-closing-record",
        "closed-by-another-site"])
def test_a_malformed_closing_record_is_an_analysis_error(traces, problem) -> None:
    """A process's end state is its trace's closing record: one that is
    not well formed fails the run as an analysis error, not a crash."""
    report = analyze_cluster(traces, expected_ops=1)
    assert not report.ok
    assert len(report.errors) == 1
    assert report.errors[0].startswith("trace analysis failed")
    assert problem in report.errors[0]


def test_a_trace_without_a_closing_record_reports_no_end_state() -> None:
    """The dead centre of a failover run: its trace is merged, and the
    run's end state is the survivors'."""
    traces = {0: [_event(0, TraceEventKind.CRASHED, 1.0, 0, epoch=0)],
              1: [_event(0, TraceEventKind.PROMOTED, 2.0, 1, epoch=1),
                  _finished(1, "abc")],
              2: [_finished(2, "abc")]}
    report = analyze_cluster(traces, expected_ops=1)
    assert report.ok, report.summary()
    assert report.failover_run
    assert report.documents == {1: "abc", 2: "abc"}
    assert report.trace_events == 4
