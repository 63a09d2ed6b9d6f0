"""Unit tests for the cross-process monitor, which reads the traces alone.

The monitor's contracts: an event is new iff its ``index`` is above its
site's latest, a ``sampled`` event makes the site's frame and the
derived gauges count the site's other events, aggregation reflects each
site's *latest* frame, the registry sums each site's latest counters and
keeps every sampled series value, what a site traces about its faults is
graded into health events, the watchdogs a trace header asks for judge
every site (digests only between complete replicas, silence by each
trace's mtime against the newest), and ``run_monitor`` renders live
lines, writes the JSONL artifact, and maps what it saw onto its exit
code.
"""

from __future__ import annotations

import json
import os

from repro.obs import HealthEvent, TelemetryFrame, aggregate, run_monitor
from repro.obs import monitor as monitor_module
from repro.obs.monitor import (
    MONITOR_FORMAT,
    TelemetryTailer,
    sparkline,
)
from repro.obs.tracer import TraceEvent, TraceEventKind, trace_header

K = TraceEventKind
GENERATED, TRANSFORMED, EXECUTED = K.GENERATED, K.TRANSFORMED, K.EXECUTED


def frame_at(site: int, seq: int, **over) -> TelemetryFrame:
    base = dict(site=site, role="client" if site else "notifier",
                seq=seq, time=float(seq))
    base.update(over)
    return TelemetryFrame(**base)


def event(index: int, kind: TraceEventKind, time: float, site: int,
          **fields) -> TraceEvent:
    return TraceEvent(index=index, kind=kind, time=time, site=site, **fields)


def sample(site: int, seq: int, *, index=None, time=None, **gauges) -> TraceEvent:
    """Site ``site``'s ``seq``-th sample (index and time ``seq`` unless
    given): the event that makes a frame."""
    return event(seq if index is None else index, K.SAMPLED,
                 float(seq) if time is None else time, site, seq=seq,
                 gauges=gauges)


def fed(*events: TraceEvent) -> TelemetryTailer:
    """A tailer (of no directory) that was offered ``events``; the first
    one's time is its zero."""
    tailer = TelemetryTailer("/nonexistent")
    for offered in events:
        tailer.ingest(offered)
    return tailer


def write_trace(path, site, *events, **run):
    """A process's trace: its header (``run`` is what it says about the
    run: ``sites``, ``expected_ops``), then ``events``."""
    header = trace_header({"site": site, "role": "client" if site else "notifier",
                           **run})
    path.write_text("".join([json.dumps(header) + "\n",
                             *(e.to_json() + "\n" for e in events)]))


def append(path, *events):
    with path.open("a") as fh:
        fh.writelines(e.to_json() + "\n" for e in events)


#: What a three-site run of nine operations writes in every trace header.
RUN = dict(sites=3, expected_ops=9)


def write_run(tmp_path, traces):
    """One trace per site of ``traces`` (site -> events), with RUN's
    header; returns the paths."""
    paths = {}
    for site, events in traces.items():
        paths[site] = tmp_path / f"trace_{site}.jsonl"
        write_trace(paths[site], site, *events, **RUN)
    return paths


def monitor_records(tmp_path):
    return [json.loads(line) for line
            in (tmp_path / "monitor.jsonl").read_text().splitlines()[1:]]


class TestScanDir:
    def test_an_event_is_new_iff_its_index_is_above_its_sites_latest(
            self, tmp_path):
        write_trace(tmp_path / "trace_1.jsonl", 1, sample(1, 0), sample(1, 1))
        write_trace(tmp_path / "trace_0.jsonl", 0, sample(0, 0))
        tailer = TelemetryTailer(tmp_path)
        assert tailer.poll() == []
        assert sorted(tailer.latest) == [0, 1]
        held = tailer.latest[1]
        assert (held.seq, held.role) == (1, "client")
        # An index at or below the site's latest changes nothing: no
        # frame, no count.
        for stale in (sample(1, 1, ops_executed=7), sample(1, 0),
                      event(1, GENERATED, 1.0, 1, op_id="c1_9")):
            assert tailer.ingest(stale) == []
        assert tailer.latest[1] == held
        assert tailer.kept.counter("telemetry.frames") == 3
        tailer.ingest(event(2, GENERATED, 2.0, 1, op_id="c1_9"))
        tailer.ingest(sample(1, 2, index=3))
        assert tailer.latest[1].ops_generated == 1

    def test_health_events_are_deduplicated_and_sorted(self, tmp_path):
        lost = event(0, K.PEER_LOST, 2.0, 1, peer=0, via="terminal")
        earlier = event(0, K.PEER_LOST, 1.0, 2, peer=0, via="eof")
        # A replayed line is the same event: its index is not new.
        write_trace(tmp_path / "trace_1.jsonl", 1, lost, lost)
        write_trace(tmp_path / "trace_2.jsonl", 2, earlier)
        assert TelemetryTailer(tmp_path).poll() == [
            HealthEvent(time=0.0, site=2, kind="peer_dead", verdict="warn",
                        peer=0, detail="connection closed mid-run; re-electing"),
            HealthEvent(time=1.0, site=1, kind="peer_dead", verdict="fail",
                        peer=0, detail="connection closed mid-run; no failover left"),
        ]

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "trace_1.jsonl"
        write_trace(path, 1, sample(1, 0))
        with path.open("a") as fh:
            fh.write('{"i": 1, "kind": "samp')
        tailer = TelemetryTailer(tmp_path)
        assert tailer.poll() == []
        assert tailer.latest == {1: frame_at(1, 0, role="client", time=0.0)}
        assert tailer.records_parsed == 1

    def test_a_header_that_does_not_describe_the_run_arms_nothing(self, tmp_path):
        # Outside input: a malformed header costs its own facts, not the poll.
        for sites, expected_ops in (("three", 9), (3, 0), (3, None)):
            write_trace(tmp_path / "trace_1.jsonl", 1, sample(1, 0),
                        sites=sites, expected_ops=expected_ops)
            tailer = TelemetryTailer(tmp_path)
            assert tailer.poll() == []
            assert (tailer.watchdogs, tailer.sites) == ([], None)
            assert list(tailer.latest) == [1]


class TestAggregate:
    def test_latest_frame_per_site_wins(self):
        snapshot = aggregate(fed(
            sample(0, 0, ops_executed=2), sample(0, 3, ops_executed=9),
            sample(0, 1, ops_executed=4), sample(1, 1, ops_executed=5),
        ).latest)
        assert snapshot.sites == [0, 1]
        assert snapshot.totals["ops_executed"] == {0: 9, 1: 5}
        assert snapshot.time == 3.0  # the newest latest-frame time

    def test_sums_and_maxima(self):
        totals = aggregate({
            0: frame_at(0, 0, holdback_depth=1, holdback_high_water=4,
                        inflight=2, retransmits=3, storage_ints=7,
                        queue_depth=5, epoch=1, ops_generated=6),
            1: frame_at(1, 0, holdback_depth=2, holdback_high_water=3,
                        inflight=1, retransmits=1, storage_ints=4,
                        queue_depth=2, epoch=0, ops_generated=3),
        }).totals
        assert totals["holdback_depth"] == 3
        assert totals["holdback_high_water"] == 4  # worst single buffer
        assert totals["inflight"] == 3
        assert totals["retransmits"] == 4
        assert totals["storage_ints"] == 11
        assert totals["queue_depth"] == 7
        assert totals["epoch"] == 1
        assert totals["ops_generated"] == 9

    def test_digest_divergence_only_among_complete_replicas(self, tmp_path):
        # The sentinel the header arms compares a replica only once it
        # has executed all nine operations, counted in the same sample.
        paths = write_run(tmp_path, {
            0: [sample(0, 0, ops_executed=9, digest="aaa")],
            1: [sample(1, 0, ops_executed=3, digest="bbb")],
        })
        tailer = TelemetryTailer(tmp_path)
        assert tailer.poll() == []
        append(paths[1], sample(1, 1, ops_executed=9, digest="bbb"))
        (verdict,) = tailer.poll()
        assert (verdict.kind, verdict.verdict, verdict.site, verdict.peer) == (
            "divergence", "fail", 1, 0)
        snapshot = aggregate(tailer.latest, [verdict], digests_agree=False)
        assert "DIVERGED" in snapshot.line()

    def test_line_renders_health_events(self):
        health = [HealthEvent(time=1.0, site=2, kind="peer_dead",
                              verdict="fail", peer=0, detail="gone")]
        text = aggregate({0: frame_at(0, 0)}, health, expected_sites=4).line()
        assert "sites=1/4" in text
        # Before a trace header says how many sites the run has: K alone.
        assert "sites=1 " in aggregate({0: frame_at(0, 0)}).line()
        assert "health: [fail] site 2 peer_dead (peer 0): gone" in text

    def test_failover_counters_sum_and_render_only_when_present(self):
        # A quiet run never mentions failover -- the line segment is
        # reserved for runs where an epoch transition actually happened.
        quiet = aggregate({0: frame_at(0, 0), 1: frame_at(1, 0)})
        assert "failover=" not in quiet.line()
        assert quiet.totals["elected"] == 0 and quiet.totals["promoted"] == 0
        # After a crash: site 1 elected + promoted at epoch 1, sites 2-3
        # resynced from snapshots, site 3 queued edits while leaderless.
        snapshot = aggregate({
            1: frame_at(1, 2, elected=1, promoted=1, epoch=1),
            2: frame_at(2, 2, resynced=1, epoch=1),
            3: frame_at(3, 2, resynced=1, degraded_queued=2, epoch=1),
        })
        assert "failover=1e/1p/2r dq=2" in snapshot.line()
        record = json.loads(snapshot.to_json())
        assert record["elected"] == 1
        assert record["promoted"] == 1
        assert record["resynced"] == 2
        assert record["degraded_queued"] == 2

    def test_site_registry_carries_failover_counters(self):
        tailer = fed(
            sample(1, 0),
            event(1, K.ELECTED, 1.0, 1, peer=0, epoch=1),
            event(2, K.PROMOTED, 1.0, 1, epoch=1),
            event(3, K.RECOVERED, 1.0, 1, epoch=1, via="failover"),
            # A crash restart's recovery is no failover resync.
            event(4, K.RECOVERED, 1.0, 1, epoch=3, via="resync"),
            sample(1, 1, index=5, degraded_queued=3),
        )
        counters = tailer.registry().counters()
        assert counters["telemetry.elected"] == 1
        assert counters["telemetry.promoted"] == 1
        assert counters["telemetry.resynced"] == 1
        assert counters["telemetry.degraded_queued"] == 3
        assert tailer.latest[1].epoch == 1


class TestRegistries:
    def test_site_registry_counts_latest_and_observes_every_frame(self):
        registry = fed(
            sample(1, 0, ops_executed=2, holdback_depth=1),
            event(1, K.RETRANSMITTED, 0.5, 1, peer=0, seq=4, via="timer"),
            event(2, K.RETRANSMITTED, 0.6, 1, peer=0, seq=4, via="timer"),
            sample(1, 1, index=3, ops_executed=5, holdback_depth=3),
        ).registry()
        counters = registry.counters()
        assert counters["telemetry.ops_executed"] == 5  # latest, not summed
        assert counters["telemetry.retransmits"] == 2
        assert counters["telemetry.frames"] == 2
        assert sorted(registry.histograms()["telemetry.holdback_depth"].values) \
            == [1.0, 3.0]

    def test_merged_registry_sums_across_sites(self):
        merged = fed(sample(0, 0, ops_executed=4),
                     sample(1, 0, ops_executed=6)).registry()
        assert merged.counters()["telemetry.ops_executed"] == 10
        assert merged.counters()["telemetry.frames"] == 2
        assert merged.histograms()["telemetry.queue_depth"].count == 2


class TestRunMonitor:
    def test_once_mode_emits_a_line_and_writes_the_artifact(self, tmp_path):
        write_trace(tmp_path / "trace_0.jsonl", 0, sample(0, 0, ops_executed=9),
                    sites=4, expected_ops=12)
        lines: list[str] = []
        code = run_monitor(tmp_path, once=True, emit=lines.append)
        assert code == 0
        assert len(lines) == 1 and "sites=1/4" in lines[0]
        artifact = (tmp_path / "monitor.jsonl").read_text().splitlines()
        header = json.loads(artifact[0])
        assert header["format"] == MONITOR_FORMAT
        records = [json.loads(line) for line in artifact[1:]]
        kinds = [r["rec"] for r in records]
        assert kinds == ["interval", "metrics"]
        assert records[0]["ops_executed"] == {"0": 9}
        assert records[1]["counters"]["telemetry.ops_executed"] == 9

    def test_no_telemetry_at_all_exits_1(self, tmp_path):
        assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 1
        # A trace that never sampled is no telemetry either.
        write_trace(tmp_path / "trace_1.jsonl", 1,
                    event(0, GENERATED, 0.0, 1, op_id="c1_0"))
        assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 1

    def test_fail_health_verdict_exits_2(self, tmp_path):
        write_trace(tmp_path / "trace_1.jsonl", 1, sample(1, 0),
                    event(1, K.PEER_LOST, 1.0, 1, peer=0, via="terminal"))
        code = run_monitor(tmp_path, once=True, emit=lambda _: None)
        assert code == 2
        health = [r for r in monitor_records(tmp_path) if r["rec"] == "health"]
        assert [(h["kind"], h["verdict"]) for h in health] == [("peer_dead", "fail")]

    def test_live_loop_stops_once_streams_go_idle(self, tmp_path):
        write_trace(tmp_path / "trace_0.jsonl", 0, sample(0, 0))
        clock = {"t": 0.0}

        def sleep(seconds: float) -> None:
            clock["t"] += seconds

        code = run_monitor(tmp_path, interval_s=0.1, emit=lambda _: None,
                           clock=lambda: clock["t"], sleep=sleep)
        assert code == 0  # returned on its own: idle detection worked

    def test_max_intervals_bounds_the_loop(self, tmp_path):
        write_trace(tmp_path / "trace_0.jsonl", 0, sample(0, 0))
        rounds = {"n": 0}

        def sleep(_seconds: float) -> None:
            rounds["n"] += 1
            # Keep the trace "fresh" forever: without the bound the idle
            # detector would never fire.
            append(tmp_path / "trace_0.jsonl", sample(0, rounds["n"]))

        code = run_monitor(tmp_path, interval_s=0.01, max_intervals=3,
                           emit=lambda _: None, sleep=sleep)
        assert code == 0
        assert rounds["n"] == 2  # 3 rounds = 2 sleeps between them

    def test_an_interval_reads_the_latest_frame_per_site_not_the_run(
            self, tmp_path, monkeypatch):
        # 1 000 samples on disk, more arriving: every interval is handed
        # one frame per site, and nothing holds the trace as a list.
        trace = tmp_path / "trace_1.jsonl"
        write_trace(trace, 1, *(sample(1, seq, holdback_depth=seq)
                                for seq in range(1000)))
        handed = []
        real = monitor_module.aggregate
        monkeypatch.setattr(
            monitor_module, "aggregate",
            lambda latest, health=(), **run: (handed.append(dict(latest))
                                              or real(latest, health, **run)))

        def sleep(_seconds: float) -> None:
            append(trace, sample(1, 1000 + len(handed)))

        assert run_monitor(tmp_path, interval_s=0.01, max_intervals=3,
                           emit=lambda _: None, sleep=sleep) == 0
        assert [list(latest) for latest in handed] == [[1], [1], [1]]
        assert [latest[1].seq for latest in handed] == [999, 1001, 1002]
        metrics = monitor_records(tmp_path)[-1]
        assert metrics["counters"]["telemetry.frames"] == 1002
        assert metrics["counters"]["monitor.records_parsed"] == 1002
        assert metrics["histograms"]["telemetry.holdback_depth"]["max"] == 999


class TestWatchdogsInTheMonitor:
    """The four watchdogs run where every site's trace is read."""

    def test_two_complete_replicas_that_differ_exit_2_naming_the_pair(self, tmp_path):
        write_run(tmp_path, {
            0: [sample(0, 0, ops_executed=9, digest="aaa")],
            1: [sample(1, 0, ops_executed=9, digest="aaa")],
            2: [sample(2, 0, ops_executed=9, digest="ccc")],
        })
        lines: list[str] = []
        assert run_monitor(tmp_path, once=True, emit=lines.append) == 2
        assert "digests=DIVERGED" in lines[0]
        records = monitor_records(tmp_path)
        flagged = [(r["site"], r["peer"]) for r in records
                   if r["rec"] == "health" and r["kind"] == "divergence"]
        assert flagged == [(2, 0), (2, 1)]
        assert [r["digests_agree"] for r in records if r["rec"] == "interval"] == [False]

    def test_equal_counts_below_expected_ops_are_not_a_divergence(self, tmp_path):
        # Mid-run replicas legitimately differ, even at the same count.
        write_run(tmp_path, {
            0: [sample(0, 0, ops_executed=5, digest="aaa")],
            1: [sample(1, 0, ops_executed=5, digest="bbb")],
        })
        lines: list[str] = []
        assert run_monitor(tmp_path, once=True, emit=lines.append) == 0
        assert "digests=ok" in lines[0]

    @staticmethod
    def _stopped_early(tmp_path, *last):
        """Site 1 traced three samples (then ``last``) and fell silent
        10 s before sites 0 and 2 traced their last."""
        paths = write_run(tmp_path, {
            0: [sample(0, seq) for seq in range(10)],
            1: [*(sample(1, seq) for seq in range(3)), *last],
            2: [sample(2, seq) for seq in range(10)],
        })
        newest = max(path.stat().st_mtime for path in paths.values())
        os.utime(paths[1], (newest - 10.0, newest - 10.0))

    def test_a_stream_that_stops_early_is_silent_under_once(self, tmp_path):
        self._stopped_early(tmp_path)
        assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 2
        silent = [r for r in monitor_records(tmp_path)
                  if r["rec"] == "health" and r["kind"] == "peer_silent"]
        assert [(r["site"], r["verdict"]) for r in silent] == [(1, "fail")]

    def test_a_stream_that_ends_in_its_crash_is_not_silent(self, tmp_path):
        # The crash was graded where it was traced (warn: the survivors'
        # traces say whether the run outlived it).
        self._stopped_early(tmp_path, event(3, K.CRASHED, 3.0, 1, epoch=0))
        assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 0
        # ...and sites 0 and 2, which ended together, are not silent.
        health = [r for r in monitor_records(tmp_path) if r["rec"] == "health"]
        assert [(r["kind"], r["verdict"]) for r in health] == [("crash", "warn")]


class TestTelemetryTailer:
    def test_each_record_parsed_exactly_once_across_polls(self, tmp_path):
        trace = tmp_path / "trace_1.jsonl"
        write_trace(trace, 1, sample(1, 0),
                    event(1, GENERATED, 0.5, 1, op_id="c1_0"),
                    sample(1, 1, index=2))
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        assert tailer.latest[1].seq == 1
        assert tailer.records_parsed == 3  # header lines are not records

        # Nothing new on disk: a second poll parses zero records.
        tailer.poll()
        assert tailer.records_parsed == 3

        # Append three more; only the appended bytes are parsed.
        append(trace, sample(1, 2, index=3),
               event(4, GENERATED, 2.5, 1, op_id="c1_1"),
               sample(1, 3, index=5))
        tailer.poll()
        assert tailer.latest[1].seq == 3
        assert tailer.latest[1].ops_generated == 2
        assert tailer.records_parsed == 6
        assert tailer.kept.counter("telemetry.frames") == 4

    def test_partial_trailing_line_waits_for_completion(self, tmp_path):
        trace = tmp_path / "trace_1.jsonl"
        torn = sample(1, 1).to_json()
        write_trace(trace, 1, sample(1, 0))
        with trace.open("a") as fh:
            fh.write(torn[:10])
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        assert tailer.latest[1].seq == 0
        # The writer finishes the line: the next poll picks it up whole.
        with trace.open("a") as fh:
            fh.write(torn[10:] + "\n")
        tailer.poll()
        assert tailer.latest[1].seq == 1
        assert tailer.records_parsed == 2

    def test_truncated_file_resets_cursor(self, tmp_path):
        trace = tmp_path / "trace_1.jsonl"
        write_trace(trace, 1, sample(1, 0), sample(1, 1))
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        # A rewritten (shorter) file must not be read from the stale
        # offset; the tailer starts over and the index rule absorbs
        # replays.
        write_trace(trace, 1, sample(1, 2))
        tailer.poll()
        assert tailer.latest[1].seq == 2
        assert tailer.kept.counter("telemetry.frames") == 3

    def test_ingest_dedupes_against_file_frames(self, tmp_path):
        trace = tmp_path / "trace_1.jsonl"
        write_trace(trace, 1, sample(1, 0))
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        tailer.ingest(sample(1, 0))  # seen on disk
        tailer.ingest(sample(1, 1))  # fresh
        tailer.ingest(sample(1, 1))  # again
        assert tailer.kept.counter("telemetry.frames") == 2
        # And the file is held to the same rule in return.
        append(trace, sample(1, 1))
        tailer.poll()
        assert tailer.registry().counters()["telemetry.frames"] == 2


class TestDerivedE2E:
    """``e2e_p95_ms`` is no process's gauge: the tailer pairs ``executed``
    with ``generated`` across the traces."""

    def test_an_execution_read_a_poll_before_its_generation_still_pairs(
            self, tmp_path):
        # Site 1's op reaches site 2 through the notifier's transform.
        # The files are read in name order, so a poll can read site 2's
        # execution, but not the generation site 1 wrote after the
        # tailer had read its file.
        write_trace(tmp_path / "trace_0.jsonl", 0)
        write_trace(tmp_path / "trace_1.jsonl", 1)
        write_trace(tmp_path / "trace_2.jsonl", 2, sample(2, 0, time=1.25),
                    event(1, EXECUTED, 1.5, 2, op_id="c1_0'"))
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        assert tailer.latest[2].e2e_p95_ms is None
        append(tmp_path / "trace_0.jsonl",
               event(0, EXECUTED, 1.2, 0, op_id="c1_0"),
               event(1, TRANSFORMED, 1.2, 0, op_id="c1_0'", source_op="c1_0"))
        append(tmp_path / "trace_1.jsonl", event(0, GENERATED, 1.0, 1, op_id="c1_0"))
        tailer.poll()
        assert tailer.latest[2].e2e_p95_ms == 500.0

    def test_the_registry_keeps_the_derived_series(self, tmp_path):
        # A poll pairs the executions before it builds the frames: the
        # series fills though no sample carries the gauge.
        write_trace(tmp_path / "trace_1.jsonl", 1,
                    event(0, EXECUTED, 0.25, 1, op_id="c2_0"),
                    event(1, EXECUTED, 0.5, 1, op_id="c2_1"),
                    sample(1, 0, index=2, time=0.5), sample(1, 1, index=3, time=0.75))
        trace_2 = tmp_path / "trace_2.jsonl"
        write_trace(trace_2, 2,
                    event(0, GENERATED, 0.0, 2, op_id="c2_0"),
                    event(1, GENERATED, 0.125, 2, op_id="c2_1"),
                    event(2, GENERATED, 0.25, 2, op_id="c2_2"))
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        assert tailer.latest[1].e2e_p95_ms == 375.0
        hist = tailer.registry().histograms()["telemetry.e2e_p95_ms"]
        assert hist.values == [375.0, 375.0]
        # A site's execution of its own op is not remote latency.
        append(trace_2, event(3, EXECUTED, 9.0, 2, op_id="c2_2"),
               sample(2, 0, index=4, time=9.0))
        tailer.poll()
        assert tailer.latest[2].e2e_p95_ms is None


class TestFollow:
    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([0.0, 5.0, 10.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)), width=12)) == 12

    def test_follow_piped_emits_plain_deterministic_lines(self, tmp_path):
        write_trace(tmp_path / "trace_0.jsonl", 0, sample(0, 0, ops_executed=4),
                    sites=2, expected_ops=4)
        lines: list[str] = []
        code = run_monitor(tmp_path, once=True, follow=True, tty=False,
                           emit=lines.append)
        assert code == 0
        assert len(lines) == 1
        assert "\x1b" not in lines[0]  # no ANSI when piped
        assert "sites=1/2" in lines[0]

    def test_follow_tty_renders_dashboard(self, tmp_path):
        write_trace(tmp_path / "trace_0.jsonl", 0,
                    event(0, EXECUTED, 0.0625, 0, op_id="c1_0"),
                    event(1, K.PROMOTED, 0.0625, 0, epoch=1),
                    sample(0, 0, index=2, time=0.0625, ops_executed=4,
                           degraded_queued=3),
                    sites=2, expected_ops=4)
        write_trace(tmp_path / "trace_1.jsonl", 1,
                    event(0, GENERATED, 0.0, 1, op_id="c1_0"))
        frames: list[str] = []
        code = run_monitor(tmp_path, once=True, follow=True, tty=True,
                           emit=frames.append)
        assert code == 0
        screen = frames[0]
        assert screen.startswith("\x1b[H\x1b[J")  # home + clear redraw
        assert "sites=1/2" in screen
        assert "site 0" in screen
        assert "e2e" in screen and "62.5ms" in screen
        assert "PROMOTED" in screen
        assert "DEGRADED(3)" in screen
        assert any(block in screen for block in "▁▂▃▄▅▆▇█")

    def test_e2e_gauge_flows_into_snapshot_and_registry(self, tmp_path):
        trace_0 = tmp_path / "trace_0.jsonl"
        write_trace(trace_0, 0, event(0, EXECUTED, 0.0625, 0, op_id="c1_0"),
                    sample(0, 0, index=1, time=0.0625))
        write_trace(tmp_path / "trace_1.jsonl", 1,
                    event(0, GENERATED, 0.0, 1, op_id="c1_0"),
                    event(1, GENERATED, 0.0, 1, op_id="c1_1"),
                    sample(1, 0, index=2, time=0.0))
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        append(trace_0, event(2, EXECUTED, 0.1875, 0, op_id="c1_1"),
               sample(0, 1, index=3, time=0.1875))
        tailer.poll()
        snapshot = aggregate(tailer.latest)
        assert snapshot.totals["e2e_p95_ms"] == 187.5  # worst latest per-site gauge
        assert "e2e=187.5ms" in snapshot.line()
        hist = tailer.registry().histograms()["telemetry.e2e_p95_ms"]
        assert sorted(hist.values) == [62.5, 187.5]  # None gauge not observed
