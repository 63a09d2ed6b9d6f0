"""Unit tests for the cross-process telemetry aggregator.

The monitor's contracts: a frame is new iff its ``seq`` is above its
site's latest, aggregation reflects each site's *latest* frame, the
registry sums each site's latest counters and keeps every sampled series
value, the watchdogs a stream header asks for judge every site (digests
only between complete replicas, silence by each stream's mtime against
the newest), and ``run_monitor`` renders live lines, writes the JSONL
artifact, and maps what it saw onto its exit code.
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
from repro.obs.telemetry import TELEMETRY_FORMAT, TELEMETRY_SCHEMA_VERSION


def frame_at(site: int, seq: int, **over) -> TelemetryFrame:
    base = dict(site=site, role="client" if site else "notifier",
                seq=seq, time=float(seq))
    base.update(over)
    return TelemetryFrame(**base)


def fed(*frames: TelemetryFrame) -> TelemetryTailer:
    """A tailer (of no directory) that was offered ``frames``."""
    tailer = TelemetryTailer("/nonexistent")
    for frame in frames:
        tailer.ingest(frame)
    return tailer


def latest(*frames: TelemetryFrame) -> dict[int, TelemetryFrame]:
    return fed(*frames).latest


def write_stream(path, records, *, site=0, role="notifier", **run):
    """A stream as a process writes it; ``run`` is what its header says
    about the run (``sites``, ``expected_ops``, ``interval_s``)."""
    header = json.dumps({
        "format": TELEMETRY_FORMAT,
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "site": site,
        "role": role,
        **run,
    })
    path.write_text("\n".join([header, *(r.to_json() for r in records)]) + "\n")


#: What a three-site run of nine operations, sampled every 0.25 s,
#: writes in every stream header (the silence window is then 2 s).
RUN = dict(sites=3, expected_ops=9, interval_s=0.25)


def write_run(tmp_path, streams):
    """One stream per site of ``streams`` (site -> records), with RUN's
    header; returns the paths."""
    paths = {}
    for site, records in streams.items():
        paths[site] = tmp_path / f"telemetry_{site}.jsonl"
        write_stream(paths[site], records, site=site,
                     role="client" if site else "notifier", **RUN)
    return paths


def monitor_records(tmp_path):
    return [json.loads(line) for line
            in (tmp_path / "monitor.jsonl").read_text().splitlines()[1:]]


class TestScanDir:
    def test_a_frame_is_new_iff_its_seq_is_above_its_sites_latest(self, tmp_path):
        write_stream(tmp_path / "telemetry_1.jsonl",
                     [frame_at(1, 0), frame_at(1, 1)], site=1, role="client")
        write_stream(tmp_path / "telemetry_0.jsonl", [frame_at(0, 0)])
        tailer = TelemetryTailer(tmp_path)
        assert tailer.poll() == []
        assert sorted(tailer.latest) == [0, 1]
        assert tailer.latest[1].seq == 1
        # A seq at or below the site's latest changes nothing.
        for stale in (frame_at(1, 1, ops_executed=7), frame_at(1, 0)):
            tailer.ingest(stale)
        assert tailer.latest[1] == frame_at(1, 1)
        assert tailer.kept.counter("telemetry.frames") == 3

    def test_health_events_are_deduplicated_and_sorted(self, tmp_path):
        event = HealthEvent(time=2.0, site=1, kind="peer_dead",
                            verdict="fail", peer=0)
        earlier = HealthEvent(time=1.0, site=2, kind="causal_stall",
                              verdict="warn")
        (tmp_path / "telemetry_1.jsonl").write_text(
            event.to_json() + "\n" + earlier.to_json() + "\n"
        )
        (tmp_path / "telemetry_0.jsonl").write_text(event.to_json() + "\n")
        assert TelemetryTailer(tmp_path).poll() == [earlier, event]

    def test_torn_tail_is_skipped(self, tmp_path):
        good = frame_at(1, 0)
        (tmp_path / "telemetry_1.jsonl").write_text(
            good.to_json() + "\n" + '{"rec": "frame", "sit'
        )
        tailer = TelemetryTailer(tmp_path)
        assert tailer.poll() == []
        assert tailer.latest == {1: good}
        assert tailer.records_parsed == 1


class TestAggregate:
    def test_latest_frame_per_site_wins(self):
        snapshot = aggregate(latest(
            frame_at(0, 3, ops_executed=9), frame_at(0, 0, ops_executed=2),
            frame_at(1, 1, ops_executed=5),
        ))
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
        # has executed all nine operations.
        paths = write_run(tmp_path, {
            0: [frame_at(0, 0, ops_executed=9, digest="aaa")],
            1: [frame_at(1, 0, ops_executed=3, digest="bbb")],
        })
        tailer = TelemetryTailer(tmp_path)
        assert tailer.poll() == []
        with paths[1].open("a") as fh:
            fh.write(frame_at(1, 1, ops_executed=9, digest="bbb").to_json() + "\n")
        (event,) = tailer.poll()
        assert (event.kind, event.verdict, event.site, event.peer) == (
            "divergence", "fail", 1, 0)
        snapshot = aggregate(tailer.latest, [event], digests_agree=False)
        assert "DIVERGED" in snapshot.line()

    def test_line_renders_health_events(self):
        health = [HealthEvent(time=1.0, site=2, kind="peer_dead",
                              verdict="fail", peer=0, detail="gone")]
        text = aggregate({0: frame_at(0, 0)}, health, expected_sites=4).line()
        assert "sites=1/4" in text
        # Before a stream header says how many sites the run has: K alone.
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
        counters = fed(
            frame_at(1, 0), frame_at(1, 1, elected=1, promoted=1,
                                     resynced=1, degraded_queued=3)
        ).registry().counters()
        assert counters["telemetry.elected"] == 1
        assert counters["telemetry.promoted"] == 1
        assert counters["telemetry.resynced"] == 1
        assert counters["telemetry.degraded_queued"] == 3


class TestRegistries:
    def test_site_registry_counts_latest_and_observes_every_frame(self):
        frames = [
            frame_at(1, 0, ops_executed=2, holdback_depth=1, retransmits=0),
            frame_at(1, 1, ops_executed=5, holdback_depth=3, retransmits=2),
        ]
        registry = fed(*frames).registry()
        counters = registry.counters()
        assert counters["telemetry.ops_executed"] == 5  # latest, not summed
        assert counters["telemetry.retransmits"] == 2
        assert counters["telemetry.frames"] == 2
        assert sorted(registry.histograms()["telemetry.holdback_depth"].values) \
            == [1.0, 3.0]

    def test_merged_registry_sums_across_sites(self):
        merged = fed(frame_at(0, 0, ops_executed=4),
                     frame_at(1, 0, ops_executed=6)).registry()
        assert merged.counters()["telemetry.ops_executed"] == 10
        assert merged.counters()["telemetry.frames"] == 2
        assert merged.histograms()["telemetry.queue_depth"].count == 2


class TestRunMonitor:
    def test_once_mode_emits_a_line_and_writes_the_artifact(self, tmp_path):
        write_stream(tmp_path / "telemetry_0.jsonl",
                     [frame_at(0, 0, ops_executed=9)],
                     sites=4, expected_ops=12, interval_s=1.0)
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

    def test_fail_health_verdict_exits_2(self, tmp_path):
        stream = (tmp_path / "telemetry_1.jsonl")
        event = HealthEvent(time=1.0, site=1, kind="peer_dead",
                            verdict="fail", peer=0)
        stream.write_text(frame_at(1, 0).to_json() + "\n"
                          + event.to_json() + "\n")
        code = run_monitor(tmp_path, once=True, emit=lambda _: None)
        assert code == 2
        records = [json.loads(line) for line
                   in (tmp_path / "monitor.jsonl").read_text().splitlines()[1:]]
        health = [r for r in records if r["rec"] == "health"]
        assert [h["kind"] for h in health] == ["peer_dead"]

    def test_live_loop_stops_once_streams_go_idle(self, tmp_path):
        write_stream(tmp_path / "telemetry_0.jsonl", [frame_at(0, 0)])
        clock = {"t": 0.0}

        def sleep(seconds: float) -> None:
            clock["t"] += seconds

        code = run_monitor(tmp_path, interval_s=0.1, emit=lambda _: None,
                           clock=lambda: clock["t"], sleep=sleep)
        assert code == 0  # returned on its own: idle detection worked

    def test_max_intervals_bounds_the_loop(self, tmp_path):
        write_stream(tmp_path / "telemetry_0.jsonl", [frame_at(0, 0)])
        rounds = {"n": 0}

        def sleep(_seconds: float) -> None:
            rounds["n"] += 1
            # Keep the streams "fresh" forever: without the bound the
            # idle detector would never fire.
            write_stream(tmp_path / "telemetry_0.jsonl",
                         [frame_at(0, seq) for seq in range(rounds["n"] + 1)])

        code = run_monitor(tmp_path, interval_s=0.01, max_intervals=3,
                           emit=lambda _: None, sleep=sleep)
        assert code == 0
        assert rounds["n"] == 2  # 3 rounds = 2 sleeps between them


    def test_an_interval_reads_the_latest_frame_per_site_not_the_run(
            self, tmp_path, monkeypatch):
        # 1 000 frames on disk, more arriving: every interval is handed
        # one frame per site, and nothing holds the stream as a list.
        stream = tmp_path / "telemetry_1.jsonl"
        write_stream(stream, [frame_at(1, seq, holdback_depth=seq)
                              for seq in range(1000)], site=1, role="client")
        handed = []
        real = monitor_module.aggregate
        monkeypatch.setattr(
            monitor_module, "aggregate",
            lambda latest, health=(), **run: (handed.append(dict(latest))
                                              or real(latest, health, **run)))

        def sleep(_seconds: float) -> None:
            with stream.open("a") as fh:
                fh.write(frame_at(1, 1000 + len(handed)).to_json() + "\n")

        assert run_monitor(tmp_path, interval_s=0.01, max_intervals=3,
                           emit=lambda _: None, sleep=sleep) == 0
        assert [list(latest) for latest in handed] == [[1], [1], [1]]
        assert [latest[1].seq for latest in handed] == [999, 1001, 1002]
        records = [json.loads(line) for line
                   in (tmp_path / "monitor.jsonl").read_text().splitlines()[1:]]
        metrics = records[-1]
        assert metrics["counters"]["telemetry.frames"] == 1002
        assert metrics["counters"]["monitor.records_parsed"] == 1002
        assert metrics["histograms"]["telemetry.holdback_depth"]["max"] == 999


class TestWatchdogsInTheMonitor:
    """The four watchdogs run where every site's stream is read."""

    def test_two_complete_replicas_that_differ_exit_2_naming_the_pair(self, tmp_path):
        write_run(tmp_path, {
            0: [frame_at(0, 0, ops_executed=9, digest="aaa")],
            1: [frame_at(1, 0, ops_executed=9, digest="aaa")],
            2: [frame_at(2, 0, ops_executed=9, digest="ccc")],
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
            0: [frame_at(0, 0, ops_executed=5, digest="aaa")],
            1: [frame_at(1, 0, ops_executed=5, digest="bbb")],
        })
        lines: list[str] = []
        assert run_monitor(tmp_path, once=True, emit=lines.append) == 0
        assert "digests=ok" in lines[0]

    @staticmethod
    def _stopped_early(tmp_path, *last):
        """Site 1 wrote three frames (then ``last``) and fell silent 10 s
        before sites 0 and 2 wrote their last."""
        paths = write_run(tmp_path, {
            0: [frame_at(0, seq) for seq in range(10)],
            1: [*(frame_at(1, seq) for seq in range(3)), *last],
            2: [frame_at(2, seq) for seq in range(10)],
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
        # The crash was graded where it happened (warn: failover armed).
        self._stopped_early(tmp_path, HealthEvent(
            time=3.0, site=1, kind="crash", verdict="warn"))
        assert run_monitor(tmp_path, once=True, emit=lambda _: None) == 0
        # ...and sites 0 and 2, which ended together, are not silent.
        kinds = [r["kind"] for r in monitor_records(tmp_path) if r["rec"] == "health"]
        assert kinds == ["crash"]


class TestTelemetryTailer:
    def test_each_record_parsed_exactly_once_across_polls(self, tmp_path):
        stream = tmp_path / "telemetry_1.jsonl"
        write_stream(stream, [frame_at(1, 0), frame_at(1, 1)],
                     site=1, role="client")
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        assert tailer.latest[1].seq == 1
        assert tailer.records_parsed == 2  # header line is not a record

        # Nothing new on disk: a second poll parses zero records.
        tailer.poll()
        assert tailer.records_parsed == 2

        # Append two more; only the appended bytes are parsed.
        with stream.open("a") as fh:
            fh.write(frame_at(1, 2).to_json() + "\n")
            fh.write(frame_at(1, 3).to_json() + "\n")
        tailer.poll()
        assert tailer.latest[1].seq == 3
        assert tailer.records_parsed == 4
        assert tailer.kept.counter("telemetry.frames") == 4

    def test_partial_trailing_line_waits_for_completion(self, tmp_path):
        stream = tmp_path / "telemetry_1.jsonl"
        full = frame_at(1, 0).to_json()
        torn = frame_at(1, 1).to_json()
        stream.write_text(full + "\n" + torn[:10])
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        assert tailer.latest[1].seq == 0
        # The writer finishes the line: the next poll picks it up whole.
        with stream.open("a") as fh:
            fh.write(torn[10:] + "\n")
        tailer.poll()
        assert tailer.latest[1].seq == 1
        assert tailer.records_parsed == 2

    def test_truncated_file_resets_cursor(self, tmp_path):
        stream = tmp_path / "telemetry_1.jsonl"
        write_stream(stream, [frame_at(1, 0), frame_at(1, 1)],
                     site=1, role="client")
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        # A rewritten (shorter) file must not be read from the stale
        # offset; the tailer starts over and the seq rule absorbs replays.
        write_stream(stream, [frame_at(1, 2)], site=1, role="client")
        tailer.poll()
        assert tailer.latest[1].seq == 2
        assert tailer.kept.counter("telemetry.frames") == 3

    def test_ingest_dedupes_against_file_frames(self, tmp_path):
        write_stream(tmp_path / "telemetry_1.jsonl", [frame_at(1, 0)],
                     site=1, role="client")
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        tailer.ingest(frame_at(1, 0))  # seen on disk
        tailer.ingest(frame_at(1, 1))  # fresh
        tailer.ingest(frame_at(1, 1))  # again
        assert tailer.kept.counter("telemetry.frames") == 2
        # And the file is held to the same rule in return.
        with (tmp_path / "telemetry_1.jsonl").open("a") as fh:
            fh.write(frame_at(1, 1).to_json() + "\n")
        tailer.poll()
        assert tailer.registry().counters()["telemetry.frames"] == 2


class TestFollow:
    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "▁▁"
        line = sparkline([0.0, 5.0, 10.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)), width=12)) == 12

    def test_follow_piped_emits_plain_deterministic_lines(self, tmp_path):
        write_stream(tmp_path / "telemetry_0.jsonl",
                     [frame_at(0, 0, ops_executed=4)],
                     sites=2, expected_ops=4, interval_s=1.0)
        lines: list[str] = []
        code = run_monitor(tmp_path, once=True, follow=True, tty=False,
                           emit=lines.append)
        assert code == 0
        assert len(lines) == 1
        assert "\x1b" not in lines[0]  # no ANSI when piped
        assert "sites=1/2" in lines[0]

    def test_follow_tty_renders_dashboard(self, tmp_path):
        write_stream(
            tmp_path / "telemetry_0.jsonl",
            [frame_at(0, 0, ops_executed=4, e2e_p95_ms=2.5, promoted=1,
                      degraded_queued=3)],
            sites=2, expected_ops=4, interval_s=1.0,
        )
        frames: list[str] = []
        code = run_monitor(tmp_path, once=True, follow=True, tty=True,
                           emit=frames.append)
        assert code == 0
        screen = frames[0]
        assert screen.startswith("\x1b[H\x1b[J")  # home + clear redraw
        assert "sites=1/2" in screen
        assert "site 0" in screen
        assert "e2e" in screen and "2.5ms" in screen
        assert "PROMOTED" in screen
        assert "DEGRADED(3)" in screen
        assert any(block in screen for block in "▁▂▃▄▅▆▇█")

    def test_e2e_gauge_flows_into_snapshot_and_registry(self, tmp_path):
        write_stream(
            tmp_path / "telemetry_0.jsonl",
            [frame_at(0, 0, e2e_p95_ms=1.5), frame_at(0, 1, e2e_p95_ms=4.0)],
        )
        write_stream(tmp_path / "telemetry_1.jsonl", [frame_at(1, 0)],
                     site=1, role="client")
        tailer = TelemetryTailer(tmp_path)
        tailer.poll()
        snapshot = aggregate(tailer.latest)
        assert snapshot.totals["e2e_p95_ms"] == 4.0  # worst latest per-site gauge
        assert "e2e=4.0ms" in snapshot.line()
        hist = tailer.registry().histograms()["telemetry.e2e_p95_ms"]
        assert sorted(hist.values) == [1.5, 4.0]  # None gauge not observed
