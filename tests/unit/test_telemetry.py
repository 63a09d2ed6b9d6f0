"""Unit tests for the live telemetry layer (:mod:`repro.obs.telemetry`).

The contracts the cluster and monitor rely on: frames round-trip
losslessly through JSON, registries merge
counters and histograms correctly, a ring-mode tracer evicts old events
at bounded memory, each watchdog fires exactly at its documented
threshold (and re-arms), the sampler stays bounded on the deterministic
simulator, and the JSONL writer is crash-safe.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.editor.star import StarSession
from repro.obs import (
    CausalStallWatchdog,
    DivergenceSentinel,
    HealthEvent,
    JsonlWriter,
    MetricsRegistry,
    RetransmitStormWatchdog,
    SilenceWatchdog,
    TelemetryFrame,
    TelemetrySampler,
    TraceEventKind,
    Tracer,
    read_jsonl,
    snapshot_endpoint,
)
from repro.obs.monitor import TelemetryTailer, aggregate
from repro.net.simulator import Simulator
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

FULL_FRAME = TelemetryFrame(
    site=2, role="client", seq=7, time=1.5, epoch=1, ops_generated=3,
    ops_executed=9, holdback_depth=1, holdback_high_water=2, inflight=4,
    retransmits=5, storage_ints=6, queue_depth=8, digest="abc123def456",
)


def frame_at(site: int, seq: int, **over) -> TelemetryFrame:
    base = dict(site=site, role="client", seq=seq, time=float(seq))
    base.update(over)
    return TelemetryFrame(**base)


GAUGES = dataclasses.fields(TelemetryFrame)
_DISTINCT = {"int": lambda n: 100 + n, "float": lambda n: n + 0.5,
             "str": lambda n: f"s{n}", "Optional[float]": lambda n: n + 0.25}


def distinct_frame(site: int) -> TelemetryFrame:
    """Every field its own value, different at every site."""
    values = {spec.name: _DISTINCT[spec.type](index + 40 * site)
              for index, spec in enumerate(GAUGES)}
    values.update(site=site, seq=site)  # what the monitor keys a frame by
    return TelemetryFrame(**values)


@pytest.mark.parametrize("spec", GAUGES, ids=lambda spec: spec.name)
def test_a_declared_gauge_reaches_every_reader_of_the_table(spec):
    """The table cannot be half-applied: whatever ``TelemetryFrame``
    declares crosses the JSON stream and is folded, recorded
    and kept as its declaration says -- a gauge added to the table and
    forgotten by a reader fails here, by name."""
    name, (fold, keep) = spec.name, (spec.metadata["fold"], spec.metadata["keep"])
    assert fold in (None, "sum", "max", "site")
    assert keep in (None, "latest", "series")
    one, two = distinct_frame(1), distinct_frame(2)
    a, b = getattr(one, name), getattr(two, name)
    assert a != b

    assert getattr(TelemetryFrame.from_json(one.to_json()), name) == a

    tailer = TelemetryTailer("/nonexistent")
    tailer.ingest(one)
    tailer.ingest(two)
    snapshot = aggregate(tailer.latest)
    record = json.loads(snapshot.to_json())
    if fold is None:
        assert name not in snapshot.totals
    else:
        folded = {"sum": a + b, "max": max(a, b), "site": {1: a, 2: b}}[fold]
        assert snapshot.totals[name] == folded
        assert record[name] == json.loads(json.dumps(folded))

    registry = tailer.registry()
    counter = registry.counters().get(f"telemetry.{name}")
    series = registry.histograms().get(f"telemetry.{name}")
    assert counter == (a + b if keep == "latest" else None)
    assert (series.values if series else None) == (
        [a, b] if keep == "series" else None)


class TestFrameCodec:
    def test_json_round_trip_is_lossless(self):
        assert TelemetryFrame.from_json(FULL_FRAME.to_json()) == FULL_FRAME

    def test_json_leads_with_the_record_tag(self):
        data = json.loads(FULL_FRAME.to_json())
        assert data["rec"] == "frame"

    def test_from_json_rejects_other_record_kinds(self):
        with pytest.raises(ValueError):
            TelemetryFrame.from_json('{"rec": "health", "site": 1}')

    def test_health_event_json_round_trip(self):
        event = HealthEvent(time=2.0, site=3, kind="peer_dead",
                            verdict="fail", peer=0, detail="gone")
        assert HealthEvent.from_json(event.to_json()) == event


class TestRegistryMerge:
    def test_counters_sum_and_histograms_concatenate(self):
        a = MetricsRegistry()
        a.inc("ops", 3)
        a.observe("depth", 1.0)
        b = MetricsRegistry()
        b.inc("ops", 4)
        b.inc("only_b")
        b.observe("depth", 5.0)
        b.observe("only_b_hist", 2.0)
        merged = a.merge(b)
        assert merged is a
        assert a.counters() == {"ops": 7, "only_b": 1}
        assert sorted(a.histograms()["depth"].values) == [1.0, 5.0]
        assert a.histograms()["only_b_hist"].count == 1
        # The right-hand side is read, never mutated.
        assert b.counters() == {"ops": 4, "only_b": 1}

    def test_merge_into_empty_registry_copies(self):
        b = MetricsRegistry()
        b.inc("x", 2)
        merged = MetricsRegistry().merge(b)
        assert merged.counters() == {"x": 2}


class TestRingTracer:
    def test_ring_mode_evicts_oldest_events(self):
        tracer = Tracer(mode="ring", ring_capacity=3)
        for i in range(5):
            tracer.emit(TraceEventKind.GENERATED, 1, op_id=f"c1_{i}")
        assert len(tracer.events) == 3
        assert [e.op_id for e in tracer.events] == ["c1_2", "c1_3", "c1_4"]
        # Indices keep counting: the ring drops events, not history.
        assert tracer.emitted == 5
        assert [e.index for e in tracer.events] == [2, 3, 4]

    def test_ring_capacity_implies_ring_mode(self):
        assert Tracer(ring_capacity=4).mode == "ring"

    def test_ring_mode_gets_a_default_capacity(self):
        tracer = Tracer(mode="ring")
        assert tracer.events.maxlen == Tracer.DEFAULT_RING_CAPACITY

    def test_invalid_mode_and_capacity_are_rejected(self):
        with pytest.raises(ValueError):
            Tracer(mode="circular")
        with pytest.raises(ValueError):
            Tracer(mode="ring", ring_capacity=0)


class TestRetransmitStormWatchdog:
    def test_fires_on_burst_and_rearms(self):
        dog = RetransmitStormWatchdog(threshold=10)
        assert dog.observe(frame_at(1, 0, retransmits=0)) == []
        # A slow trickle stays silent.
        assert dog.observe(frame_at(1, 1, retransmits=5)) == []
        events = dog.observe(frame_at(1, 2, retransmits=20))
        assert [e.kind for e in events] == ["retransmit_storm"]
        assert events[0].verdict == "warn"
        # Still storming: no duplicate verdict.
        assert dog.observe(frame_at(1, 3, retransmits=35)) == []
        # Calm interval re-arms; the next storm fires again.
        assert dog.observe(frame_at(1, 4, retransmits=36)) == []
        assert len(dog.observe(frame_at(1, 5, retransmits=50))) == 1

    def test_below_threshold_never_fires(self):
        dog = RetransmitStormWatchdog(threshold=10)
        for seq in range(10):
            assert dog.observe(frame_at(1, seq, retransmits=seq * 9)) == []


class TestCausalStallWatchdog:
    def test_fires_after_stall_window_without_progress(self):
        dog = CausalStallWatchdog(stall_after=2.0)
        assert dog.observe(frame_at(1, 0, time=0.0, ops_executed=4,
                                    holdback_depth=1)) == []
        assert dog.observe(frame_at(1, 1, time=1.0, ops_executed=4,
                                    holdback_depth=1)) == []
        events = dog.observe(frame_at(1, 2, time=2.5, ops_executed=4,
                                      holdback_depth=2))
        assert [e.kind for e in events] == ["causal_stall"]

    def test_progress_rearms(self):
        dog = CausalStallWatchdog(stall_after=2.0)
        dog.observe(frame_at(1, 0, time=0.0, ops_executed=4, holdback_depth=1))
        dog.observe(frame_at(1, 1, time=2.5, ops_executed=4, holdback_depth=1))
        # Execution resumed: re-armed, and an empty buffer stays silent.
        assert dog.observe(frame_at(1, 2, time=3.0, ops_executed=5,
                                    holdback_depth=0)) == []
        assert dog.observe(frame_at(1, 3, time=6.0, ops_executed=5,
                                    holdback_depth=0)) == []

    def test_empty_holdback_never_stalls(self):
        dog = CausalStallWatchdog(stall_after=1.0)
        dog.observe(frame_at(1, 0, time=0.0, ops_executed=3))
        assert dog.observe(frame_at(1, 1, time=9.0, ops_executed=3)) == []


class TestDivergenceSentinel:
    def test_silent_while_any_site_is_incomplete(self):
        dog = DivergenceSentinel(expected_ops=5)
        assert dog.observe(frame_at(1, 0, ops_executed=4, digest="aaa")) == []
        assert dog.observe(frame_at(2, 0, ops_executed=5, digest="bbb")) == []

    def test_matching_complete_digests_stay_silent(self):
        dog = DivergenceSentinel(expected_ops=5)
        dog.observe(frame_at(1, 0, ops_executed=5, digest="aaa"))
        assert dog.observe(frame_at(2, 0, ops_executed=5, digest="aaa")) == []

    def test_fires_once_per_diverged_pair(self):
        dog = DivergenceSentinel(expected_ops=5)
        dog.observe(frame_at(1, 0, ops_executed=5, digest="aaa"))
        events = dog.observe(frame_at(2, 0, ops_executed=5, digest="bbb"))
        assert [e.kind for e in events] == ["divergence"]
        assert events[0].verdict == "fail"
        assert events[0].peer == 1
        # The same pair stays flagged on later frames.
        assert dog.observe(frame_at(2, 1, ops_executed=5, digest="bbb")) == []


class TestSilenceWatchdog:
    def test_fires_once_after_silence_and_rearms_on_frames(self):
        now = {"t": 0.0}
        dog = SilenceWatchdog(max_silence=2.0, clock=lambda site: now["t"])
        dog.observe(frame_at(1, 0))
        assert dog.check(1.0) == []
        events = dog.check(3.0)
        assert [e.kind for e in events] == ["peer_silent"]
        assert events[0].verdict == "fail"
        assert dog.check(4.0) == []  # once per silence
        now["t"] = 4.5
        dog.observe(frame_at(1, 1))  # resumed: re-armed
        assert len(dog.check(7.0)) == 1

    def test_arrival_clock_overrides_frame_time(self):
        # Each process stamps frames on its own clock; the arrival clock
        # (the monitor's: the site's stream mtime) must win.
        heard = {1: 100.0, 2: 101.5}
        dog = SilenceWatchdog(max_silence=2.0, clock=heard.__getitem__)
        dog.observe(frame_at(1, 0, time=0.5))
        dog.observe(frame_at(2, 0, time=0.5))
        assert dog.check(101.0) == []  # heard at 100, not at 0.5
        assert [e.site for e in dog.check(103.0)] == [1]  # site 2 at 101.5


class TestSampler:
    def test_bounded_sampler_lets_the_simulator_quiesce(self):
        session = StarSession(3)
        drive_star_session(
            session, RandomSessionConfig(n_sites=3, ops_per_site=4, seed=2)
        )
        sampler = session.attach_telemetry(interval=0.5, max_samples=6)
        session.run()
        assert session.converged()
        assert 0 < sampler.samples_taken <= 6
        # One frame per endpoint (notifier + 3 clients) per sample.
        assert len(sampler.frames) == 4 * sampler.samples_taken
        final = [f for f in sampler.frames if f.seq == sampler.samples_taken - 1]
        assert {f.site for f in final} == {0, 1, 2, 3}

    def test_unbounded_inprocess_sampler_is_rejected(self):
        session = StarSession(2)
        with pytest.raises(ValueError):
            session.attach_telemetry(interval=0.5)

    def test_sampling_does_not_perturb_the_seeded_run(self):
        config = RandomSessionConfig(n_sites=3, ops_per_site=5, seed=7)
        plain = StarSession(3)
        drive_star_session(plain, config)
        plain.run()
        sampled = StarSession(3)
        drive_star_session(sampled, config)
        sampled.attach_telemetry(interval=0.25, max_samples=16)
        sampled.run()
        assert sampled.documents() == plain.documents()
        assert sampled.wire_stats().messages == plain.wire_stats().messages

    def test_watchdogs_see_every_sampled_frame(self):
        # An in-process sample holds every endpoint's frame.
        sim = Simulator()
        dog = DivergenceSentinel(expected_ops=1)
        frames = [frame_at(0, 0, ops_executed=1, digest="aaa"),
                  frame_at(1, 0, ops_executed=1, digest="bbb")]
        sampler = TelemetrySampler(
            sim, lambda seq: frames, interval=1.0, watchdogs=[dog]
        )
        sampler.sample()
        assert [e.kind for e in sampler.health] == ["divergence"]

    def test_stop_cancels_the_timer(self):
        sim = Simulator()
        sampler = TelemetrySampler(sim, lambda seq: [], interval=1.0)
        sampler.start(max_samples=100)
        sampler.stop()
        assert sim.run() == 0  # the cancelled timer never fires


class TestSnapshotEndpoint:
    def test_snapshot_reads_real_session_gauges(self):
        session = StarSession(2)
        drive_star_session(
            session, RandomSessionConfig(n_sites=2, ops_per_site=3, seed=0)
        )
        session.run()
        frames = session.telemetry_frames(seq=5)
        assert [f.site for f in frames] == [0, 1, 2]
        assert frames[0].role == "notifier"
        assert all(f.role == "client" for f in frames[1:])
        assert all(f.seq == 5 for f in frames)
        assert all(f.ops_executed == 6 for f in frames)
        assert all(f.storage_ints > 0 for f in frames)
        # Converged replicas sample identical digests.
        assert len({f.digest for f in frames}) == 1


class TestJsonlWriter:
    def test_every_record_is_flushed_as_written(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        writer = JsonlWriter(path, {"format": "x", "schema_version": 1})
        writer.write_line('{"a": 1}')
        # Readable *before* close: the crash-safety property.
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1]) == {"a": 1}
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ValueError):
            writer.write_line("{}")

    def test_lenient_read_drops_only_a_torn_tail(self, tmp_path):
        header = {"format": "repro-obs-trace-v1", "schema_version": 2}
        text = json.dumps(header) + "\n" + \
            '{"i": 0, "kind": "generated", "t": 0.0, "site": 1, "op": "a"}\n' + \
            '{"i": 1, "kind": "exec'
        _header, events = read_jsonl(io.StringIO(text), lenient=True)
        assert [e.op_id for e in events] == ["a"]
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO(text))  # strict mode still objects

