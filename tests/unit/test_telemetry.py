"""Unit tests for the monitor's gauge table and watchdogs
(:mod:`repro.obs.telemetry`).

The contracts the cluster and monitor rely on: every gauge the frame
declares is rebuilt from a site's trace (counted from its events or read
from its ``sampled`` event) and then folded and kept as declared, a
``sampled`` event round-trips through its JSON line, registries merge
counters and histograms correctly, a ring-mode tracer evicts old events
at bounded memory, each watchdog fires exactly at its documented
threshold (and re-arms), a process samples exactly the gauges the table
marks as sampled, and the JSONL writer is crash-safe.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro.cluster.harness import sample_gauges
from repro.editor.star import StarSession
from repro.obs import (
    CausalStallWatchdog,
    DivergenceSentinel,
    JsonlWriter,
    MetricsRegistry,
    RetransmitStormWatchdog,
    SilenceWatchdog,
    TelemetryFrame,
    TraceEvent,
    TraceEventKind,
    Tracer,
    read_jsonl,
)
from repro.obs.monitor import SAMPLED_GAUGES, TelemetryTailer, aggregate
from repro.obs.telemetry import SILENT_AFTER_S, STALL_AFTER_S, STORM_THRESHOLD
from repro.obs.tracer import trace_header
from repro.workloads.random_session import RandomSessionConfig, drive_star_session

K = TraceEventKind


def frame_at(site: int, seq: int, **over) -> TelemetryFrame:
    base = dict(site=site, role="client", seq=seq, time=float(seq))
    base.update(over)
    return TelemetryFrame(**base)


GAUGES = dataclasses.fields(TelemetryFrame)
_DISTINCT = {"int": lambda n: 100 + n, "float": lambda n: n + 0.5,
             "str": lambda n: f"s{n}"}


def distinct_frame(site: int) -> TelemetryFrame:
    """Every field its own value, different at every site."""
    values = {spec.name: _DISTINCT.get(spec.type, float)(index + 40 * site)
              for index, spec in enumerate(GAUGES)}
    # What the monitor keys a frame by, and a latency the pairing
    # reproduces exactly: site s executes the other site's op 125*s ms
    # after its generation.
    values.update(site=site, seq=site, e2e_p95_ms=125.0 * site)
    return TelemetryFrame(**values)


def trace_of(frame: TelemetryFrame, other: int) -> list[TraceEvent]:
    """The events a process traces for the monitor to rebuild ``frame``
    (its role is its trace header's): each derived gauge's events, one
    remote execution of ``other``'s first op, then the sample."""
    tracer = Tracer()
    site = frame.site

    def emit(kind, count, **fields):
        for n in range(count):
            tracer.emit(kind, site, time=0.0, **fields)

    emit(K.GENERATED, 1, op_id=f"g{site}_0")
    emit(K.GENERATED, frame.ops_generated - 1)
    emit(K.RETRANSMITTED, frame.retransmits)
    emit(K.ELECTED, frame.elected)
    emit(K.RECOVERED, 3, via="resync", epoch=7)  # a crash restart: not counted
    emit(K.RECOVERED, frame.resynced, via="failover", epoch=frame.epoch - 1)
    emit(K.PROMOTED, frame.promoted, epoch=frame.epoch)  # the last epoch wins
    tracer.emit(K.EXECUTED, site, op_id=f"g{other}_0",
                time=frame.e2e_p95_ms / 1e3)
    tracer.emit(K.SAMPLED, site, seq=frame.seq, time=frame.time,
                gauges={name: getattr(frame, name) for name in SAMPLED_GAUGES})
    return list(tracer.events)


@pytest.mark.parametrize("spec", GAUGES, ids=lambda spec: spec.name)
def test_a_declared_gauge_reaches_every_reader_of_the_table(spec, tmp_path):
    """The table cannot be half-applied: whatever ``TelemetryFrame``
    declares is rebuilt from a site's trace -- counted from its events,
    or read from its ``sampled`` event -- and folded, recorded and kept
    as its declaration says; a gauge added to the table and forgotten by
    a reader fails here, by name."""
    name, (fold, keep) = spec.name, (spec.metadata["fold"], spec.metadata["keep"])
    assert fold in (None, "sum", "max", "site")
    assert keep in (None, "latest", "series")
    one, two = distinct_frame(1), distinct_frame(2)
    a, b = getattr(one, name), getattr(two, name)
    assert a != b

    for frame, other in ((one, 2), (two, 1)):
        with (tmp_path / f"trace_{frame.site}.jsonl").open("w") as fh:
            fh.write(json.dumps(trace_header(
                {"site": frame.site, "role": frame.role})) + "\n")
            fh.writelines(e.to_json() + "\n" for e in trace_of(frame, other))
    tailer = TelemetryTailer(tmp_path)
    tailer.poll()
    assert tailer.latest == {1: one, 2: two}

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


class TestSampledEvent:
    def test_a_sample_round_trips_through_its_trace_line(self):
        event = Tracer().emit(K.SAMPLED, 2, seq=7, time=1.5, gauges={
            "ops_executed": 9, "holdback_depth": 1, "digest": "abc123def456"})
        line = json.loads(event.to_json())
        assert list(line) == ["i", "kind", "t", "site", "seq", "g"]
        assert TraceEvent.from_json(event.to_json()) == event

    def test_an_event_without_gauges_writes_no_g(self):
        event = Tracer().emit(K.PEER_LOST, 1, peer=0, via="eof")
        assert json.loads(event.to_json()) == {
            "i": 0, "kind": "peer_lost", "t": 0.0, "site": 1, "peer": 0,
            "via": "eof"}
        assert hash(event) == hash(TraceEvent.from_json(event.to_json()))

    def test_no_simulator_session_samples_or_loses_a_peer(self, tmp_path, capsys):
        """The two kinds are a cluster process's: a traced simulator
        session, loss and a notifier failover included, emits neither,
        so its trace files are what they were before the kinds existed."""
        from repro.cli import main

        out = tmp_path / "failover"
        assert main(["trace", "--faults", "--crash-notifier", "2.0", "--sites",
                     "3", "--ops", "4", "--seed", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        with open(f"{out}.jsonl") as fh:
            _header, events = read_jsonl(fh)
        kinds = {e.kind for e in events}
        assert K.PROMOTED in kinds
        assert not kinds & {K.SAMPLED, K.PEER_LOST}
        assert all(e.gauges is None for e in events)


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
        tracer = Tracer(mode="ring")
        capacity = Tracer.DEFAULT_RING_CAPACITY
        for i in range(capacity + 2):
            tracer.emit(TraceEventKind.GENERATED, 1, op_id=f"c1_{i}")
        assert len(tracer.events) == capacity
        assert [e.op_id for e in tracer.events][:2] == ["c1_2", "c1_3"]
        assert tracer.events[-1].op_id == f"c1_{capacity + 1}"
        # Indices keep counting: the ring drops events, not history.
        assert tracer.emitted == capacity + 2
        assert [e.index for e in tracer.events] == list(range(2, capacity + 2))

    def test_ring_mode_gets_a_default_capacity(self):
        tracer = Tracer(mode="ring")
        assert tracer.events.maxlen == Tracer.DEFAULT_RING_CAPACITY

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(ValueError):
            Tracer(mode="circular")


class TestRetransmitStormWatchdog:
    def test_fires_on_burst_and_rearms(self):
        assert STORM_THRESHOLD == 10
        dog = RetransmitStormWatchdog()
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
        dog = RetransmitStormWatchdog()
        for seq in range(10):
            assert dog.observe(frame_at(1, seq, retransmits=seq * 9)) == []


class TestCausalStallWatchdog:
    def test_fires_after_stall_window_without_progress(self):
        assert STALL_AFTER_S == 1.0
        dog = CausalStallWatchdog()
        assert dog.observe(frame_at(1, 0, time=0.0, ops_executed=4,
                                    holdback_depth=1)) == []
        assert dog.observe(frame_at(1, 1, time=0.5, ops_executed=4,
                                    holdback_depth=1)) == []
        events = dog.observe(frame_at(1, 2, time=1.25, ops_executed=4,
                                      holdback_depth=2))
        assert [e.kind for e in events] == ["causal_stall"]

    def test_progress_rearms(self):
        dog = CausalStallWatchdog()
        dog.observe(frame_at(1, 0, time=0.0, ops_executed=4, holdback_depth=1))
        assert len(dog.observe(frame_at(1, 1, time=1.25, ops_executed=4,
                                        holdback_depth=1))) == 1
        # Execution resumed: re-armed, and an empty buffer stays silent.
        assert dog.observe(frame_at(1, 2, time=1.5, ops_executed=5,
                                    holdback_depth=0)) == []
        assert dog.observe(frame_at(1, 3, time=6.0, ops_executed=5,
                                    holdback_depth=0)) == []

    def test_empty_holdback_never_stalls(self):
        dog = CausalStallWatchdog()
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
        assert SILENT_AFTER_S == 2.0
        now = {"t": 0.0}
        dog = SilenceWatchdog(clock=lambda site: now["t"])
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
        # A frame carries its process's stamp; the arrival clock (the
        # monitor's: the site's trace mtime) must win.
        heard = {1: 100.0, 2: 101.5}
        dog = SilenceWatchdog(clock=heard.__getitem__)
        dog.observe(frame_at(1, 0, time=0.5))
        dog.observe(frame_at(2, 0, time=0.5))
        assert dog.check(101.0) == []  # heard at 100, not at 0.5
        assert [e.site for e in dog.check(103.0)] == [1]  # site 2 at 101.5


class TestSnapshotEndpoint:
    def test_snapshot_reads_real_session_gauges(self):
        """A process samples exactly the gauges the table marks as
        sampled, measured on the endpoint itself."""
        session = StarSession(2)
        drive_star_session(
            session, RandomSessionConfig(n_sites=2, ops_per_site=3, seed=0)
        )
        session.run()
        samples = [sample_gauges(endpoint, session.sim)
                   for endpoint in session.endpoints()]
        assert SAMPLED_GAUGES == (
            "ops_executed", "holdback_depth", "holdback_high_water", "inflight",
            "storage_ints", "queue_depth", "degraded_queued", "digest")
        assert all(list(sample) == list(SAMPLED_GAUGES) for sample in samples)
        assert all(sample["ops_executed"] == 6 for sample in samples)
        assert [sample["storage_ints"] for sample in samples] == [2, 2, 2]
        assert all(sample["queue_depth"] == 0 for sample in samples)
        # Converged replicas sample identical digests.
        assert len({sample["digest"] for sample in samples}) == 1


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
        header = trace_header()
        text = json.dumps(header) + "\n" + \
            '{"i": 0, "kind": "generated", "t": 0.0, "site": 1, "op": "a"}\n' + \
            '{"i": 1, "kind": "exec'
        _header, events = read_jsonl(io.StringIO(text), lenient=True)
        assert [e.op_id for e in events] == ["a"]
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO(text))  # strict mode still objects

