"""Unit tests for the observability tracer and metrics registry.

The contracts the rest of the stack relies on: events are appended in
emission order with dense indices (the trace doubles as a topological
order), the disabled path records nothing, serialisation round-trips
losslessly, and the metrics registry counts and summarises correctly.
"""

from __future__ import annotations

import io

import pytest

from repro.obs import (
    TRACE_FORMAT,
    Histogram,
    MetricsRegistry,
    TraceEvent,
    TraceEventKind,
    Tracer,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


class TestEmission:
    def test_events_are_appended_in_order_with_dense_indices(self):
        tracer = Tracer()
        tracer.emit(TraceEventKind.GENERATED, 1, op_id="c1_1")
        tracer.emit(TraceEventKind.SENT, 1, op_id="c1_1", peer=0)
        tracer.emit(TraceEventKind.EXECUTED, 0, op_id="c1_1")
        assert [e.index for e in tracer.events] == [0, 1, 2]
        assert [e.kind for e in tracer.events] == [
            TraceEventKind.GENERATED,
            TraceEventKind.SENT,
            TraceEventKind.EXECUTED,
        ]
        assert len(tracer) == 3

    def test_bound_clock_stamps_virtual_time(self):
        now = {"t": 0.0}
        tracer = Tracer()
        tracer.bind_clock(lambda: now["t"])
        tracer.emit(TraceEventKind.GENERATED, 1, op_id="a")
        now["t"] = 2.5
        tracer.emit(TraceEventKind.EXECUTED, 0, op_id="a")
        assert [e.time for e in tracer.events] == [0.0, 2.5]

    def test_explicit_time_overrides_clock(self):
        tracer = Tracer(clock=lambda: 9.0)
        event = tracer.emit(TraceEventKind.GENERATED, 1, op_id="a", time=1.25)
        assert event is not None and event.time == 1.25

    def test_emit_bumps_per_kind_counters(self):
        tracer = Tracer()
        tracer.emit(TraceEventKind.GENERATED, 1)
        tracer.emit(TraceEventKind.GENERATED, 2)
        tracer.emit(TraceEventKind.RETRANSMITTED, 1)
        assert tracer.metrics.counter("trace.generated") == 2
        assert tracer.metrics.counter("trace.retransmitted") == 1
        assert tracer.metrics.counter("trace.executed") == 0


class TestSerialisation:
    def _sample_events(self):
        tracer = Tracer()
        tracer.emit(
            TraceEventKind.GENERATED, 1, op_id="c1_1", timestamp=(0, 1), time=0.5
        )
        tracer.emit(
            TraceEventKind.HELD_BACK, 2, op_id="c1_1'", peer=0, epoch=1, seq=3,
            time=0.75,
        )
        tracer.emit(
            TraceEventKind.RELEASED, 2, op_id="c1_1'", peer=0, epoch=1, seq=3,
            via="holdback", time=0.9,
        )
        tracer.emit(
            TraceEventKind.TRANSFORMED, 0, op_id="c1_1'", source_op_id="c1_1",
            time=0.6,
        )
        return tracer.events

    def test_jsonl_round_trip(self):
        events = self._sample_events()
        buffer = io.StringIO()
        lines = write_jsonl(events, buffer, header={"sites": 2})
        assert lines == len(events) + 1
        buffer.seek(0)
        header, restored = read_jsonl(buffer)
        assert header["format"] == TRACE_FORMAT
        assert header["sites"] == 2
        assert restored == events

    def test_read_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            read_jsonl(io.StringIO('{"format": "something-else"}\n'))

    def test_event_json_omits_none_fields(self):
        event = TraceEvent(index=0, kind=TraceEventKind.GENERATED, time=0.0, site=1)
        assert set(event.to_json()) and "peer" not in event.to_json()
        assert TraceEvent.from_json(event.to_json()) == event

    def test_chrome_trace_contains_instants_and_op_spans(self):
        import json

        events = self._sample_events()
        buffer = io.StringIO()
        records = write_chrome_trace(events, buffer)
        data = json.loads(buffer.getvalue())
        assert len(data["traceEvents"]) == records
        phases = {r["ph"] for r in data["traceEvents"]}
        assert "i" in phases  # instants
        assert {"b", "e"} <= phases  # async span begin/end per op


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        assert metrics.inc("x") == 1
        assert metrics.inc("x", 4) == 5
        assert metrics.counter("x") == 5
        assert metrics.counter("missing") == 0
        assert metrics.counters() == {"x": 5}

    def test_histograms(self):
        metrics = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            metrics.observe("lat", value)
        hist = metrics.histogram("lat")
        assert hist.count == 3
        assert hist.minimum == 1.0
        assert hist.maximum == 3.0
        assert hist.mean == 2.0
        assert "lat" in metrics.summary()

    def test_histogram_percentiles(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(50) == 50.0
        assert hist.percentile(95) == 95.0
        assert hist.percentile(100) == 100.0
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_empty_histogram_returns_none(self):
        hist = Histogram()
        assert hist.mean is None
        assert hist.minimum is None
        assert hist.maximum is None
        assert hist.percentile(50) is None
        with pytest.raises(ValueError):
            hist.percentile(101)
        assert hist.summary() == "n=0"

    def test_single_sample_histogram(self):
        hist = Histogram()
        hist.observe(7.0)
        for p in (0, 50, 99, 100):
            assert hist.percentile(p) == 7.0
        assert hist.minimum == 7.0 == hist.maximum == hist.mean
