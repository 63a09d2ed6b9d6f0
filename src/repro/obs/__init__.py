"""The observability layer: causal tracing and metrics for the stack.

Cross-cutting and strictly below every other ``repro`` package: the
tracer core (:mod:`repro.obs.tracer`) is stdlib-only so any layer can
import it without cycles, and the analysis side
(:mod:`repro.obs.analysis`) reaches upward to the ground-truth oracle
only lazily, inside functions.  The pieces:

* :class:`Tracer` / :class:`TraceEvent` -- structured protocol events
  (generated / sent / retransmitted / held back / released /
  transformed / executed / snapshot / crashed / recovered / elected /
  promoted / handoff / holdback overflow / span), emitted by
  every layer boundary through an optional hook whose disabled path is
  a single attribute check;
* :class:`MetricsRegistry` / :class:`Histogram` -- named counters and
  value histograms;
* :class:`TraceCausality` -- happens-before reconstructed from a
  recorded trace, cross-checked against the ground-truth oracle by
  :func:`cross_check_causality`;
* :func:`latency_histograms` -- per-site generation-to-execution
  latency from the same trace;
* :class:`TelemetryFrame` / :class:`TelemetrySampler` / the watchdogs /
  :class:`FlightRecorder` (:mod:`repro.obs.telemetry`) -- live runtime
  gauges sampled on any scheduler, health verdicts over the gauge
  stream, and the crash-time trace-tail dump;
* :mod:`repro.obs.monitor` -- the cross-process aggregator behind
  ``python -m repro monitor``: one ingest for the stream files and the
  UDP sideband (:class:`TelemetryTailer`), totals folded as each
  gauge's declaration says, and the ``--follow`` sparkline dashboard;
* :mod:`repro.obs.spans` -- the end-to-end latency observatory:
  cross-process causal spans assembled into per-site-pair
  skew-corrected latency percentiles (:func:`assemble_spans`,
  :class:`SkewEstimator`, :class:`SpanReport`);
* JSONL and Chrome ``trace_event`` serialisation, including the
  crash-safe :class:`JsonlWriter` the telemetry streams ride on.
"""

from repro.obs.analysis import (
    TraceCausality,
    cross_check_causality,
    latency_histograms,
    released_without_cause,
    verify_check_records,
)
from repro.obs.monitor import aggregate, run_monitor
from repro.obs.telemetry import (
    CausalStallWatchdog,
    DivergenceSentinel,
    FlightRecorder,
    HealthEvent,
    RetransmitStormWatchdog,
    SilenceWatchdog,
    TelemetryFrame,
    TelemetrySampler,
    snapshot_endpoint,
)
from repro.obs.tracer import (
    TRACE_FORMAT,
    Histogram,
    JsonlWriter,
    MetricsRegistry,
    TraceEvent,
    TraceEventKind,
    Tracer,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "TRACE_FORMAT",
    "CausalStallWatchdog",
    "DivergenceSentinel",
    "FlightRecorder",
    "HealthEvent",
    "Histogram",
    "JsonlWriter",
    "MetricsRegistry",
    "RetransmitStormWatchdog",
    "SilenceWatchdog",
    "TelemetryFrame",
    "TelemetrySampler",
    "TraceCausality",
    "TraceEvent",
    "TraceEventKind",
    "Tracer",
    "aggregate",
    "cross_check_causality",
    "latency_histograms",
    "read_jsonl",
    "released_without_cause",
    "run_monitor",
    "snapshot_endpoint",
    "verify_check_records",
    "write_chrome_trace",
    "write_jsonl",
]
