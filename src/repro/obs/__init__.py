"""The observability layer: causal tracing and metrics for the stack.

Cross-cutting and strictly below every other ``repro`` package: the
tracer core (:mod:`repro.obs.tracer`) is stdlib-only so any layer can
import it without cycles, and the analysis side
(:mod:`repro.obs.analysis`) reaches upward only to the ground-truth
event log and oracle (:mod:`repro.clocks.events`,
:mod:`repro.analysis.causality`), which import nothing above the
clocks.  The pieces:

* :class:`Tracer` / :class:`TraceEvent` -- structured protocol events
  (generated / sent / retransmitted / held back / released /
  transformed / executed / snapshot / crashed / recovered / elected /
  promoted / handoff / holdback overflow), emitted by every layer
  boundary through an optional hook whose disabled path is a single
  attribute check, and the two a cluster process adds (sampled, with
  its gauge dict, and peer lost);
* :class:`MetricsRegistry` / :class:`Histogram` -- named counters and
  value histograms;
* :func:`replay_event_log` -- the ground-truth event log rebuilt from
  a recorded trace, whose happens-before (the one oracle's) is
  cross-checked against a session's own log, or against its own vector
  clocks, by :func:`cross_check_causality`, and against which
  :func:`check_verdicts` recomputes every formula-(5)/(7) verdict from
  the timestamps the trace carries;
* :func:`latency_histograms` -- per-site generation-to-execution
  latency from the same trace, each execution paired with its
  generation by :class:`~repro.obs.tracer.Origins`;
* :class:`TelemetryFrame` / the watchdogs (:mod:`repro.obs.telemetry`)
  -- one site's gauges, which of them a ``sampled`` event carries and
  which are derived from other events, and health verdicts over them;
* :mod:`repro.obs.monitor` -- the cross-process aggregator behind
  ``python -m repro monitor``: one tailer for the traces
  (:class:`TelemetryTailer`, which builds every site's frame from its
  trace and derives the end-to-end gauge across them), totals folded as
  each gauge's declaration says, and the ``--follow`` sparkline
  dashboard;
* :mod:`repro.obs.spans` -- the end-to-end latency observatory:
  per-site-pair skew-corrected latency percentiles, derived from the
  generation, release, transform and execution events the trace already
  records (:func:`assemble_spans`, :class:`SkewEstimator`);
* JSONL and Chrome ``trace_event`` serialisation, including the
  crash-safe :class:`JsonlWriter` the traces ride on -- a cluster
  process's streamed trace is the one stream it writes: its
  post-mortem and what the monitor reads.
"""

from repro.obs.analysis import (
    check_verdicts,
    cross_check_causality,
    latency_histograms,
    released_without_cause,
    replay_event_log,
)
from repro.obs.monitor import aggregate, run_monitor
from repro.obs.telemetry import (
    CausalStallWatchdog,
    DivergenceSentinel,
    HealthEvent,
    RetransmitStormWatchdog,
    SilenceWatchdog,
    TelemetryFrame,
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
    "HealthEvent",
    "Histogram",
    "JsonlWriter",
    "MetricsRegistry",
    "RetransmitStormWatchdog",
    "SilenceWatchdog",
    "TelemetryFrame",
    "TraceEvent",
    "TraceEventKind",
    "Tracer",
    "aggregate",
    "check_verdicts",
    "cross_check_causality",
    "latency_histograms",
    "read_jsonl",
    "released_without_cause",
    "replay_event_log",
    "run_monitor",
    "write_chrome_trace",
    "write_jsonl",
]
