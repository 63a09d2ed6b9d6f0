"""Every metric perfbench prints: name, unit, direction, bound, meaning.

This table is the single source; ``BENCHMARK.json`` repeats the part of
it the driver reads (``test_perfbench.py`` checks the two agree) and
``README.md`` explains it.

End-to-end metrics are what a user of the system sees.  ``GATED`` are
the five that ``run.py --workload W --trace 0`` prints and
``BENCHMARK.json`` bounds: defined on all four workloads, never 0, and
steady enough on a shared box that ten runs spread by less than a third
of the bound.  The other five are end-to-end too, but exist on some
workloads only (virtual time needs a simulator, frame bytes need a
socket), are expected to be 0 (``failed_op_share``, which the driver
reads as ``failed / attempted``), or swing with the box
(``e2e_p99_ms``: under a neighbour's load the tail grows by half while
the median, once calibrated, holds); the driver-facing run reports them
beside the per-layer metrics.  The suite prints and ``compare.py`` gates
all ten.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    meaning: str
    bound: float = 0.0  # share of the base by which it may worsen
    gated: bool = False  # in BENCHMARK.json's end_to_end list
    exact: bool = False  # repeats exactly for one (workload, seed)
    on: str = "all"  # workloads it exists on: "all", "sim" or "wire"
    moves: str = ""  # per-layer: the end-to-end metric it should move


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "process entry -> first timed op: imports, session/rig "
           "construction, scheduling the workload, connect and HELLO",
           bound=0.25, gated=True),
    Metric("ops_per_s", "1/s", "higher",
           "generated ops integrated at every replica, per wall second",
           bound=0.20, gated=True),
    Metric("e2e_p50_ms", "ms", "lower",
           "generate() entry -> return of the on_message that executed the "
           "op at the last remote client; on sim-* the network is virtual, "
           "so it is the stack's own time on that path",
           bound=0.25, gated=True),
    Metric("e2e_p99_ms", "ms", "lower", "same, 99th percentile", bound=0.25),
    Metric("model_bytes_per_op", "bytes/op", "lower",
           "ChannelStats.total_bytes / ops: the EXPERIMENTS.md accounting, "
           "acks and retransmits included",
           bound=0.04, gated=True, exact=True),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the repeat's own process", bound=0.05, gated=True),
    Metric("vt_e2e_p50", "vt", "lower",
           "generation -> last remote execution on the simulator clock",
           exact=True, on="sim"),
    Metric("vt_e2e_p99", "vt", "lower", "same, 99th percentile",
           exact=True, on="sim"),
    Metric("frame_bytes_per_op", "bytes/op", "lower",
           "bytes written to the four socket directions / ops",
           bound=0.01, on="wire"),
    Metric("failed_op_share", "ratio", "lower",
           "attempted ops not integrated at every replica / attempted",
           exact=True),
)

GATED = tuple(m for m in END_TO_END if m.gated)


def exact_on(metric: Metric, kind: str) -> bool:
    """Whether ``metric`` must repeat exactly on a workload of ``kind``.

    On the TCP rig the kernel decides how the two clients' ops
    interleave, which decides how many bytes each random draw inserts.
    """
    return metric.exact and not (metric.name == "model_bytes_per_op" and kind == "wire")


def _layer(name: str, unit: str, moves: str, on: str, meaning: str,
           better: str = "lower") -> Metric:
    return Metric(name, unit, better, meaning, on=on, moves=moves)


PER_LAYER = (
    _layer("ot.transform_calls_per_op", "1/op", "ops_per_s", "sim-fanout16",
           "transform() calls across the star per generated op"),
    _layer("ot.transform_us", "us", "ops_per_s", "sim-fanout16",
           "one transform() call (span)"),
    _layer("ot.apply_us", "us", "ops_per_s, e2e_p50_ms", "all",
           "one apply() call: an O(len) string copy (span)"),
    _layer("editor.pending_depth_mean", "count", "ops_per_s", "sim-fanout16",
           "entries transformed against per arrival"),
    _layer("core.compress_us", "us", "ops_per_s", "sim-fanout16",
           "compress_for_destination (stand)"),
    _layer("core.checks_per_op", "1/op", "ops_per_s, peak_rss_mb", "sim-diag4",
           "HB entries swept by formula 5/7 per generated op"),
    _layer("core.check_us", "us", "ops_per_s", "sim-diag4",
           "one client_concurrent / notifier_concurrent call (stand)"),
    _layer("editor.check_records_per_op", "1/op", "peak_rss_mb", "sim-diag4",
           "CheckRecords kept per generated op"),
    _layer("core.hb_entries_max", "count", "peak_rss_mb", "all",
           "longest history buffer at the end of the run"),
    _layer("editor.generate_us", "us", "ops_per_s, e2e_p50_ms", "all",
           "StarClient.generate self time (span)"),
    _layer("editor.client_handle_us", "us", "ops_per_s, e2e_p50_ms",
           "sim-fanout16, wire-pair", "client handler self time (span)"),
    _layer("editor.notifier_handle_us", "us", "ops_per_s, e2e_p50_ms",
           "sim-fanout16, wire-pair", "notifier handler self time (span)"),
    _layer("rel.send_us", "us", "ops_per_s", "sim-lossy8",
           "transport.send self time (span); pass-through elsewhere"),
    _layer("rel.on_wire_us", "us", "ops_per_s", "sim-lossy8",
           "on_message/on_wire self time (span); pass-through elsewhere"),
    _layer("rel.retransmits_per_op", "1/op", "ops_per_s, model_bytes_per_op",
           "sim-lossy8", "ReliabilityStats.retransmits / ops"),
    _layer("rel.dup_discards_per_op", "1/op", "ops_per_s", "sim-lossy8",
           "ReliabilityStats.duplicates_discarded / ops"),
    _layer("rel.acks_per_op", "1/op", "model_bytes_per_op", "sim-lossy8",
           "ReliabilityStats.acks_sent / ops"),
    _layer("rel.useful_ratio", "ratio", "ops_per_s, vt_e2e_p99", "sim-lossy8",
           "first in-order deliveries / packets received", better="higher"),
    _layer("holdback.held_per_op", "1/op", "vt_e2e_p99", "sim-lossy8",
           "packets parked out of order / ops"),
    _layer("holdback.high_water", "count", "vt_e2e_p99", "sim-lossy8",
           "HoldbackQueue.max_held, worst endpoint"),
    _layer("holdback.hold_pop_us", "us", "ops_per_s", "sim-lossy8",
           "one hold + pop pair (stand)"),
    _layer("sched.events_per_op", "1/op", "ops_per_s", "all",
           "scheduler callbacks fired per generated op"),
    _layer("sched.sim_dispatch_us", "us", "ops_per_s", "sim",
           "Simulator: schedule + fire a no-op (stand)"),
    _layer("sched.asyncio_dispatch_us", "us", "ops_per_s, e2e_p50_ms",
           "wire-pair", "AsyncioScheduler: schedule + fire a no-op (stand)"),
    _layer("chan.send_us", "us", "ops_per_s", "sim",
           "FIFOChannel.send incl. measure_payload_bytes (span)"),
    _layer("chan.msgs_per_op", "1/op", "ops_per_s", "all",
           "messages put on a channel per generated op"),
    _layer("codec.encode_us", "us", "e2e_p50_ms, ops_per_s", "wire-pair",
           "encode_op_message (stand)"),
    _layer("codec.decode_us", "us", "e2e_p50_ms, ops_per_s", "wire-pair",
           "decode_op_message (stand)"),
    _layer("codec.bytes_per_msg", "bytes", "frame_bytes_per_op", "wire-pair",
           "mean encoded OpMessage"),
    _layer("codec.encodes_per_op", "1/op", "ops_per_s", "wire-pair",
           "OpMessage encodings per generated op"),
    _layer("wire.send_us", "us", "e2e_p50_ms, ops_per_s", "wire-pair",
           "WireChannel.send: encode, frame, socket write (span)"),
    _layer("wire.decode_frame_us", "us", "e2e_p50_ms, ops_per_s", "wire-pair",
           "decode_frame in place: frame read -> pump callback entry (span)"),
    _layer("wire.transit_us", "us", "e2e_p50_ms", "wire-pair",
           "send end -> frame read by the receiving pump, median"),
    _layer("wire.frame_bytes_per_msg", "bytes", "frame_bytes_per_op",
           "wire-pair", "bytes on the socket per frame"),
    _layer("py.gc_pct", "%", "ops_per_s, e2e_p99_ms", "all, most on sim-diag4",
           "share of the traced pass spent in the cyclic collector "
           "(gc.callbacks spans), wherever it struck"),
    _layer("obs.tracer_overhead_pct", "%", "informational",
           "sim-fanout16, wire-pair",
           "slow-down of a pass with repro.obs.Tracer attached"),
    _layer("bench.trace_overhead_pct", "%", "-", "all",
           "slow-down of the traced pass: what the spans cost"),
    _layer("bench.unattributed_pct", "%", "-", "all",
           "per-op time the budget table does not explain"),
)

# End-to-end numbers the driver-facing --trace 1 run carries (see above).
TRACED_EXTRAS = tuple(m for m in END_TO_END if not m.gated)
