"""From one pass's raw record to named numbers.

``summarise`` reduces the sample lists of any pass to the end-to-end
numbers; ``layer_report`` adds, for a traced pass, the per-layer metrics
and the budget table.
"""

from __future__ import annotations

import resource
from typing import Any, Sequence

import stands
from calibrate import REFERENCE_S, calibrated_s, slice_indexes
from probe import TraceState
from workloads import Workload

WARMUP_SHARE = 30  # the first 1/30 of the latency samples is discarded


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarise(record: dict[str, Any], entry_kernel_s: Sequence[float]
              ) -> dict[str, Any]:
    """The pass record with its sample lists reduced to named numbers.

    Wall-clock numbers are calibrated (see calibrate.py): every timed
    slice and every latency sample is divided by the speed index of the
    box around that slice, ``setup_s`` by the index around set-up
    (``entry_kernel_s``, sampled at process entry, and the two samples
    on either side of the first slice).  What the clock actually read is kept beside each
    under ``raw_``.
    """
    ops = record["ops"]
    slices_s = record.pop("slices_s")
    kernel_s = record.pop("kernel_s")
    indexes = slice_indexes(kernel_s)
    samples = record.pop("e2e_s")
    warm = len(samples) // WARMUP_SHARE
    raw_e2e: list[float] = []
    e2e: list[float] = []
    first = 0
    for index, end in zip(indexes, record.pop("e2e_marks")):
        taken = samples[max(first, warm):end]
        raw_e2e += taken
        e2e += [sample / index for sample in taken]
        first = end
    raw_e2e.sort()
    e2e.sort()
    vt = sorted(record.pop("vt_e2e"))
    around_setup = [*entry_kernel_s, *kernel_s[:2]]
    setup_index = sum(around_setup) / len(around_setup) / REFERENCE_S
    calibrated_wall_s = calibrated_s(slices_s, indexes)
    out = dict(record)
    out.update(
        speed_index=sum(kernel_s) / len(kernel_s) / REFERENCE_S,
        setup_s=record["setup_s"] / setup_index,
        raw_setup_s=record["setup_s"],
        calibrated_wall_s=calibrated_wall_s,
        ops_per_s=ops / calibrated_wall_s,
        raw_ops_per_s=ops / record["wall_s"],
        e2e_p50_ms=quantile(e2e, 0.50) * 1e3,
        e2e_p99_ms=quantile(e2e, 0.99) * 1e3,
        raw_e2e_p50_ms=quantile(raw_e2e, 0.50) * 1e3,
        raw_e2e_p99_ms=quantile(raw_e2e, 0.99) * 1e3,
        vt_e2e_p50=quantile(vt, 0.50),
        vt_e2e_p99=quantile(vt, 0.99),
        model_bytes_per_op=record["model_bytes"] / ops,
        frame_bytes_per_op=record.get("frame_bytes", 0) / ops,
        failed_op_share=record["failed"] / ops,
        peak_rss_mb=peak_rss_mb(),
    )
    return out


def layer_report(workload: Workload, record: dict[str, Any],
                 trace: TraceState, final: Any) -> dict[str, Any]:
    """Per-layer metrics and the budget table of one traced pass."""
    ops = record["ops"]
    wall_s = record["wall_s"]
    costs = trace.recorder.layer_costs()

    def calls(name: str) -> int:
        return costs[name].calls if name in costs else 0

    def self_us(name: str) -> float:
        cost = costs.get(name)
        return cost.self_s / cost.calls * 1e6 if cost else 0.0

    def mean_us(name: str) -> float:
        cost = costs.get(name)
        return cost.total_s / cost.calls * 1e6 if cost else 0.0

    handled = calls("editor.client_handle") + calls("editor.notifier_handle")
    metrics: dict[str, float] = {
        "ot.transform_calls_per_op": calls("ot.transform") / ops,
        "ot.transform_us": mean_us("ot.transform"),
        "ot.apply_us": mean_us("ot.apply"),
        "editor.pending_depth_mean": calls("ot.transform") / handled if handled else 0.0,
        "editor.generate_us": self_us("editor.generate"),
        "editor.client_handle_us": self_us("editor.client_handle"),
        "editor.notifier_handle_us": self_us("editor.notifier_handle"),
        "editor.check_records_per_op": record["check_records"] / ops,
        "core.checks_per_op": trace.checks_swept / ops,
        "core.hb_entries_max": record["hb_entries_max"],
        "rel.send_us": self_us("rel.send"),
        "rel.on_wire_us": self_us("rel.on_wire"),
        "rel.retransmits_per_op": record["retransmits"] / ops,
        "rel.dup_discards_per_op": record["dup_discards"] / ops,
        "rel.acks_per_op": record["acks"] / ops,
        "rel.useful_ratio": handled / calls("rel.on_wire") if calls("rel.on_wire") else 0.0,
        "holdback.held_per_op": record["held"] / ops,
        "holdback.high_water": record["holdback_high_water"],
        "sched.events_per_op": record["events"] / ops,
        "chan.send_us": self_us("chan.send"),
        "chan.msgs_per_op": record["messages"] / ops,
        "wire.send_us": self_us("wire.send"),
        "codec.encodes_per_op": calls("wire.send") / ops,
        "py.gc_pct": (100.0 * costs["py.gc"].total_s / wall_s
                      if "py.gc" in costs else 0.0),
    }

    # Stands, on the traffic this pass captured.  A layer that is not on
    # this workload's path reads 0: there is nothing to attribute to it.
    rows: list[dict[str, Any]] = []  # budget rows that come from a stand
    notifier = final if workload.kind == "wire" else final.notifier
    metrics["core.compress_us"] = stands.compress_us(notifier.sv)
    metrics["core.check_us"] = 0.0
    metrics["holdback.hold_pop_us"] = stands.hold_pop_us() if workload.lossy else 0.0
    metrics["sched.sim_dispatch_us"] = 0.0
    metrics["sched.asyncio_dispatch_us"] = 0.0
    for name in ("codec.encode_us", "codec.decode_us", "codec.bytes_per_msg",
                 "wire.decode_frame_us", "wire.transit_us",
                 "wire.frame_bytes_per_msg"):
        metrics[name] = 0.0
    if workload.diagnostics:
        metrics["core.check_us"] = stands.check_us(final.clients[0], notifier)
    if workload.kind == "sim":
        schedule_us, fire_us = stands.sim_dispatch_us()
        metrics["sched.sim_dispatch_us"] = schedule_us + fire_us
        # Scheduling happens inside chan.send / rel.send spans; only the
        # firing half is outside every span.
        rows.append({"layer": "sched.sim_dispatch", "calls": record["events"],
                     "self_us": fire_us})
    else:
        messages = stands.op_messages(trace.corpus.envelopes)
        encode_us, decode_us, mean_bytes = stands.codec_us(messages)
        transit = sorted(trace.transit_s)
        metrics.update({
            "codec.encode_us": encode_us,
            "codec.decode_us": decode_us,
            "codec.bytes_per_msg": mean_bytes,
            "wire.decode_frame_us": mean_us("wire.decode_frame"),
            "wire.transit_us": quantile(transit, 0.5) * 1e6,
            "wire.frame_bytes_per_msg": record["frame_bytes"] / record["frames"],
            "sched.asyncio_dispatch_us": stands.asyncio_dispatch_us(),
        })
        rows.append({"layer": "sched.asyncio_dispatch", "calls": record["events"],
                     "self_us": metrics["sched.asyncio_dispatch_us"]})
        rows.append({"layer": "socket.receive", "calls": record["messages"],
                     "self_us": stands.socket_receive_us(trace.corpus.frames)})

    budget = [
        {"layer": name, "source": "span", "calls_per_op": cost.calls / ops,
         "self_us": cost.self_s / cost.calls * 1e6,
         "us_per_op": cost.self_s / ops * 1e6}
        for name, cost in costs.items()
    ] + [
        {"layer": row["layer"], "source": "stand x count",
         "calls_per_op": row["calls"] / ops, "self_us": row["self_us"],
         "us_per_op": row["calls"] * row["self_us"] / ops}
        for row in rows
    ]
    per_op_us = wall_s / ops * 1e6
    for row in budget:
        row["share_pct"] = 100.0 * row["us_per_op"] / per_op_us
    budget.sort(key=lambda row: -row["us_per_op"])
    attributed = sum(row["us_per_op"] for row in budget)
    metrics["bench.unattributed_pct"] = 100.0 * (1.0 - attributed / per_op_us)
    return {"metrics": metrics, "budget": budget, "per_op_us": per_op_us}


