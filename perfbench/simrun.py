"""One pass of a simulator workload (``sim-fanout16/-lossy8/-diag4``)."""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Optional

from calibrate import Kernel
from probe import (
    OpTracker,
    TraceState,
    instrument,
    spanned_arrival,
    tracked_generate,
    transport_counters,
)
from repro.editor.star import StarSession
from repro.net.channel import JitterLatency
from repro.net.faults import ChannelFaults, FaultPlan
from repro.session import ConsistencyError
from repro.workloads.random_session import (
    RandomSessionConfig,
    generate_random_edits,
    random_positional_op,
)
from workloads import Workload

SLICES = 40  # timed slices per pass, with a calibration sample between them


def _latency_factory(seed: int):
    # Same draw as obs/bench.py::_latency_factory: what the CLI runs.
    def factory(src: int, dst: int) -> JitterLatency:
        return JitterLatency(0.08, 0.6, random.Random(seed * 97 + src * 11 + dst))

    return factory


def build_session(workload: Workload, seed: int, *, tracer: Any = None,
                  oracle: bool = False) -> StarSession:
    """The session a pass runs on.

    ``oracle=True`` is the verification pass: every formula-5/7 verdict
    is asserted against full vector clocks while the run executes.
    """
    plan = None
    if workload.lossy:
        plan = FaultPlan(seed=seed,
                         default=ChannelFaults(drop_p=0.05, dup_p=0.02))
    return StarSession(
        workload.n_sites,
        initial_state=RandomSessionConfig().initial_document,
        latency_factory=_latency_factory(seed),
        verify_with_oracle=oracle,
        record_events=oracle,
        record_checks=workload.diagnostics and not oracle,
        fault_plan=plan,
        tracer=tracer,
    )


def run_sim(workload: Workload, seed: int, scale: float, started: float,
            kernel: Kernel, *, trace: Optional[TraceState] = None, tracer: Any = None,
            oracle: bool = False, sabotage: Optional[str] = None
            ) -> tuple[dict[str, Any], StarSession]:
    """Build, drive to quiescence, verify; returns the pass record and
    the finished session (the layer stands read its final state).

    ``started`` is the ``perf_counter`` reading at process entry, so
    ``setup_s`` covers imports, construction and scheduling -- everything
    up to the first timed event.  ``kernel`` is sampled between the
    timed slices (calibrate.py).
    """
    config = RandomSessionConfig(
        n_sites=workload.n_sites, ops_per_site=workload.ops(scale), seed=seed)
    session = build_session(workload, seed, tracer=tracer, oracle=oracle)
    sim = session.sim
    tracker = OpTracker(workload.n_sites - 1, lambda: sim.now, wall=False)
    recorder = trace.recorder if trace is not None else None
    attempted = 0
    lost = 0

    intents = generate_random_edits(config)
    skipped = intents[len(intents) // 2] if sabotage == "drop-op" else None
    for intent in intents:
        client = session.client(intent.site)

        def fire(client=client, subseed=intent.seed, skip=intent is skipped) -> None:
            nonlocal attempted, lost
            span = recorder.enter("bench.driver") if recorder is not None else -1
            op = random_positional_op(random.Random(subseed), client.document, config)
            attempted += 1
            if skip or tracked_generate(client, op, tracker, recorder) is None:
                lost += 1
            if recorder is not None:
                recorder.exit(span)

        sim.schedule(intent.time, fire)

    endpoints = {endpoint.pid: endpoint for endpoint in session.endpoints()}
    if trace is not None:
        for pid, endpoint in endpoints.items():
            instrument(endpoint, trace,
                       "editor.notifier_handle" if pid == 0 else "editor.client_handle",
                       "chan.send")
    for (_, dest), channel in session.topology.channels.items():
        endpoint = endpoints[dest]
        arrival = (spanned_arrival(endpoint, trace) if trace is not None
                   else channel.on_deliver)
        channel.on_deliver = tracker.watch(endpoint, arrival, dest == 0)

    # A slice is a fixed number of events, so it does the same work in
    # every repeat of one (workload, seed).
    slice_events = max(100, len(intents) * (workload.n_sites + 1) // SLICES)
    errors: list[str] = []
    slices: list[float] = []
    marks: list[int] = []  # latency samples taken by the end of each slice
    setup_s = perf_counter() - started
    kernel_s = [kernel()]
    try:
        while sim.pending_events:
            t0 = perf_counter()
            sim.run(max_events=slice_events)
            slices.append(perf_counter() - t0)
            marks.append(len(tracker.e2e_s))
            kernel_s.append(kernel())
    except ConsistencyError as exc:
        errors.append(f"ConsistencyError: {exc}")
    wall_s = sum(slices)

    if sabotage == "diverge":
        session.clients[0].document += "!"
    if not session.converged():
        errors.append("replicas hold different documents")
    if not session.quiescent():
        errors.append("session did not quiesce")
    if not session.reliable_delivery_in_order():
        errors.append("a transport released out of order")
    failed = min(attempted, lost + tracker.incomplete())
    if failed:
        errors.append(f"{failed} of {attempted} ops not integrated everywhere")

    wire = session.wire_stats()
    record: dict[str, Any] = {
        "ops": attempted,
        "failed": failed,
        "errors": errors,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "slices_s": slices,
        "kernel_s": kernel_s,
        "e2e_s": tracker.e2e_s,
        "e2e_marks": marks,
        "vt_e2e": tracker.sched_e2e,
        "model_bytes": wire.total_bytes,
        "messages": wire.messages,
        "events": sim.processed_events,
        "hb_entries_max": max(len(endpoint.hb) for endpoint in session.endpoints()),
        "check_records": len(session.all_checks()),
        **transport_counters(session.endpoints()),
    }
    return record, session
