"""Shared plumbing of the cluster processes: config, workload, traces.

The driver, the notifier process and every client process must agree on
the workload (so the cluster replays the same seeded edit schedule the
simulator benchmarks use) and on the trace each process writes (so the
driver can merge them).  This module is that contract.
"""

from __future__ import annotations

import asyncio
import dataclasses
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.scheduler import AsyncioScheduler, Scheduler
from repro.net.wire import WireChannel, connect_with_backoff, encode_hello, frame
from repro.obs.analysis import TraceAnalysisError
from repro.obs.telemetry import document_digest
from repro.obs.tracer import (
    JsonlWriter,
    TraceEvent,
    TraceEventKind,
    Tracer,
    read_jsonl,
    trace_header,
)
from repro.workloads.random_session import RandomSessionConfig

DEFAULT_DOCUMENT = "The quick brown fox jumps over the lazy dog."

#: Wall seconds between a process's ``sampled`` trace events.
SAMPLE_INTERVAL_S = 0.25

# The cluster's command-line surface, declared once: (ClusterConfig
# field, flag, type, help).  Defaults are the dataclass's; a ``bool``
# row is a switch that flips its field's default.
_FLAGS: tuple[tuple[str, str, type, Optional[str]], ...] = (
    ("clients", "--clients", int, None),
    ("ops_per_client", "--ops", int, None),
    ("seed", "--seed", int, None),
    ("time_scale", "--time-scale", float, None),
    ("host", "--host", str, None),
    ("settle_s", "--settle", float, None),
    ("timeout_s", "--timeout", float, None),
    ("reliability", "--reliability", bool, None),
    ("crash_notifier_after_s", "--crash-notifier-after", float,
     "fault injection: hard-kill the notifier process this many seconds "
     "after every client has connected (it traces its crash first); "
     "with failover on, the surviving clients re-elect and the run "
     "still converges"),
    ("failover", "--no-failover", bool,
     "disable live failover: clients open no listening sockets and a "
     "notifier crash is terminal (the traces are the post-mortem)"),
)


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster run: the workload and the wall-clock envelope.

    ``time_scale`` maps the workload's virtual think-time units onto
    wall seconds (the simulator schedules think times of ~0.4 units;
    at the default scale a quick run finishes in a couple of seconds of
    wall time).  ``settle_s`` is drained after the last expected
    execution so in-flight acknowledgements and trace writes land
    before the sockets close.  ``timeout_s`` is each process's hard
    bound: on expiry it closes its trace with ``timed_out`` set rather
    than hanging the harness.
    """

    clients: int = 3
    ops_per_client: int = 5
    seed: int = 0
    time_scale: float = 0.05
    reliability: bool = False
    host: str = "127.0.0.1"
    settle_s: float = 0.3
    timeout_s: float = 30.0
    #: Fault injection: hard-kill the notifier process (after tracing
    #: its crash) this many wall seconds after every client
    #: has connected -- counted from full connection, not process
    #: start, so the timing is deterministic relative to the workload.
    crash_notifier_after_s: Optional[float] = None
    #: Live failover: every client opens its own listening socket and a
    #: notifier crash triggers cluster-wide re-election instead of an
    #: early exit.  Off = the pre-failover behaviour (crash is terminal,
    #: the driver salvages what the streams hold).
    failover: bool = True

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"need at least one client, got {self.clients}")
        if self.ops_per_client < 1:
            raise ValueError(f"need at least one op per client: {self.ops_per_client}")
        if self.time_scale <= 0 or self.timeout_s <= 0 or self.settle_s < 0:
            raise ValueError(f"malformed cluster timing: {self}")
        if self.crash_notifier_after_s is not None and self.crash_notifier_after_s <= 0:
            raise ValueError(
                f"crash-notifier delay must be positive: {self.crash_notifier_after_s}"
            )

    @property
    def total_ops(self) -> int:
        """Operations every replica eventually executes."""
        return self.clients * self.ops_per_client

    def session_config(self) -> RandomSessionConfig:
        """The seeded workload, identical to the simulator benchmarks'."""
        return RandomSessionConfig(
            n_sites=self.clients,
            ops_per_site=self.ops_per_client,
            seed=self.seed,
            initial_document=DEFAULT_DOCUMENT,
        )

    def to_args(self) -> list[str]:
        """The CLI flags that reproduce this config in a subprocess."""
        args: list[str] = []
        for name, flag, kind, _help in _FLAGS:
            value = getattr(self, name)
            if kind is bool:
                if value != _FLAG_DEFAULTS[name]:
                    args.append(flag)
            elif value is not None:
                args.extend([flag, str(value)])
        return args


_FLAG_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ClusterConfig)}


# -- the per-process trace -----------------------------------------------------


def trace_path(out_dir: Path, site: int) -> Path:
    return out_dir / f"trace_{site}.jsonl"


def sample_gauges(endpoint: "StarNotifier | StarClient",
                  sched: Scheduler) -> dict[str, Any]:
    """What one ``sampled`` event carries: the gauges no event counts
    (:data:`repro.obs.monitor.SAMPLED_GAUGES`).

    ``ops_executed`` and ``digest`` are measured together, so the
    divergence sentinel compares a digest only at the count it was
    taken at; the hold-back buffer is emptied without an event, so its
    depth is measured rather than derived.
    """
    transport = endpoint.transport
    return {
        "ops_executed": len(endpoint.executed_op_ids),
        "holdback_depth": transport.holdback_depth(),
        "holdback_high_water": transport.holdback_high_water(),
        "inflight": transport.inflight(),
        "storage_ints": endpoint.clock_storage_ints(),
        "queue_depth": sched.pending_events,
        "degraded_queued": transport.stats.degraded_queued,
        "digest": document_digest(endpoint.document),
    }


class ProcessRig:
    """What every cluster process is, whatever role it plays.

    The wall-clock scheduler; a tracer stamping Unix time (processes on
    one host share the machine clock, so absolute stamps give the driver
    a common axis to merge on -- :func:`repro.cluster.check.merge_traces`
    repairs any causality-violating skew) that streams to
    ``trace_<site>.jsonl`` from the first event, the one stream the
    process writes (so the tracer keeps only a bounded ring in memory):
    its post-mortem, and with a ``sampled`` event every
    :data:`SAMPLE_INTERVAL_S` what ``repro monitor`` reads, and with
    the closing ``finished`` event what the driver reads; the
    kill-switch and the timeout.  A process that dies by ``os._exit``
    or SIGKILL leaves no closing record, but every event it emitted is
    already on disk (:class:`~repro.obs.tracer.JsonlWriter` flushes per
    line) -- which is what keeps the merged-trace cross-check EXACT
    across a failover.  The trace header says what
    the run is (``sites``, ``expected_ops``): enough for the monitor to
    build the watchdogs that judge every site.
    """

    def __init__(self, config: ClusterConfig, out_dir: Path, site: int,
                 role: str) -> None:
        self.config = config
        self.site = site
        self.sched = AsyncioScheduler()
        self.tracer = Tracer(mode="ring")
        self.tracer.bind_clock(time.time)
        out_dir.mkdir(parents=True, exist_ok=True)
        self._trace = JsonlWriter(
            trace_path(out_dir, site),
            trace_header({"site": site, "role": role,
                          "sites": config.clients + 1,
                          "expected_ops": config.total_ops}),
        )
        self.tracer.bind_sink(self._trace.write_event)
        #: Set when the run is over, one way or the other.
        self.done = asyncio.Event()
        #: The run did not complete (timeout, kill-switch, terminal peer
        #: death): reported to the driver as ``timed_out``.
        self.timed_out = False
        self._live: Optional[Callable[[], "StarNotifier | StarClient"]] = None
        self._samples = 0
        self._sample_timer: Any = None
        self._sigterm_installed = True
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, self._on_sigterm)
        except (NotImplementedError, ValueError):  # pragma: no cover - non-Unix
            self._sigterm_installed = False

    def _on_sigterm(self) -> None:
        # The driver's kill-switch: let the normal shutdown path close
        # the trace with its closing record.
        self.timed_out = True
        self.done.set()

    def sample(self, live: Callable[[], "StarNotifier | StarClient"]) -> None:
        """Trace ``live()``'s gauges every :data:`SAMPLE_INTERVAL_S`
        until :meth:`finish`, whose closing record is the last sample,
        so the final frame the monitor builds carries the final local
        state."""
        self._live = live
        self._sample_timer = self.sched.schedule_after(SAMPLE_INTERVAL_S,
                                                       self._tick)

    def _tick(self) -> None:
        self._emit_sample()
        self._sample_timer = self.sched.schedule_after(SAMPLE_INTERVAL_S,
                                                       self._tick)

    def _emit_sample(self) -> None:
        assert self._live is not None
        self.tracer.emit(TraceEventKind.SAMPLED, self.site, seq=self._samples,
                         gauges=sample_gauges(self._live(), self.sched))
        self._samples += 1

    async def wait(self) -> None:
        """Until ``done`` is set or the hard timeout expires."""
        try:
            await asyncio.wait_for(self.done.wait(), self.config.timeout_s)
        except asyncio.TimeoutError:
            self.timed_out = True

    def finish(self, endpoint: "StarNotifier | StarClient",
               executed_before: int = 0) -> bool:
        """Close the trace with its closing record; True iff completed.

        The closing record is one ``finished`` event, the process's last
        sample: ``endpoint``'s gauges, its ``document`` and
        ``timed_out``.  Its ``ops_executed`` adds ``executed_before``,
        the executions of a replica ``endpoint`` took over from (a
        promoted client's shell).  It is written last, so a process that
        dies mid-run leaves a trace without one -- which is what the
        driver reads as a process that did not finish.  The sink is
        unbound before its file closes: on a shared loop a retransmit or
        probe timer of this endpoint can still fire after the run
        returned.
        """
        if self._sigterm_installed:
            asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
        if self._sample_timer is not None:
            self.sched.cancel(self._sample_timer)
        gauges = sample_gauges(endpoint, self.sched)
        gauges["ops_executed"] += executed_before
        self.tracer.emit(TraceEventKind.FINISHED, self.site, seq=self._samples,
                         gauges={**gauges, "document": str(endpoint.document),
                                 "timed_out": self.timed_out})
        self.tracer.bind_sink(None)
        self._trace.close()
        return not self.timed_out


async def dial(
    config: ClusterConfig, endpoint: StarClient, port: int, center: int,
    listen_port: int,
) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open ``endpoint``'s spoke to the centre ``center`` listening on
    ``port``: connect (with backoff), introduce ourselves, attach."""
    reader, writer = await connect_with_backoff(config.host, port,
                                                seed=endpoint.pid)
    writer.write(frame(encode_hello(endpoint.pid, listen_port)))
    await writer.drain()
    endpoint.attach_channel(
        center, WireChannel(endpoint.sim, endpoint.pid, center, writer),
    )
    return reader, writer


def read_trace(out_dir: Path, site: int) -> list[TraceEvent]:
    """One process's trace (raises if the process left no readable one).

    Read leniently: a process killed while writing leaves at most one
    torn trailing line, and whatever it did record is still evidence
    the driver should merge rather than discard.
    """
    with trace_path(out_dir, site).open() as fh:
        return read_jsonl(fh, lenient=True)[1]


def closing_records(
    traces: Mapping[int, Sequence[TraceEvent]],
) -> dict[int, tuple[str, int, bool]]:
    """Each finished process's end state, from its trace's closing
    ``finished`` record: ``(document, executed ops, timed_out)`` by site.

    ``traces`` maps a site to its process's trace.  A trace without a
    closing record is a process that did not finish, and is left out;
    one with two, one closed by another site, or one whose record lacks
    a field of the end state is a ``TraceAnalysisError``.
    """
    ends: dict[int, tuple[str, int, bool]] = {}
    for site, events in traces.items():
        closing = [e for e in events if e.kind is TraceEventKind.FINISHED]
        if not closing:
            continue
        if len(closing) > 1:
            raise TraceAnalysisError(
                f"the trace of site {site} has {len(closing)} closing records")
        end = closing[0]
        if end.site != site:
            raise TraceAnalysisError(
                f"the trace of site {site} is closed by site {end.site}")
        gauges = end.gauges or {}
        state = (gauges.get("document"), gauges.get("ops_executed"),
                 gauges.get("timed_out"))
        if not (isinstance(state[0], str) and type(state[1]) is int
                and isinstance(state[2], bool)):
            raise TraceAnalysisError(
                f"the closing record of site {site} lacks a document, an "
                "executed count or timed_out")
        ends[site] = state
    return ends


def add_common_args(parser: Any) -> None:
    """Attach the cluster flags to an argparse parser (``--out`` is the caller's)."""
    for name, flag, kind, help_text in _FLAGS:
        default = _FLAG_DEFAULTS[name]
        if kind is bool:
            parser.add_argument(flag, dest=name, action="store_const",
                                const=not default, default=default, help=help_text)
        else:
            parser.add_argument(flag, dest=name, type=kind, default=default,
                                help=help_text)


def config_from_args(args: Any) -> ClusterConfig:
    return ClusterConfig(**{name: getattr(args, name) for name, *_ in _FLAGS})
