"""Shared plumbing of the cluster processes: config, workload, results.

The driver, the notifier process and every client process must agree on
the workload (so the cluster replays the same seeded edit schedule the
simulator benchmarks use) and on the artifact format (so the driver can
merge what the processes wrote).  This module is that contract.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.reliability import ReliabilityConfig
from repro.net.scheduler import AsyncioScheduler
from repro.net.wire import WireChannel, connect_with_backoff, encode_hello, frame
from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    TELEMETRY_SCHEMA_VERSION,
    FlightRecorder,
    HealthEvent,
    TelemetryFrame,
    TelemetrySampler,
    snapshot_endpoint,
)
from repro.obs.tracer import (
    JsonlWriter,
    TraceEvent,
    Tracer,
    read_jsonl,
    trace_header,
)
from repro.session.base import CheckRecord
from repro.workloads.random_session import RandomSessionConfig

DEFAULT_DOCUMENT = "The quick brown fox jumps over the lazy dog."

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
    ("telemetry_interval_s", "--telemetry-interval", float,
     "seconds between live telemetry samples in every process (0 = off); "
     "streams land next to the other artifacts for ``repro monitor``"),
    ("crash_notifier_after_s", "--crash-notifier-after", float,
     "fault injection: hard-kill the notifier process this many seconds "
     "after every client has connected (it dumps its flight recorder first); "
     "with failover on, the surviving clients re-elect and the run "
     "still converges"),
    ("failover", "--no-failover", bool,
     "disable live failover: clients open no listening sockets and a "
     "notifier crash is terminal (flight recorders + salvage)"),
    ("degraded_limit", "--degraded-limit", int,
     "max local edits each client queues while the star is leaderless "
     "during failover (0 = drop them; default %(default)s)"),
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
    bound: on expiry it writes its artifacts with ``timed_out`` set
    rather than hanging the harness.
    """

    clients: int = 3
    ops_per_client: int = 5
    seed: int = 0
    time_scale: float = 0.05
    reliability: bool = False
    host: str = "127.0.0.1"
    settle_s: float = 0.3
    timeout_s: float = 30.0
    #: Wall seconds between telemetry samples; 0 disables telemetry.
    telemetry_interval_s: float = 0.0
    #: Fault injection: hard-kill the notifier process (after a
    #: flight-recorder dump) this many wall seconds after every client
    #: has connected -- counted from full connection, not process
    #: start, so the timing is deterministic relative to the workload.
    crash_notifier_after_s: Optional[float] = None
    #: Live failover: every client opens its own listening socket and a
    #: notifier crash triggers cluster-wide re-election instead of an
    #: early exit.  Off = the pre-failover behaviour (crash is terminal,
    #: flight recorders dumped, driver salvages).
    failover: bool = True
    #: Degraded-mode bound: local edits queued per client while the star
    #: is leaderless.  0 drops such edits (the simulator's semantics).
    degraded_limit: int = 64

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"need at least one client, got {self.clients}")
        if self.ops_per_client < 1:
            raise ValueError(f"need at least one op per client: {self.ops_per_client}")
        if self.time_scale <= 0 or self.timeout_s <= 0 or self.settle_s < 0:
            raise ValueError(f"malformed cluster timing: {self}")
        if self.telemetry_interval_s < 0:
            raise ValueError(
                f"telemetry interval must be >= 0: {self.telemetry_interval_s}"
            )
        if self.crash_notifier_after_s is not None and self.crash_notifier_after_s <= 0:
            raise ValueError(
                f"crash-notifier delay must be positive: {self.crash_notifier_after_s}"
            )
        if self.degraded_limit < 0:
            raise ValueError(
                f"degraded-mode queue bound must be >= 0: {self.degraded_limit}"
            )

    @property
    def telemetry_enabled(self) -> bool:
        return self.telemetry_interval_s > 0

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

    def reliability_config(self) -> Optional[ReliabilityConfig]:
        """The transport config every process must share (or ``None``)."""
        return ReliabilityConfig() if self.reliability else None

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


# -- per-process artifacts -----------------------------------------------------


@dataclass
class ProcessResult:
    """What one cluster process reports back to the driver."""

    role: str  # "notifier" or "client"
    site: int
    document: str
    executed_ops: int
    checks: list[CheckRecord] = field(default_factory=list)
    timed_out: bool = False
    lost_local_edits: int = 0
    retransmits: int = 0
    messages_sent: int = 0
    wire_bytes: int = 0

    def to_json(self) -> str:
        data = dataclasses.asdict(self)
        return json.dumps(data, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ProcessResult":
        data = json.loads(text)
        checks = [CheckRecord(**record) for record in data.pop("checks", [])]
        return cls(checks=checks, **data)


def result_path(out_dir: Path, site: int) -> Path:
    return out_dir / f"site_{site}.json"


def trace_path(out_dir: Path, site: int) -> Path:
    return out_dir / f"trace_{site}.jsonl"


def telemetry_path(out_dir: Path, site: int) -> Path:
    """The per-process live telemetry stream (frames + health events)."""
    return out_dir / f"telemetry_{site}.jsonl"


def flight_path(out_dir: Path, site: int) -> Path:
    """The per-process flight-recorder dump (written on crash/kill)."""
    return out_dir / f"flight_{site}.jsonl"


class ProcessRig:
    """What every cluster process is, whatever role it plays.

    The wall-clock scheduler; a tracer stamping Unix time (processes on
    one host share the machine clock, so absolute stamps give the driver
    a common axis to merge on -- :func:`repro.cluster.check.merge_traces`
    repairs any causality-violating skew) that streams to
    ``trace_<site>.jsonl`` from the first event; a flight recorder; the
    telemetry stream; the kill-switch and the timeout; the result
    artifact.  A process that dies by ``os._exit`` or SIGKILL writes no
    result, but every trace event and telemetry record it emitted is
    already on disk (:class:`~repro.obs.tracer.JsonlWriter` flushes per
    line) -- which is what keeps the merged-trace cross-check EXACT
    across a failover.
    """

    def __init__(self, config: ClusterConfig, out_dir: Path, site: int,
                 role: str) -> None:
        self.config = config
        self.out_dir = out_dir
        self.site = site
        self.role = role
        self.sched = AsyncioScheduler()
        self.tracer = Tracer()
        self.tracer.bind_clock(time.time)
        out_dir.mkdir(parents=True, exist_ok=True)
        self._trace = JsonlWriter(
            trace_path(out_dir, site),
            trace_header({"site": site, "role": role}),
        )
        self.tracer.bind_sink(self._trace.write_event)
        self.recorder = FlightRecorder(self.tracer)
        #: Set when the run is over, one way or the other.
        self.done = asyncio.Event()
        #: The run did not complete (timeout, kill-switch, terminal peer
        #: death): reported to the driver as ``timed_out``.
        self.timed_out = False
        self.telem: Optional[JsonlWriter] = None
        self._sampler: Optional[TelemetrySampler] = None
        self._sigterm_installed = True
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, self._on_sigterm)
        except (NotImplementedError, ValueError):  # pragma: no cover - non-Unix
            self._sigterm_installed = False

    def _on_sigterm(self) -> None:
        # The driver's kill-switch: record the evidence, then let the
        # normal shutdown path write whatever artifacts it still can.
        self.timed_out = True
        self.dump_flight("kill-switch")
        self.done.set()

    def dump_flight(self, reason: str) -> None:
        self.recorder.dump(flight_path(self.out_dir, self.site), reason=reason,
                           site=self.site, role=self.role)

    def start_telemetry(self, live: Callable[[], Any]) -> None:
        """Sample ``live()`` every telemetry interval (a no-op when off).

        The stream file is the only way a frame leaves this process.
        Every record is flushed as written, so ``repro monitor`` in
        another process sees frames *live* and a killed process leaves a
        readable prefix.  The header tells the monitor what the run is
        (``sites``, ``expected_ops``, ``interval_s``): enough to build
        the watchdogs that judge every site's stream.
        """
        if not self.config.telemetry_enabled:
            return
        stream = self.telem = JsonlWriter(telemetry_path(self.out_dir, self.site), {
            "format": TELEMETRY_FORMAT,
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "site": self.site,
            "role": self.role,
            "sites": self.config.clients + 1,
            "expected_ops": self.config.total_ops,
            "interval_s": self.config.telemetry_interval_s,
        })

        def probe(seq: int) -> list[TelemetryFrame]:
            return [snapshot_endpoint(live(), sched=self.sched, seq=seq,
                                      role=self.role)]

        self._sampler = TelemetrySampler(
            self.sched, probe,
            interval=self.config.telemetry_interval_s,
            on_frame=lambda tframe: stream.write_line(tframe.to_json()),
            keep=False,
        )
        self._sampler.start()

    def health(self, kind: str, detail: str, *, verdict: str = "warn",
               peer: Optional[int] = None) -> None:
        if self.telem is not None:
            self.telem.write_line(HealthEvent(
                time=self.sched.now, site=self.site, kind=kind, verdict=verdict,
                peer=peer, detail=detail,
            ).to_json())

    async def wait(self) -> None:
        """Until ``done`` is set or the hard timeout expires."""
        try:
            await asyncio.wait_for(self.done.wait(), self.config.timeout_s)
        except asyncio.TimeoutError:
            self.timed_out = True
            self.dump_flight("timeout")

    def close_streams(self) -> None:
        if self._sampler is not None:
            # One final sample so the stream's last frame carries the
            # final local stats (the monitor's per-site aggregate is
            # exact, not one interval stale).
            self._sampler.stop()
            self._sampler.sample()
        if self.telem is not None:
            self.telem.close()

    def result(self, endpoint: "StarNotifier | StarClient") -> ProcessResult:
        """Snapshot one endpoint's verdict-relevant state for the driver."""
        channels = endpoint.out_channels.values()
        return ProcessResult(
            role=self.role,
            site=self.site,
            document=str(endpoint.document),
            executed_ops=len(endpoint.executed_op_ids),
            checks=list(endpoint.checks),
            timed_out=self.timed_out,
            lost_local_edits=endpoint.transport.stats.lost_local_edits,
            retransmits=endpoint.transport.stats.retransmits,
            messages_sent=sum(ch.stats.messages for ch in channels),
            wire_bytes=sum(ch.stats.total_bytes for ch in channels),
        )

    def finish(self, result: ProcessResult) -> bool:
        """Write the result artifact, close the trace; True iff completed.

        The result is written once, at the end, so a crash mid-run
        leaves *no* file rather than a torn one -- the driver treats a
        missing result as a failed process.  The sink is unbound before
        its file closes: on a shared loop a retransmit or probe timer of
        this endpoint can still fire after the run returned.
        """
        if self._sigterm_installed:
            asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
        result_path(self.out_dir, self.site).write_text(result.to_json() + "\n")
        self.tracer.bind_sink(None)
        self._trace.close()
        return not result.timed_out


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


def read_artifacts(out_dir: Path, site: int) -> tuple[ProcessResult, list[TraceEvent]]:
    """Load one process's artifacts (raises if the process never wrote).

    The trace is read leniently: a process killed while writing leaves
    at most one torn trailing line, and whatever it did record is still
    evidence the driver should merge rather than discard.
    """
    result = ProcessResult.from_json(result_path(out_dir, site).read_text())
    with trace_path(out_dir, site).open() as fh:
        _header, events = read_jsonl(fh, lenient=True)
    return result, events


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
