"""Shared plumbing of the cluster processes: config, workload, results.

The driver, the notifier process and every client process must agree on
the workload (so the cluster replays the same seeded edit schedule the
simulator benchmarks use) and on the artifact format (so the driver can
merge what the processes wrote).  This module is that contract.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.editor.star_client import StarClient
from repro.editor.star_notifier import StarNotifier
from repro.net.reliability import ReliabilityConfig
from repro.obs.telemetry import TELEMETRY_FORMAT, TELEMETRY_SCHEMA_VERSION
from repro.obs.tracer import (
    JsonlWriter,
    TraceEvent,
    Tracer,
    read_jsonl,
    trace_header,
    write_jsonl,
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
    ("beacon_port", "--beacon-port", int,
     "UDP telemetry sideband: every process also fires its frames as "
     "datagrams at this port (pair with ``repro monitor --beacon-port``); "
     "needs --telemetry-interval"),
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
    #: UDP telemetry sideband: when set, every process fires each
    #: telemetry frame as a datagram at ``host:beacon_port`` (the
    #: monitor's fan-in socket) beside the TCP gossip, so the monitor
    #: keeps receiving frames through a notifier crash.  ``None``
    #: disables the sideband.  Only meaningful with telemetry on.
    beacon_port: Optional[int] = None

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
        if self.beacon_port is not None and not 0 < self.beacon_port < 65536:
            raise ValueError(f"beacon port out of range: {self.beacon_port}")

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


def wall_clock_tracer() -> Tracer:
    """A tracer stamping Unix time, comparable across same-host processes.

    Cluster processes share the machine clock, so absolute ``time.time``
    stamps give the driver a common axis to merge per-process traces on
    (the merge additionally repairs any causality-violating skew; see
    :func:`repro.cluster.check.merge_traces`).
    """
    import time

    tracer = Tracer(enabled=True)
    tracer.bind_clock(time.time)
    return tracer


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


def telemetry_writer(out_dir: Path, site: int, role: str) -> JsonlWriter:
    """Open the crash-safe telemetry stream for one process.

    Every record is flushed as it is written (see
    :class:`~repro.obs.tracer.JsonlWriter`), so ``repro monitor`` in
    another process sees frames *live* and a killed process still
    leaves a readable prefix.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    return JsonlWriter(telemetry_path(out_dir, site), {
        "format": TELEMETRY_FORMAT,
        "schema_version": TELEMETRY_SCHEMA_VERSION,
        "site": site,
        "role": role,
    })


def streaming_trace_writer(
    out_dir: Path, site: int, role: str, tracer: Tracer,
) -> JsonlWriter:
    """Persist ``tracer``'s events to disk incrementally, as emitted.

    The one-shot :func:`write_artifacts` path loses the whole trace when
    a process dies by ``os._exit`` (the injected notifier crash does
    exactly that) -- but the merged-trace cross-check needs the dead
    centre's generation events to keep happens-before EXACT across a
    failover.  Streaming through a flush-per-line
    :class:`~repro.obs.tracer.JsonlWriter` means every event emitted
    before the kill is already on disk.  Events emitted before the
    stream opened are back-filled first, then the tracer's sink is
    bound so later emissions append live.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    writer = JsonlWriter(
        trace_path(out_dir, site),
        trace_header({"site": site, "role": role}),
    )
    for event in tracer.events:
        writer.write_event(event)
    tracer.bind_sink(writer.write_event)
    return writer


def endpoint_result(
    role: str,
    endpoint: "StarNotifier | StarClient",
    *,
    timed_out: bool,
    messages_sent: int,
    wire_bytes: int,
) -> ProcessResult:
    """Snapshot one endpoint's verdict-relevant state for the driver."""
    return ProcessResult(
        role=role,
        site=endpoint.pid,
        document=str(endpoint.document),
        executed_ops=len(endpoint.executed_op_ids),
        checks=list(endpoint.checks),
        timed_out=timed_out,
        lost_local_edits=endpoint.transport.stats.lost_local_edits,
        retransmits=endpoint.transport.stats.retransmits,
        messages_sent=messages_sent,
        wire_bytes=wire_bytes,
    )


def write_artifacts(out_dir: Path, result: ProcessResult, tracer: Tracer,
                    *, trace_streamed: bool = False) -> None:
    """Write the process's result JSON and trace JSONL atomically enough.

    Artifacts are written once, at the end of the run, so a crash mid-run
    leaves *no* file rather than a torn one -- the driver treats a
    missing artifact as a failed process.  With ``trace_streamed`` the
    trace already lives on disk via :func:`streaming_trace_writer` and
    only the result JSON is written here.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if not trace_streamed:
        with trace_path(out_dir, result.site).open("w") as fh:
            write_jsonl(tracer.events, fh, header={"site": result.site,
                                                   "role": result.role})
    result_path(out_dir, result.site).write_text(result.to_json() + "\n")


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
