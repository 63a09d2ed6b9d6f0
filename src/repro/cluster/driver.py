"""The cluster driver: spawn, wait, gather, verify.

``python -m repro cluster --clients 3`` launches one notifier
subprocess and N client subprocesses (plain ``sys.executable -m repro
serve/client`` invocations, so the cluster exercises exactly what a
user would run by hand), waits for them to converge, then merges the
per-process traces and renders the verdicts of
:func:`repro.cluster.check.analyze_cluster`.

Flake resistance, because this runs as a CI gate: the notifier binds
port 0 (the kernel allocates, so concurrent runs never collide) and the
driver retries the spawn a few times if the notifier dies before
announcing its port (covering transient bind races on pathological
hosts); every subprocess carries its own hard timeout and closes its
trace with ``timed_out`` set instead of hanging; and the driver holds a
final kill-switch deadline above all of them.

The kill-switch is SIGTERM-first: each process installs a handler that
closes its trace with its closing record before exiting, rather than
vanishing under SIGKILL; every trace is already on disk, flushed per event.
Whatever traces and monitor artifact survive a failed run are
*salvaged* -- named in the failure report rather than discarded with
the temp directory.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import IO, Optional

import repro
from repro.cluster.check import ClusterReport, analyze_cluster
from repro.cluster.harness import ClusterConfig, read_trace
from repro.obs.tracer import TraceEvent, TraceEventKind

SPAWN_RETRIES = 3
PORT_ANNOUNCE_TIMEOUT_S = 15.0

#: Grace between the kill-switch SIGTERM and the follow-up SIGKILL:
#: long enough for the closing record, short enough that a truly wedged
#: process cannot stall the harness.
TERM_GRACE_S = 5.0


class ClusterError(RuntimeError):
    """The harness itself failed (spawn, port announcement, a process
    that did not finish)."""


def _subprocess_env() -> dict[str, str]:
    """The child environment, with this repro importable on PYTHONPATH."""
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


def _read_port(stdout: IO[str], deadline_s: float) -> Optional[int]:
    """Parse ``LISTENING <port>`` off the pipe; every wait obeys ``deadline_s``."""
    end = time.monotonic() + deadline_s
    line = b""
    with selectors.DefaultSelector() as selector:
        selector.register(stdout, selectors.EVENT_READ)
        while not line.endswith(b"\n"):
            remaining = end - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                return None
            line += os.read(stdout.fileno(), 1) or b"\n"  # EOF ends the line
    parts = line.split()
    if len(parts) == 2 and parts[0] == b"LISTENING" and parts[1].isdigit():
        return int(parts[1])
    return None


def _spawn_notifier(
    config: ClusterConfig, out_dir: Path
) -> tuple[subprocess.Popen[str], int]:
    """Start the serve subprocess; returns it with its announced port."""
    last_failure = "never announced a port"
    for _attempt in range(SPAWN_RETRIES):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             *config.to_args(), "--out", str(out_dir)],
            stdout=subprocess.PIPE,
            text=True,
            env=_subprocess_env(),
        )
        assert proc.stdout is not None
        port = _read_port(proc.stdout, PORT_ANNOUNCE_TIMEOUT_S)
        if port is not None:
            return proc, port
        # Bind race or early crash: reap and retry with a fresh socket.
        proc.kill()
        proc.wait()
        proc.stdout.close()
        last_failure = f"exited with code {proc.returncode}"
    raise ClusterError(
        f"notifier failed to announce a port after {SPAWN_RETRIES} attempts "
        f"({last_failure})"
    )


def _kill_switch(proc: "subprocess.Popen[str]") -> None:
    """Terminate gently, then firmly: SIGTERM (so the process can close
    its trace), a bounded grace, SIGKILL."""
    proc.terminate()
    try:
        proc.wait(timeout=TERM_GRACE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


#: The file families a run leaves in its directory: each process's one
#: stream, its trace, and the monitor's artifact -- what a failed run is
#: salvaged from, and what a reused directory must be cleared of.
RUN_PATTERNS = ("trace_*.jsonl", "monitor.jsonl")


def salvage_artifacts(out_dir: Path) -> list[str]:
    """The files a failed run left behind, by name.

    Traces are crash-safe (flushed per event), so even a run whose
    processes never closed their traces leaves evidence here.
    """
    names = []
    for pattern in RUN_PATTERNS:
        names.extend(p.name for p in sorted(out_dir.glob(pattern)))
    return names


def clear_stale_artifacts(out_dir: Path) -> None:
    """Remove what an earlier run left in a reused ``out_dir``.

    A process that dies by design closes no trace, so a stale one
    would be read in its place: an old ``trace_0.jsonl`` with its
    closing record beside a failover run's traces reports
    ``converged: False``.  Only the families a run itself writes go;
    anything else in the directory is the caller's.
    """
    for pattern in RUN_PATTERNS:
        for path in out_dir.glob(pattern):
            path.unlink()


def gather_traces(
    out_dir: Path, sites: int,
) -> tuple[dict[int, list[TraceEvent]], list[str]]:
    """The trace of every site ``0..sites-1``, by site, and notes on
    what is missing.

    A process's end state is its trace's closing record; a trace without
    one -- the process was killed, crashed, or left a torn last line --
    is a process that did not finish, a :class:`ClusterError` naming the
    traces salvaged.  In a failover run -- some trace records
    ``promoted`` -- the crashed notifier *by design* has none, but its
    trace still goes into the merge (the pre-crash generation events
    anchor happens-before across the epoch boundary).
    """
    notes: list[str] = []
    traces: dict[int, list[TraceEvent]] = {}
    for site in range(sites):
        try:
            traces[site] = read_trace(out_dir, site)
        except (OSError, ValueError):
            traces[site] = []
    failover_run = any(event.kind is TraceEventKind.PROMOTED
                       for events in traces.values() for event in events)
    for site, events in traces.items():
        if any(event.kind is TraceEventKind.FINISHED for event in events):
            continue
        if site == 0 and failover_run:
            notes.append(
                "site 0 was crashed by fault injection and the cluster "
                f"failed over live; merged {len(events)} streamed trace "
                "events from the dead centre (no closing record, as "
                "designed)"
            )
            continue
        salvaged = salvage_artifacts(out_dir)
        raise ClusterError(
            f"process for site {site} did not finish: its trace in "
            f"{out_dir} has no closing record"
            + (f"; salvaged: {', '.join(salvaged)}" if salvaged else "")
        )
    return traces, notes


def run_cluster(
    config: ClusterConfig,
    out_dir: Optional[Path] = None,
) -> ClusterReport:
    """Run one full cluster session; returns the merged verdicts.

    Artifacts land in ``out_dir`` (a temporary directory when ``None``,
    kept afterwards so a failing CI run leaves evidence behind).
    """
    if out_dir is None:
        out_dir = Path(tempfile.mkdtemp(prefix="repro_cluster_"))
    out_dir.mkdir(parents=True, exist_ok=True)
    clear_stale_artifacts(out_dir)
    started = time.monotonic()
    notifier_proc, port = _spawn_notifier(config, out_dir)
    client_procs: list[subprocess.Popen[str]] = []
    kill_switched: list[int] = []
    try:
        for site in range(1, config.clients + 1):
            client_procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "client",
                     *config.to_args(), "--out", str(out_dir),
                     "--site", str(site), "--port", str(port)],
                    env=_subprocess_env(),
                )
            )
        # Every subprocess self-limits with --timeout; the driver's own
        # deadline sits above them as the kill-switch of last resort.
        deadline = started + config.timeout_s + 15.0
        for site, proc in enumerate([notifier_proc, *client_procs]):
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                kill_switched.append(site)
                _kill_switch(proc)
    finally:
        for proc in [notifier_proc, *client_procs]:
            if proc.poll() is None:
                _kill_switch(proc)
        # Only now that it is reaped: the notifier prints its SERVED line
        # on the way out, which a pipe closed earlier would break.
        if notifier_proc.stdout is not None:
            notifier_proc.stdout.close()
    wall_s = time.monotonic() - started

    traces, notes = gather_traces(out_dir, config.clients + 1)
    report = analyze_cluster(
        traces,
        expected_ops=config.total_ops,
        wall_s=wall_s,
        notes=notes,
    )
    if kill_switched:
        salvaged = salvage_artifacts(out_dir)
        report.errors.append(
            f"driver kill-switch fired for site(s) {kill_switched}"
            + (f"; salvaged: {', '.join(salvaged)}" if salvaged else "")
        )
    return report
