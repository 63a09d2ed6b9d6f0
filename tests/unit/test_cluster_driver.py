"""Unit tests for the cluster driver's directory handling and trace
gathering (repro.cluster.driver) and the flag table every cluster
process is configured through (repro.cluster.harness); the spawning
paths are covered end to end in tests/integration/test_cluster.py, and
here, over a fake ``Popen``, only the notifier pipe's lifetime."""

import argparse
import dataclasses
import io
import json
import subprocess

import pytest
from hypothesis import given, strategies as st

from repro.cli import build_parser
from repro.cluster import ClusterConfig, driver, run_cluster
from repro.cluster.harness import config_from_args, read_trace, trace_path
from repro.obs.tracer import TraceEvent, TraceEventKind, trace_header


def _closed_trace(site: int, promoted: bool = False) -> str:
    """A finished process's trace: a header and its closing record, and
    with ``promoted`` the event that makes its run a failover run."""
    events = [TraceEvent(index=0, kind=TraceEventKind.PROMOTED, time=0.5,
                         site=site, epoch=1)] if promoted else []
    events.append(TraceEvent(index=len(events), kind=TraceEventKind.FINISHED,
                             time=1.0, site=site, seq=0,
                             gauges={"ops_executed": 3, "document": "stale",
                                     "timed_out": False}))
    return "".join([json.dumps(trace_header({"site": site})) + "\n",
                    *(event.to_json() + "\n" for event in events)])


def test_reused_out_dir_is_cleared_of_an_earlier_runs_artifacts(tmp_path, monkeypatch):
    """A stale ``trace_0.jsonl`` with its closing record must not survive
    into a run whose notifier dies by design (it would be read as that
    run's end state); files the driver does not write are left alone,
    the result files, telemetry streams and flight recordings earlier
    versions wrote among them."""
    stale = ["trace_0.jsonl", "monitor.jsonl"]
    kept = ["notes.txt", "site_0.json", "site_3.json", "trace.jsonl",
            "flight_1.jsonl", "telemetry_2.jsonl"]
    for name in stale[1:] + kept:
        (tmp_path / name).write_text("{}")
    (tmp_path / "trace_0.jsonl").write_text(_closed_trace(0))
    assert read_trace(tmp_path, 0)[-1].kind is TraceEventKind.FINISHED
    seen_at_spawn = []

    def spawn(config, out_dir):
        seen_at_spawn.extend(sorted(p.name for p in out_dir.iterdir()))
        raise driver.ClusterError("stop before spawning anything")

    monkeypatch.setattr(driver, "_spawn_notifier", spawn)
    with pytest.raises(driver.ClusterError, match="stop before spawning"):
        run_cluster(ClusterConfig(clients=3), tmp_path)
    assert seen_at_spawn == sorted(kept)


class _Pipe(io.StringIO):
    """A notifier's stdout that notes whether it was closed while the
    process still ran."""

    def __init__(self, text, owner):
        super().__init__(text)
        self.owner = owner
        self.closed_while_running = False

    def close(self):
        if not self.closed:
            self.closed_while_running = self.owner.returncode is None
        super().close()


def test_every_notifier_pipe_is_closed_once_its_process_is_reaped(tmp_path, monkeypatch):
    """The notifier's stdout is read for its port and closed after the
    process is reaped (it prints ``SERVED ...`` on the way out), on the
    retry path and the normal one alike; clients get no pipe."""
    announcements = ["bind failed\n", "LISTENING 4321\n"]
    spawned = []

    class FakeProcess:
        def __init__(self, args, stdout=None, text=None, env=None):
            self.returncode = None
            self.stdout = (_Pipe(announcements.pop(0), self)
                           if stdout is subprocess.PIPE else None)
            spawned.append(self)

        def poll(self):
            return self.returncode

        def wait(self, timeout=None):
            if self.returncode is None:
                self.returncode = 0
            return self.returncode

        def kill(self):
            self.returncode = -9

        terminate = kill

    monkeypatch.setattr(driver.subprocess, "Popen", FakeProcess)
    # No process writes a trace, so the run ends when the traces are read.
    with pytest.raises(driver.ClusterError, match="did not finish"):
        run_cluster(ClusterConfig(clients=2), tmp_path)
    pipes = [proc.stdout for proc in spawned if proc.stdout is not None]
    assert len(spawned) == 4 and len(pipes) == 2 and not announcements
    assert all(pipe.closed and not pipe.closed_while_running for pipe in pipes)


# -- reading the traces ----------------------------------------------------------


def _plant(out_dir, sites, text_of) -> None:
    for site in range(sites):
        trace_path(out_dir, site).write_text(text_of(site))


def test_every_finished_process_is_gathered_with_its_trace(tmp_path):
    _plant(tmp_path, 3, _closed_trace)
    traces, notes = driver.gather_traces(tmp_path, 3)
    assert sorted(traces) == [0, 1, 2] and notes == []
    assert all(events[-1].site == site for site, events in traces.items())


UNFINISHED = {
    # how site 1's trace ends -> its text
    "killed": lambda: json.dumps(trace_header({"site": 1})) + "\n",
    "torn-closing-record": lambda: _closed_trace(1)[:-20],
    "no-trace": None,
}


@pytest.mark.parametrize("case", UNFINISHED)
def test_a_trace_without_a_closing_record_is_a_process_that_did_not_finish(
    tmp_path, case,
):
    """Killed, crashed or torn on its last line, whatever the site: the
    driver raises naming the traces it salvaged, in a failover run too."""
    for failover_run in (False, True):
        _plant(tmp_path, 3, lambda site: _closed_trace(site, promoted=(
            failover_run and site == 2)))
        if UNFINISHED[case] is None:
            trace_path(tmp_path, 1).unlink()
        else:
            trace_path(tmp_path, 1).write_text(UNFINISHED[case]())
        with pytest.raises(driver.ClusterError) as excinfo:
            driver.gather_traces(tmp_path, 3)
        message = str(excinfo.value)
        assert "site 1 did not finish" in message
        assert "salvaged: trace_0.jsonl" in message


def test_the_dead_centre_of_a_failover_run_is_the_one_exception(tmp_path):
    _plant(tmp_path, 3, _closed_trace)
    trace_path(tmp_path, 0).write_text(
        json.dumps(trace_header({"site": 0})) + "\n"
        + TraceEvent(index=0, kind=TraceEventKind.CRASHED, time=1.0, site=0,
                     epoch=0).to_json() + "\n")
    with pytest.raises(driver.ClusterError, match="site 0 did not finish"):
        driver.gather_traces(tmp_path, 3)
    # The run failed over iff a survivor's trace records its promotion.
    trace_path(tmp_path, 1).write_text(_closed_trace(1, promoted=True))
    traces, notes = driver.gather_traces(tmp_path, 3)
    assert [event.kind for event in traces[0]] == [TraceEventKind.CRASHED]
    assert len(notes) == 1 and "no closing record, as designed" in notes[0]


# -- the flag table --------------------------------------------------------------

PARSER = build_parser()
EXTRA_ARGS = {"serve": [], "client": ["--site", "1", "--port", "9"], "cluster": []}

seconds = st.floats(min_value=0.01, max_value=100.0)
FIELDS = dict(
    clients=st.integers(1, 8),
    ops_per_client=st.integers(1, 50),
    seed=st.integers(0, 2**31),
    time_scale=seconds,
    reliability=st.booleans(),
    host=st.sampled_from(["127.0.0.1", "localhost", "::1"]),
    settle_s=st.just(0.0) | seconds,
    timeout_s=seconds,
    crash_notifier_after_s=st.none() | seconds,
    failover=st.booleans(),
)


def test_the_round_trip_draws_every_field():
    assert set(FIELDS) == {f.name for f in dataclasses.fields(ClusterConfig)}


@given(config=st.builds(ClusterConfig, **FIELDS))
def test_every_config_survives_the_trip_through_its_own_flags(config):
    """What the driver spawns with is what each process reconstructs --
    for every field, on every sub-command that takes the table."""
    for command, extra in EXTRA_ARGS.items():
        args = PARSER.parse_args(
            [command, *config.to_args(), "--out", "x", *extra]
        )
        assert config_from_args(args) == config, command


def test_the_flag_sets_are_pinned():
    """A flag can neither vanish nor appear unnoticed."""
    subparsers = next(action for action in PARSER._actions
                      if isinstance(action, argparse._SubParsersAction))
    table = {
        "-h", "--help", "--out", "--clients", "--ops", "--seed", "--time-scale",
        "--host", "--settle", "--timeout", "--reliability",
        "--crash-notifier-after", "--no-failover",
    }
    # The seeded random session's, with the fault flags both share.
    random_session = {
        "-h", "--help", "--sites", "--ops", "--seed", "--insert-ratio",
        "--faults", "--drop", "--dup", "--crash", "--outage", "--crash-notifier",
    }
    expected = {
        "session": random_session | {"--arch", "--verify"},
        "trace": random_session | {"--out", "--diagram"},
        "serve": table,
        "client": table | {"--site", "--port"},
        "cluster": table | {"--quick"},
        # The run's size comes from the trace header, not a flag.
        "monitor": {"-h", "--help", "--dir", "--interval", "--duration", "--once",
                    "--artifact", "--follow", "--max-intervals"},
    }
    for command, flags in expected.items():
        assert set(subparsers.choices[command]._option_string_actions) == flags


def test_defaults_on_the_command_line_are_the_dataclass_defaults():
    for command, extra in EXTRA_ARGS.items():
        args = PARSER.parse_args([command, "--out", "x", *extra])
        assert config_from_args(args) == ClusterConfig(), command
