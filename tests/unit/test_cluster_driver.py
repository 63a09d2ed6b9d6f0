"""Unit tests for the cluster driver's directory handling
(repro.cluster.driver) and the flag table every cluster process is
configured through (repro.cluster.harness); the spawning paths are
covered end to end in tests/integration/test_cluster.py."""

import argparse
import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.cli import build_parser
from repro.cluster import ClusterConfig, driver, run_cluster
from repro.cluster.harness import config_from_args


def test_reused_out_dir_is_cleared_of_an_earlier_runs_artifacts(tmp_path, monkeypatch):
    """A stale ``site_0.json`` must not survive into a run whose notifier
    dies by design (it would be read as that run's result); files the
    driver does not write are left alone."""
    stale = ["site_0.json", "site_3.json", "trace_0.jsonl", "telemetry_2.jsonl",
             "flight_1.jsonl", "monitor.jsonl"]
    kept = ["notes.txt", "site_0.json.bak", "trace.jsonl"]
    for name in stale + kept:
        (tmp_path / name).write_text("{}")
    seen_at_spawn = []

    def spawn(config, out_dir):
        seen_at_spawn.extend(sorted(p.name for p in out_dir.iterdir()))
        raise driver.ClusterError("stop before spawning anything")

    monkeypatch.setattr(driver, "_spawn_notifier", spawn)
    with pytest.raises(driver.ClusterError, match="stop before spawning"):
        run_cluster(ClusterConfig(clients=3), tmp_path)
    assert seen_at_spawn == sorted(kept)


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
    telemetry_interval_s=st.just(0.0) | seconds,
    crash_notifier_after_s=st.none() | seconds,
    failover=st.booleans(),
    degraded_limit=st.integers(0, 1000),
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
        "--telemetry-interval", "--crash-notifier-after", "--no-failover",
        "--degraded-limit",
    }
    expected = {
        "serve": table,
        "client": table | {"--site", "--port"},
        "cluster": table | {"--quick"},
        # The run's size comes from the stream header, not a flag.
        "monitor": {"-h", "--help", "--dir", "--interval", "--duration", "--once",
                    "--artifact", "--follow", "--max-intervals"},
    }
    for command, flags in expected.items():
        assert set(subparsers.choices[command]._option_string_actions) == flags


def test_defaults_on_the_command_line_are_the_dataclass_defaults():
    for command, extra in EXTRA_ARGS.items():
        args = PARSER.parse_args([command, "--out", "x", *extra])
        assert config_from_args(args) == ClusterConfig(), command
