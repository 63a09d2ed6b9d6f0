"""Unit tests for the cluster driver's directory handling
(repro.cluster.driver); the spawning paths are covered end to end in
tests/integration/test_cluster.py."""

import pytest

from repro.cluster import ClusterConfig, driver, run_cluster


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
