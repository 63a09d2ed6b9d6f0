"""CLAIM-SCALE: "allows an arbitrary number of users to participate".

Benchmarks the star editor's end-to-end throughput as the number of
collaborating sites grows, and the notifier's per-operation processing
pipeline (concurrency pass + transformation + timestamp compression +
broadcast) in isolation.  The claim's shape: per-operation notifier cost
grows only with the broadcast fan-out (linear, dominated by message
creation), never with an N-sized timestamp on the wire.
"""

import random

import pytest
from conftest import emit

from repro.editor.star import StarSession
from repro.net.channel import FixedLatency
from repro.workloads.random_session import RandomSessionConfig, drive_star_session


def run_session(n_sites, ops_per_site=3, seed=7):
    config = RandomSessionConfig(n_sites=n_sites, ops_per_site=ops_per_site, seed=seed)
    session = StarSession(
        n_sites,
        initial_state=config.initial_document,
        latency_factory=lambda s, d: FixedLatency(0.05),
        record_events=False,
        record_checks=False,
    )
    drive_star_session(session, config)
    session.run()
    assert session.converged()
    return session


@pytest.mark.parametrize("n_sites", [4, 16, 64])
def test_session_throughput(benchmark, n_sites):
    session = benchmark(run_session, n_sites)
    stats = session.wire_stats()
    # constant timestamps at any scale
    assert stats.timestamp_bytes == 8 * stats.messages


def test_notifier_pipeline(benchmark):
    """Per-op notifier cost with a warm 64-client session."""
    from repro.core.timestamp import CompressedTimestamp
    from repro.editor.messages import OpMessage
    from repro.net.transport import Envelope
    from repro.ot.operations import Insert

    session = run_session(64, ops_per_site=2)
    notifier = session.notifier
    client = session.client(1)
    seq = [client.sv.generated_locally]

    def one_op():
        seq[0] += 1
        message = OpMessage(
            op=Insert("x", 0),
            timestamp=CompressedTimestamp(client.sv.received_from_center, seq[0]),
            origin_site=1,
        )
        notifier.on_message(Envelope(source=1, dest=0, payload=message))

    benchmark(one_op)
    emit(
        "CLAIM-SCALE: notifier pipeline",
        "64 clients, constant 8-byte timestamps on every broadcast",
    )
