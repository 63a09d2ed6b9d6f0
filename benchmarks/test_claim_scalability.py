"""CLAIM-SCALE: "allows an arbitrary number of users to participate".

Benchmarks the star editor's end-to-end throughput as the number of
collaborating sites grows, what one broadcast copy costs at N = 16, 64
and 256 (Python calls, collector passes and wall time per copy), and the
notifier's per-operation processing pipeline (concurrency pass +
transformation + timestamp compression + broadcast) in isolation.  The
claim's shape: per-operation notifier cost grows only with the broadcast
fan-out (linear, dominated by message creation), never with an N-sized
timestamp on the wire, so a copy costs the same at any N.
"""

import functools
import gc
import sys
from time import perf_counter

import pytest
from conftest import emit

from repro.editor.star import StarSession
from repro.net.channel import FixedLatency
from repro.workloads.random_session import RandomSessionConfig, drive_star_session


def driven_session(n_sites, ops_per_site=3, seed=7):
    """A fast-path session with its edits scheduled, not yet run."""
    config = RandomSessionConfig(n_sites=n_sites, ops_per_site=ops_per_site, seed=seed)
    session = StarSession(
        n_sites,
        initial_state=config.initial_document,
        latency_factory=lambda s, d: FixedLatency(0.05),
        record_events=False,
        record_checks=False,
    )
    drive_star_session(session, config)
    return session


def run_session(n_sites, ops_per_site=3, seed=7):
    session = driven_session(n_sites, ops_per_site, seed)
    session.run()
    assert session.converged()
    return session


@pytest.mark.parametrize("n_sites", [4, 16, 64])
def test_session_throughput(benchmark, n_sites):
    session = benchmark(run_session, n_sites)
    stats = session.wire_stats()
    # constant timestamps at any scale
    assert stats.timestamp_bytes == 8 * stats.messages


@functools.lru_cache(maxsize=None)
def cost_per_copy(n_sites):
    """(copies, Python calls, gen-0/1/2 collections per 10^4 copies, µs)
    per broadcast copy of a 4-ops-per-site session, seed 7.

    Two runs of the same session: one timed with the collector's counts
    around it, one counted under ``sys.setprofile`` (every Python-level
    call, the whole pipeline a copy goes through: notifier, channel,
    scheduler, client).
    """
    session = driven_session(n_sites, ops_per_site=4)
    before = [stat["collections"] for stat in gc.get_stats()]
    started = perf_counter()
    session.sim.run()
    wall_s = perf_counter() - started
    after = [stat["collections"] for stat in gc.get_stats()]
    assert session.converged()
    copies = len(session.notifier.executed_op_ids) * (n_sites - 1)
    assert copies == 4 * n_sites * (n_sites - 1)

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    session = driven_session(n_sites, ops_per_site=4)
    sys.setprofile(count)
    try:
        session.sim.run()
    finally:
        sys.setprofile(None)
    collections = tuple(1e4 * (b - a) / copies for a, b in zip(before, after))
    return copies, calls / copies, collections, 1e6 * wall_s / copies


@pytest.mark.parametrize("n_sites", [16, 64, 256])
def test_cost_per_copy(n_sites):
    """Counted work per copy does not grow with N (the paper's claim);
    wall per copy is reported beside it, with the collector passes that
    the objects in flight cost."""
    copies, calls, (gen0, gen1, gen2), us = cost_per_copy(n_sites)
    emit(
        f"CLAIM-SCALE: cost per copy at N = {n_sites}",
        f"{copies} copies: {calls:.1f} Python calls per copy, gen-0/1/2 "
        f"collections per 10^4 copies {gen0:.1f}/{gen1:.1f}/{gen2:.1f}, "
        f"{us:.1f} us per copy",
    )
    assert calls <= cost_per_copy(16)[1]


def test_notifier_pipeline(benchmark):
    """Per-op notifier cost with a warm 64-client session."""
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
            first=client.sv.received_from_center, second=seq[0],
            origin_site=1,
        )
        notifier.on_message(Envelope(source=1, dest=0, payload=message))

    benchmark(one_op)
    emit(
        "CLAIM-SCALE: notifier pipeline",
        "64 clients, constant 8-byte timestamps on every broadcast",
    )
