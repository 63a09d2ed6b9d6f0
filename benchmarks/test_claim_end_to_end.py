"""CLAIM-E2E: the star/CVC architecture vs the mesh/full-VC baseline.

Runs the *same* per-site editing workload through both architectures and
compares total wire traffic, timestamp traffic and convergence.  This is
the deployment decision the paper's Web-based REDUCE embodies: the star
pays an extra network hop and broadcast fan-out at one server, but every
message carries a constant 8-byte timestamp, while the mesh pays
``4 * N`` timestamp bytes on each of its ``N - 1`` per-op unicasts.

Shape assertions: identical workloads converge on both; mesh timestamp
bytes grow ~linearly with N while star timestamp bytes stay constant per
message; per-op timestamp traffic crosses over in the star's favour.
"""

import random

from conftest import emit

from repro.editor.mesh import MeshSession
from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_mesh_session,
    drive_star_session,
)

OPS_PER_SITE = 4


def latencies(seed):
    def factory(src, dst):
        return UniformLatency(0.02, 0.6, random.Random(seed * 13 + src * 5 + dst))

    return factory


def run_star(n_sites, seed=0):
    config = RandomSessionConfig(n_sites=n_sites, ops_per_site=OPS_PER_SITE, seed=seed)
    session = StarSession(
        n_sites,
        initial_state=config.initial_document,
        latency_factory=latencies(seed),
        record_checks=False,
    )
    drive_star_session(session, config)
    session.run()
    assert session.converged()
    return session


def run_mesh(n_sites, seed=0):
    config = RandomSessionConfig(n_sites=n_sites, ops_per_site=OPS_PER_SITE, seed=seed)
    session = MeshSession(
        n_sites,
        initial_document=config.initial_document,
        latency_factory=latencies(seed),
    )
    drive_mesh_session(session, config)
    session.run()
    assert session.converged()
    return session


def test_star_session_end_to_end(benchmark):
    session = benchmark(run_star, 8)
    stats = session.wire_stats()
    assert stats.timestamp_bytes == 8 * stats.messages


def test_mesh_session_end_to_end(benchmark):
    session = benchmark(run_mesh, 8)
    stats = session.wire_stats()
    assert stats.timestamp_bytes == 8 * 4 * stats.messages  # 4B * N=8


def test_architecture_comparison_table(benchmark):
    def sweep():
        rows = []
        for n in (2, 4, 8, 12):
            star = run_star(n).wire_stats()
            mesh = run_mesh(n).wire_stats()
            rows.append((n, star, mesh))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    total_ops = OPS_PER_SITE
    lines = [
        "     N | arch | messages | ts bytes | ts B/op | total bytes",
    ]
    for n, star, mesh in rows:
        ops = n * total_ops
        lines.append(
            f"{n:>6} | star | {star.messages:>8} | {star.timestamp_bytes:>8} | "
            f"{star.timestamp_bytes / ops:>7.1f} | {star.total_bytes:>11}"
        )
        lines.append(
            f"{n:>6} | mesh | {mesh.messages:>8} | {mesh.timestamp_bytes:>8} | "
            f"{mesh.timestamp_bytes / ops:>7.1f} | {mesh.total_bytes:>11}"
        )
    emit("CLAIM-E2E: star+CVC vs mesh+fullVC, same workload", "\n".join(lines))

    for n, star, mesh in rows:
        ops = n * total_ops
        # star: each op crosses the wire n times (1 up + n-1 down), mesh n-1
        assert star.messages == ops * n
        assert mesh.messages == ops * (n - 1)
        # per-message timestamp: constant vs linear in N
        assert star.timestamp_bytes / star.messages == 8
        assert mesh.timestamp_bytes / mesh.messages == 4 * n
    # crossover: despite the extra hop, star timestamp traffic per op is
    # 8*n vs mesh 4*n*(n-1); star wins for all n >= 3
    for n, star, mesh in rows:
        if n >= 3:
            assert star.timestamp_bytes < mesh.timestamp_bytes
