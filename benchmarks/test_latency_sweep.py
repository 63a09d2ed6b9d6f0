"""CLAIM-LAT: propagation latency -- the cost side of the star trade.

The paper adopts the star for Web-applet security and timestamp
compression; the honest price is an extra network hop: an operation
reaches a remote replica after ~2L (client->notifier->client) instead of
~L on a direct mesh edge.  This sweep measures, in virtual time, the
mean and worst generation-to-everywhere-executed latency for identical
workloads under both architectures across channel latencies.

Shape assertions: star op latency ~= 2x mesh at every L; both scale
linearly in L; convergence is unaffected.  Together with CLAIM-OVH this
quantifies the full trade-off the paper's design accepts.
"""

import random

from conftest import emit

from repro.editor.mesh import MeshSession
from repro.editor.star import StarSession
from repro.net.channel import FixedLatency
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_mesh_session,
    drive_star_session,
)

N_SITES = 4
OPS = 4


def measure_star(latency: float, seed: int = 0):
    config = RandomSessionConfig(n_sites=N_SITES, ops_per_site=OPS, seed=seed)
    session = StarSession(
        N_SITES,
        initial_state=config.initial_document,
        latency_factory=lambda s, d: FixedLatency(latency),
        record_checks=False,
    )
    drive_star_session(session, config)
    generated_at: dict[str, float] = {}
    completed_at: dict[str, float] = {}

    for client in session.clients:
        orig = client.generate

        def gen(op, _orig=orig, _c=client):
            assigned = _orig(op)
            generated_at[assigned] = _c.sim.now
            return assigned

        client.generate = gen  # type: ignore[method-assign]
    # completion: when the transformed form has executed at every replica
    # (observed at delivery: the history buffers forget acknowledged entries)
    for (_, dest), channel in session.topology.channels.items():
        if dest == 0:
            continue
        deliver = channel.on_deliver

        def delivered(envelope, _deliver=deliver, _c=session.client(dest)):
            _deliver(envelope)
            original = _c.executed_op_ids[-1].rstrip("'")  # no name on the wire
            completed_at[original] = session.sim.now  # virtual time only grows

        channel.on_deliver = delivered
    session.run()
    assert session.converged()
    latencies = [completed_at[op] - generated_at[op] for op in generated_at]
    return sum(latencies) / len(latencies), max(latencies)


def measure_mesh(latency: float, seed: int = 0):
    config = RandomSessionConfig(n_sites=N_SITES, ops_per_site=OPS, seed=seed)
    session = MeshSession(
        N_SITES,
        initial_document=config.initial_document,
        latency_factory=lambda s, d: FixedLatency(latency),
    )
    drive_mesh_session(session, config)
    generated_at: dict[str, float] = {}
    completed_at: dict[str, float] = {}
    for site in session.sites:
        orig = site.generate

        def gen(op, _orig=orig, _s=site):
            record = _orig(op)
            generated_at[record.op_id] = _s.sim.now
            return record

        site.generate = gen  # type: ignore[method-assign]

        orig_integrate = site._integrate

        def integrate(record, _orig=orig_integrate, _s=site):
            _orig(record)
            completed_at[record.op_id] = max(
                completed_at.get(record.op_id, 0.0), _s.sim.now
            )

        site._integrate = integrate  # type: ignore[method-assign]
    session.run()
    assert session.converged()
    latencies = [completed_at[op] - generated_at[op] for op in generated_at]
    return sum(latencies) / len(latencies), max(latencies)


def test_latency_sweep(benchmark):
    def sweep():
        rows = []
        for latency in (0.02, 0.05, 0.1, 0.2):
            rows.append((latency, measure_star(latency), measure_mesh(latency)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["chan L (s) | star mean / max (s) | mesh mean / max (s) | ratio"]
    for latency, (s_mean, s_max), (m_mean, m_max) in rows:
        lines.append(
            f"{latency:>10.2f} | {s_mean:>8.3f} / {s_max:<6.3f} | "
            f"{m_mean:>8.3f} / {m_max:<6.3f} | {s_mean / m_mean:>5.2f}x"
        )
        # the star pays roughly one extra hop
        assert 1.5 <= s_mean / m_mean <= 2.6
        # and both are linear in L: mean close to hop-count * L
        assert abs(s_mean - 2 * latency) < latency
        assert abs(m_mean - latency) < latency
    emit(
        "CLAIM-LAT: generation-to-everywhere latency (virtual time)",
        "\n".join(
            lines
            + [
                "",
                "the star's ~2x hop latency is the price of the constant",
                "2-integer timestamps and the Web-applet deployment model.",
            ]
        ),
    )
