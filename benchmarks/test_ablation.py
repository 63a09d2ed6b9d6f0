"""Ablation studies for the design choices DESIGN.md calls out.

ABL-1  Transformation at the notifier is what makes 2 elements enough.
       Paper Section 6: "If the notifier propagates operations as-is
       (i.e., without transformation), the causality relationships among
       these operations would still remain N-dimensional and have to be
       timestamped by N-element vector clocks."  We measure it: with
       transformation off, compressed verdicts (which treat relayed
       operations as site-0 operations) contradict the full-vector
       ground truth over the *original* operations; with transformation
       on, they never do.

ABL-2  History retention: HB length at peak and at quiescence when the
       arrivals prune at the acknowledgement horizon (every session
       without the oracle) vs the oracle session, which keeps it all.

ABL-3  Batching: composing keystroke bursts into one positional
       operation before propagation vs sending every keystroke.
"""

import random

from conftest import emit

from repro.analysis.causality import CausalityOracle
from repro.editor.star import StarSession
from repro.net.channel import UniformLatency
from repro.ot.operations import Identity, Insert, compose
from repro.workloads.random_session import RandomSessionConfig, drive_star_session


def latencies(seed):
    def factory(src, dst):
        return UniformLatency(0.05, 1.2, random.Random(seed * 7 + src * 3 + dst))

    return factory


def original_id(op_id: str) -> str:
    return op_id.rstrip("'")


def count_verdict_mismatches(session: StarSession) -> tuple[int, int]:
    """Compare every client-side verdict against the ground truth over
    the ORIGINAL operations (what matters when operations are relayed
    as-is).  Returns (mismatches, total checks)."""
    oracle = CausalityOracle(session.event_log)
    mismatches = 0
    total = 0
    for record in session.all_checks():
        a = original_id(record.new_op_id)
        b = original_id(record.buffered_op_id)
        if a == b:
            continue
        total += 1
        if oracle.concurrent(a, b) != record.verdict:
            mismatches += 1
    return mismatches, total


def run_session(transform: bool, seed: int) -> StarSession:
    config = RandomSessionConfig(n_sites=4, ops_per_site=5, seed=seed)
    session = StarSession(
        4,
        initial_state=config.initial_document,
        latency_factory=latencies(seed),
        transform_enabled=transform,
        # with transformation ON, every verdict is checked inline against
        # full vector clocks over the REDEFINED operations -- any mismatch
        # raises ConsistencyError and fails this ablation
        verify_with_oracle=transform,
        record_checks=True,  # count_verdict_mismatches reads the records
    )
    drive_star_session(session, config)
    session.run()
    return session


def test_abl1_transformation_collapses_causality(benchmark):
    """Without redefinition the 2-element verdicts are wrong; with it
    they are exact (for the redefined operations) and the system
    converges.  The causality relation itself is what transformation
    changes -- that is the paper's central observation."""

    def measure():
        rows = []
        for seed in range(6):
            with_t = run_session(True, seed)  # raises on any oracle mismatch
            without_t = run_session(False, seed)
            rows.append(
                (
                    seed,
                    count_verdict_mismatches(without_t),
                    with_t.converged(),
                    without_t.converged(),
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        "seed | as-is: wrong verdicts | transformed: wrong verdicts | converged on/off"
    ]
    total_off = 0
    for seed, (miss_off, tot_off), conv_on, conv_off in rows:
        lines.append(
            f"{seed:>4} | {miss_off:>9} / {tot_off:<9} | "
            f"{'0 (oracle-verified)':>27} | {conv_on} / {conv_off}"
        )
        total_off += miss_off
        assert conv_on
        assert not conv_off  # as-is relaying also diverges
    emit(
        "ABL-1: 2-element verdicts vs full-vector ground truth",
        "\n".join(
            lines
            + [
                "",
                "as-is: verdicts compared to causality among ORIGINAL operations",
                "transformed: verdicts verified inline against causality among",
                "REDEFINED operations (ConsistencyError on any mismatch).",
            ]
        ),
    )
    # as-is relaying produces genuinely wrong concurrency verdicts
    assert total_off > 0


def test_abl2_history_retention(benchmark):
    def run(oracle: bool):
        config = RandomSessionConfig(n_sites=4, ops_per_site=25, seed=0)
        session = StarSession(
            4,
            initial_state=config.initial_document,
            latency_factory=latencies(0),
            verify_with_oracle=oracle,
            record_checks=True,  # only a diagnostic session keeps a history
        )
        drive_star_session(session, config)
        peak_notifier = peak_clients = 0
        while session.sim.step():
            peak_notifier = max(peak_notifier, len(session.notifier.hb))
            peak_clients = max(peak_clients, *(len(c.hb) for c in session.clients))
        assert session.converged()
        final_clients = max(len(c.hb) for c in session.clients)
        return peak_notifier, peak_clients, len(session.notifier.hb), final_clients

    pruned = benchmark.pedantic(run, args=(False,), rounds=1, iterations=1)
    retained = run(True)
    emit(
        "ABL-2: history-buffer length (notifier peak, max client peak, "
        "notifier at quiescence, max client at quiescence)",
        f"pruned at the ack horizon: {pruned}\noracle, keeps everything : {retained}",
    )
    assert all(p < r for p, r in zip(pruned, retained))
    assert retained[0] == retained[2] == 100  # every op retained
    assert retained[1] == retained[3] == 100


def test_abl3_batching(benchmark):
    """Composing a burst client-side cuts messages by the burst length."""

    def run(batch: bool):
        session = StarSession(
            2,
            ot_type_name="text-positional",
            initial_state="",
            record_events=False,
        )
        text = "hello world, this is a burst"
        client = session.client(1)

        def type_burst():
            if batch:
                op = Identity()
                for i, ch in enumerate(text):
                    op = compose(op, Insert(ch, len(client.document) + i))
                client.generate(op)
            else:
                for ch in text:
                    client.generate(Insert(ch, len(client.document)))

        session.sim.schedule(1.0, type_burst)
        session.run()
        assert session.converged()
        assert session.notifier.document == text
        return session.wire_stats()

    batched = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    unbatched = run(False)
    emit(
        "ABL-3: batching a 28-keystroke burst",
        f"batched  : {batched.messages} messages, {batched.total_bytes} bytes\n"
        f"unbatched: {unbatched.messages} messages, {unbatched.total_bytes} bytes",
    )
    assert batched.messages == 2  # one upload + one broadcast
    assert unbatched.messages == 2 * len("hello world, this is a burst")
    assert batched.total_bytes < unbatched.total_bytes
