"""System-level property tests (hypothesis over whole sessions).

The headline property of the reproduction: **on every randomly generated
star session, every concurrency verdict produced by the compressed
2-element timestamps equals the verdict of full N-element vector clocks**
(the session raises ``ConsistencyError`` on any disagreement because the
oracle runs inline), and all replicas converge.
"""

import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.causality import CausalityOracle
from repro.editor.mesh import MeshSession
from repro.editor.star import StarSession
from repro.net.channel import FixedLatency, JitterLatency, UniformLatency
from repro.obs.analysis import replay_event_log
from repro.obs.tracer import Tracer
from repro.ot.operations import compose
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_mesh_session,
    drive_star_session,
    generate_random_edits,
    random_positional_op,
)

session_params = st.fixed_dictionaries(
    {
        "n_sites": st.integers(1, 6),
        "ops_per_site": st.integers(0, 8),
        "seed": st.integers(0, 10**6),
        "insert_ratio": st.sampled_from([0.3, 0.5, 0.7, 1.0]),
        "latency_style": st.sampled_from(["fixed", "uniform", "jitter"]),
    }
)


def latency_factory(style, seed):
    if style == "fixed":
        return lambda s, d: FixedLatency(0.2)
    if style == "uniform":
        return lambda s, d: UniformLatency(0.01, 1.5, random.Random(seed * 31 + s * 7 + d))
    return lambda s, d: JitterLatency(0.1, 0.8, random.Random(seed * 31 + s * 7 + d))


def build_star(params, verify=True, drive=drive_star_session, tracer=None):
    config = RandomSessionConfig(
        n_sites=params["n_sites"],
        ops_per_site=params["ops_per_site"],
        seed=params["seed"],
        insert_ratio=params["insert_ratio"],
    )
    session = StarSession(
        params["n_sites"],
        initial_state=config.initial_document,
        latency_factory=latency_factory(params["latency_style"], params["seed"]),
        verify_with_oracle=verify,
        tracer=tracer,
    )
    drive(session, config)
    return session, config


def drive_composed_bursts(session, config):
    """Each intent is a burst: 1-4 random positional edits, each drawn
    against the document the previous ones leave, sent as one composed
    operation."""
    for intent in generate_random_edits(config):
        client = session.client(intent.site)

        def make(client=client, seed=intent.seed):
            rng = random.Random(seed)
            document, burst = client.document, []
            for _ in range(rng.randint(1, 4)):
                burst.append(random_positional_op(rng, document, config))
                document = burst[-1].apply(document)
            client.generate(reduce(compose, burst))

        session.sim.schedule(intent.time, make)


class TestStarSessionProperties:
    @given(session_params)
    @settings(max_examples=60, deadline=None)
    def test_compressed_verdicts_match_oracle_and_converge(self, params):
        session, _ = build_star(params)  # ConsistencyError on any mismatch
        session.run()
        assert session.quiescent()
        assert session.converged(), session.documents()

    @given(session_params)
    @settings(max_examples=40, deadline=None)
    def test_fifo_never_violated(self, params):
        session, _ = build_star(params, verify=False)
        session.run()
        assert session.topology.fifo_respected()

    @given(session_params)
    @settings(max_examples=40, deadline=None)
    def test_timestamp_overhead_constant(self, params):
        session, _ = build_star(params, verify=False)
        session.run()
        stats = session.wire_stats()
        assert stats.timestamp_bytes == 8 * stats.messages

    @given(session_params)
    @settings(max_examples=30, deadline=None)
    def test_determinism_same_seed_same_outcome(self, params):
        a, _ = build_star(params, verify=False)
        a.run()
        b, _ = build_star(params, verify=False)
        b.run()
        assert a.documents() == b.documents()
        assert [c.sv.as_paper_list() for c in a.clients] == [
            c.sv.as_paper_list() for c in b.clients
        ]

    @given(session_params)
    @settings(max_examples=30, deadline=None)
    def test_state_vector_accounting(self, params):
        """SV invariants at quiescence: every op counted exactly once."""
        session, config = build_star(params, verify=False)
        session.run()
        total = params["n_sites"] * params["ops_per_site"]
        assert session.notifier.sv.total() == total
        for client in session.clients:
            assert client.sv.generated_locally == params["ops_per_site"]
            # received = everything executed at the notifier minus own ops
            assert client.sv.received_from_center == total - params["ops_per_site"]

    @given(session_params)
    @settings(max_examples=25, deadline=None)
    def test_ground_truth_concurrency_is_symmetric_and_irreflexive(self, params):
        """The ground truth is the traced run's replayed log: every
        generated operation is in it, so the check is never empty when
        the run edits."""
        tracer = Tracer()
        session, _ = build_star(params, verify=False, tracer=tracer)
        session.run()
        oracle = CausalityOracle(replay_event_log(tracer.events))
        ops = oracle.log.op_ids()
        assert len(ops) >= params["n_sites"] * params["ops_per_site"]
        ops = ops[:12]
        for a in ops:
            assert not oracle.concurrent(a, a)
            for b in ops:
                assert oracle.concurrent(a, b) == oracle.concurrent(b, a)

    @given(session_params)
    @settings(max_examples=30, deadline=None)
    def test_composed_burst_sessions(self, params):
        """The star carries composed operations under the oracle."""
        session, _ = build_star(params, drive=drive_composed_bursts)
        session.run()
        assert session.quiescent()
        assert session.converged(), session.documents()


class TestMeshSessionProperties:
    @given(
        st.fixed_dictionaries(
            {
                "n_sites": st.integers(2, 4),
                "ops_per_site": st.integers(0, 5),
                "seed": st.integers(0, 10**6),
            }
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_mesh_converges_on_random_sessions(self, params):
        config = RandomSessionConfig(
            n_sites=params["n_sites"],
            ops_per_site=params["ops_per_site"],
            seed=params["seed"],
        )
        session = MeshSession(
            params["n_sites"],
            initial_document=config.initial_document,
            latency_factory=latency_factory("uniform", params["seed"]),
        )
        drive_mesh_session(session, config)
        session.run()
        assert session.quiescent()
        assert session.converged(), session.documents()

    @given(st.integers(2, 6), st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_mesh_timestamp_overhead_linear_in_n(self, n_sites, seed):
        config = RandomSessionConfig(n_sites=n_sites, ops_per_site=2, seed=seed)
        session = MeshSession(n_sites, initial_document=config.initial_document)
        drive_mesh_session(session, config)
        session.run()
        stats = session.wire_stats()
        assert stats.timestamp_bytes == stats.messages * 4 * n_sites
