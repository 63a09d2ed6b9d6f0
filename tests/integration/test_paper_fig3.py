"""FIG3: the paper's Fig. 3 + Section 5 walkthrough, value-for-value.

Replays the scripted scenario with the compressed-vector-clock scheme
enabled and asserts EVERY number the paper prints:

* the clients' operation timestamps ([0,1], [0,1], [1,1], [1,2]);
* all eight per-destination broadcast timestamps of the notifier;
* all four full ``SV_0`` snapshots timestamping buffered operations;
* the final history-buffer contents of every site;
* all 21 concurrency verdicts of the walkthrough;
* convergence of all four replicas (with oracle verification of every
  verdict against full vector clocks while the session runs).
"""

import pytest

from repro.analysis.causality import CausalityOracle
from repro.editor.star import StarSession
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    FIG3_EXPECTED,
    fig3_script,
    fig_latency_factory,
)


@pytest.fixture(scope="module")
def session() -> StarSession:
    sess = StarSession(
        n_sites=3,
        initial_state=FIG2_INITIAL_DOCUMENT,
        latency_factory=fig_latency_factory,
        verify_with_oracle=True,
        record_checks=True,
    )
    for item in fig3_script():
        sess.generate_at(item.site, item.op, item.time, op_id=item.op_id)
    sess.run()
    assert sess.quiescent()
    return sess


class TestClientTimestamps:
    def test_original_operation_timestamps(self, session):
        expected = FIG3_EXPECTED["client_timestamps"]
        seen = {}
        for client in session.clients:
            for entry in client.hb:
                if entry.op_id in expected:
                    seen[entry.op_id] = entry.timestamp.as_paper_list()
        assert seen == expected


class TestNotifierTimestamps:
    def test_broadcast_timestamps(self, session):
        got = {
            (op_id, dest): ts.as_paper_list()
            for op_id, dest, ts in session.notifier.broadcast_log
        }
        assert got == FIG3_EXPECTED["broadcast_timestamps"]

    def test_buffered_full_timestamps(self, session):
        got = {
            entry.op_id: entry.timestamp.as_paper_list()
            for entry in session.notifier.hb
        }
        assert got == FIG3_EXPECTED["notifier_buffer_timestamps"]

    def test_final_sv0(self, session):
        assert session.notifier.sv.as_paper_list() == [1, 2, 1]


class TestHistoryBuffers:
    def test_final_hb_contents(self, session):
        expected = FIG3_EXPECTED["final_hb"]
        assert session.notifier.hb.op_ids() == expected[0]
        for client in session.clients:
            assert client.hb.op_ids() == expected[client.pid], f"site {client.pid}"

    def test_execution_orders(self, session):
        expected = FIG3_EXPECTED["execution_orders"]
        assert session.notifier.executed_op_ids == expected[0]
        for client in session.clients:
            assert client.executed_op_ids == expected[client.pid]


class TestConcurrencyVerdicts:
    def test_every_walkthrough_verdict(self, session):
        got = {
            (r.site, r.new_op_id, r.buffered_op_id): r.verdict
            for r in session.all_checks()
        }
        for key, want in FIG3_EXPECTED["verdicts"].items():
            assert key in got, f"check {key} never happened"
            assert got[key] == want, f"check {key}: got {got[key]}, want {want}"

    def test_no_extra_checks(self, session):
        """The walkthrough enumerates every check the scheme performs."""
        assert len(session.all_checks()) == len(FIG3_EXPECTED["verdicts"])

    def test_ground_truth_relations(self, session):
        oracle = CausalityOracle(session.event_log)
        originals = ["O1", "O2", "O3", "O4"]
        concurrent = {
            frozenset((a, b))
            for i, a in enumerate(originals)
            for b in originals[i + 1 :]
            if oracle.concurrent(a, b)
        }
        assert concurrent == FIG3_EXPECTED["concurrent_pairs"]
        causal = {
            (a, b) for a in originals for b in originals
            if a != b and oracle.happened_before(a, b)
        }
        assert causal == FIG3_EXPECTED["causal_pairs"]

    def test_paper_example_O2_before_O1prime(self, session):
        """Fig. 3 discussion: O_1 || O_2 but O_2 -> O_1'."""
        oracle = CausalityOracle(session.event_log)
        assert oracle.concurrent("O1", "O2")
        assert oracle.happened_before("O2", "O1'")


class TestConvergence:
    def test_all_sites_converge(self, session):
        docs = session.documents()
        assert all(doc == docs[0] for doc in docs)
        assert docs[0] == FIG3_EXPECTED["final_document"]

    def test_client_state_vectors_final(self, session):
        assert session.client(1).sv.as_paper_list() == [3, 1]
        assert session.client(2).sv.as_paper_list() == [2, 2]
        assert session.client(3).sv.as_paper_list() == [3, 1]
