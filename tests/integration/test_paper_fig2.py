"""FIG2: the paper's Fig. 2 inconsistency scenario, reproduced.

Runs the scripted four-operation scenario, traced, and replays the
trace with every operation relayed in its original form (exactly
Fig. 2: the as-is relay keeps the run's schedule and execution orders)
and asserts both inconsistency problems the paper demonstrates:

* **divergence** -- the four sites end in four different documents;
* **intention violation** -- site 1's execution of ``O_1`` then the
  untransformed ``O_2`` yields ``"A1DE"`` instead of the
  intention-preserved ``"A12B"``.
"""

from repro.analysis.consistency import (
    check_divergence,
    intention_preserved_pair,
    replay_as_is,
)
from repro.editor.star import StarSession
from repro.obs.tracer import Tracer
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    FIG3_EXPECTED,
    fig2_intention_example,
    fig2_ops,
    fig3_labels,
    fig3_script,
    fig_latency_factory,
)


def run_fig2_session() -> StarSession:
    session = StarSession(
        n_sites=3,
        initial_state=FIG2_INITIAL_DOCUMENT,
        latency_factory=fig_latency_factory,
        tracer=Tracer(),
    )
    for item in fig3_script():
        session.generate_at(item.site, item.op, item.time)
    session.run()
    assert session.quiescent()
    return session


def as_is_documents(session: StarSession, until: float = float("inf")) -> list[str]:
    assert session.tracer is not None
    events = [event for event in session.tracer.events if event.time <= until]
    return replay_as_is(FIG2_INITIAL_DOCUMENT, events, fig2_ops())


class TestFig2ExecutionOrders:
    def test_per_site_execution_orders_match_figure(self):
        session = run_fig2_session()
        expected = FIG3_EXPECTED["execution_orders"]
        label = fig3_labels()
        assert [label[name] for name in session.notifier.executed_op_ids] == expected[0]
        for client in session.clients:
            assert [label[name] for name in client.executed_op_ids] == \
                expected[client.pid], f"site {client.pid}"


class TestFig2Divergence:
    def test_sites_diverge_without_transformation(self):
        report = check_divergence(as_is_documents(run_fig2_session()))
        assert report.diverged
        # all four sites disagree (the strongest form of the figure)
        assert len(report.distinct_states) == 4

    def test_final_documents_match_derivation(self):
        expected = FIG3_EXPECTED["fig2_final_documents"]
        assert as_is_documents(run_fig2_session()) == [
            expected[site] for site in range(4)]

    def test_site1_exhibits_paper_intention_violation(self):
        """After O_1 and the untransformed O_2, site 1 reads "A1DE"."""
        # replay until just after O_2 reaches site 1 (arrival at 2.5)
        assert as_is_documents(run_fig2_session(), until=2.6)[1] == "A1DE"


class TestFig2IntentionExample:
    def test_section_2_2_example_end_to_end(self):
        doc, o1, o2, preserved, naive = fig2_intention_example()
        check = intention_preserved_pair(doc, o1, o2)
        assert check.preserved_result == preserved == "A12B"
        assert check.naive_results[0] == naive == "A1DE"
        assert check.naive_violates

    def test_transformed_O2_is_delete_3_4(self):
        """The paper: O_2' = Delete[3, 4] after transforming against O_1."""
        from repro.ot.operations import Delete
        from repro.ot.transform import inclusion_transform

        doc, o1, o2, preserved, _ = fig2_intention_example()
        o2_prime = inclusion_transform(o2, o1)
        assert o2_prime == Delete(3, 4)
        assert o2_prime.apply(o1.apply(doc)) == preserved
