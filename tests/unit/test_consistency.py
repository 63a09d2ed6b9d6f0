"""Unit tests for divergence / intention checkers (repro.analysis.consistency)."""

import pytest

from repro.analysis.consistency import (
    check_divergence,
    intention_preserved_pair,
    replay_as_is,
)
from repro.editor.star import StarSession
from repro.obs.tracer import TraceEvent, TraceEventKind, Tracer
from repro.ot.operations import Delete, Insert
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    FIG3_EXPECTED,
    fig2_ops,
    fig3_script,
    fig_latency_factory,
)


class TestDivergence:
    def test_all_equal_converged(self):
        report = check_divergence(["abc", "abc", "abc"])
        assert not report.diverged
        assert report.distinct_states == ("abc",)
        assert "CONVERGED" in report.summary()

    def test_detects_divergence(self):
        report = check_divergence(["abc", "abd", "abc", "xyz"])
        assert report.diverged
        assert report.distinct_states == ("abc", "abd", "xyz")
        assert "3 distinct" in report.summary()

    def test_single_site(self):
        assert not check_divergence(["only"]).diverged

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            check_divergence([])

    def test_works_on_unhashable_states(self):
        report = check_divergence([["a"], ["a"], ["b"]])
        assert report.diverged


class TestIntentionCheck:
    def test_paper_section_2_2_example(self):
        """O_1 = Insert["12",1], O_2 = Delete[3,2] on "ABCDE": preserved
        result "A12B"; naive site-1 execution gives "A1DE"."""
        check = intention_preserved_pair("ABCDE", Insert("12", 1), Delete(3, 2))
        assert check.preserved_result == "A12B"
        assert check.naive_results[0] == "A1DE"
        assert check.naive_violates

    def test_one_naive_order_can_be_correct(self):
        # Executing the lower-position op second leaves it unaffected:
        # Delete[1,5] then Insert["X",0] happens to match the intention,
        # but the other order does not -- still a violation overall.
        check = intention_preserved_pair("abcdef", Delete(1, 5), Insert("X", 0))
        assert check.preserved_result == "Xabcde"
        assert check.naive_results[0] == check.preserved_result
        assert check.naive_results[1] == "Xabcdf"
        assert check.naive_violates

    def test_inapplicable_naive_order_reported(self):
        # b deletes beyond what remains after a in one naive order
        check = intention_preserved_pair("abc", Delete(3, 0), Delete(2, 1))
        assert check.preserved_result == ""
        assert "<inapplicable>" in check.naive_results


def fig2_trace() -> list[TraceEvent]:
    """The trace of the transformed Fig. 3 run."""
    tracer = Tracer()
    session = StarSession(3, initial_state=FIG2_INITIAL_DOCUMENT,
                          latency_factory=fig_latency_factory,
                          tracer=tracer)
    for item in fig3_script():
        session.generate_at(item.site, item.op, item.time)
    session.run()
    assert session.converged()
    return list(tracer.events)


class TestReplayAsIs:
    def test_two_sites_execute_the_naive_orders(self):
        """Two concurrent ops, each site executing its own first: the
        replay gives each client the pairwise checker's naive order."""
        o1, o2 = Insert("12", 1), Delete(3, 2)
        tracer = Tracer()
        session = StarSession(2, initial_state="ABCDE", tracer=tracer)
        ops = {}

        def edit(site, op):
            ops[session.client(site).generate(op)] = op

        session.sim.schedule(1.0, lambda: edit(1, o1))
        session.sim.schedule(1.0, lambda: edit(2, o2))
        session.run()
        assert session.converged()  # the transformed run itself does
        naive = intention_preserved_pair("ABCDE", o1, o2).naive_results
        documents = replay_as_is("ABCDE", tracer.events, ops)
        assert documents[1:] == list(naive) == ["A1DE", "A12B"]

    def test_the_fig2_script_gives_the_four_documents(self):
        expected = FIG3_EXPECTED["fig2_final_documents"]
        documents = replay_as_is(FIG2_INITIAL_DOCUMENT, fig2_trace(), fig2_ops())
        assert documents == [expected[site] for site in range(4)]
        assert documents == ["1xy2B", "1xyDE", "12xyB", "12Bxy"]

    def test_a_trace_prefix_gives_the_intention_violation(self):
        """Replayed up to just after O_2 reaches site 1 (at 2.5), site 1
        reads the paper's intention violation."""
        prefix = [event for event in fig2_trace() if event.time <= 2.6]
        documents = replay_as_is(FIG2_INITIAL_DOCUMENT, prefix, fig2_ops())
        assert documents[1] == "A1DE"

    def test_an_origin_applies_its_op_once(self):
        """A promoted centre traces both the generation of its own op
        and its execution: only the generation is applied there; a site
        the window never reaches keeps the initial document."""
        generated, executed = TraceEventKind.GENERATED, TraceEventKind.EXECUTED
        events = [
            TraceEvent(0, generated, 1.0, 1, op_id="c1_1"),
            TraceEvent(1, executed, 1.0, 1, op_id="c1_1"),
            TraceEvent(2, executed, 2.0, 3, op_id="c1_1"),
        ]
        assert replay_as_is("ab", events, {"c1_1": Insert("x", 9)}) == [
            "ab", "abx", "ab", "abx"]
