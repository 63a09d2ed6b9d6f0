"""FIG2: divergence and intention violation without transformation.

Regenerates the paper's Fig. 2 scenario with operations relayed in their
original forms -- replayed from the trace of the transformed run, whose
schedule and execution orders the as-is relay keeps -- and reports both
inconsistency problems, including the Section 2.2 "A12B" vs "A1DE"
example.
"""

from conftest import emit

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
    fig3_script,
    fig_latency_factory,
)


def run_fig2() -> list[str]:
    tracer = Tracer()
    session = StarSession(
        n_sites=3,
        initial_state=FIG2_INITIAL_DOCUMENT,
        latency_factory=fig_latency_factory,
        tracer=tracer,
    )
    for item in fig3_script():
        session.generate_at(item.site, item.op, item.time)
    session.run()
    return replay_as_is(FIG2_INITIAL_DOCUMENT, tracer.events, fig2_ops())


def test_fig2_divergence(benchmark):
    docs = benchmark(run_fig2)
    report = check_divergence(docs)
    assert report.diverged
    assert len(report.distinct_states) == 4
    expected = FIG3_EXPECTED["fig2_final_documents"]
    assert docs[0] == expected[0]

    rows = [f"initial document: {FIG2_INITIAL_DOCUMENT!r}", ""]
    rows.append("site | execution order          | final document")
    orders = FIG3_EXPECTED["execution_orders"]
    for site in range(4):
        order = " ".join(o.rstrip("'") for o in orders[site])
        rows.append(f"{site:>4} | {order:<24} | {docs[site]!r}")
    rows.append("")
    rows.append(report.summary())
    emit("FIG2: transformation OFF -> divergence", "\n".join(rows))


def test_fig2_intention_violation(benchmark):
    doc, o1, o2, preserved, naive = fig2_intention_example()
    check = benchmark(intention_preserved_pair, doc, o1, o2)
    assert check.preserved_result == preserved
    assert check.naive_results[0] == naive
    assert check.naive_violates
    emit(
        "FIG2: intention violation (Section 2.2 example)",
        "\n".join(
            [
                f"document          : {doc!r}",
                f"O1 = {o1!r}   O2 = {o2!r}",
                f"intention-preserved result : {check.preserved_result!r}",
                f"naive O1;O2 (site 1)       : {check.naive_results[0]!r}  <- violation",
                f"naive O2;O1                : {check.naive_results[1]!r}",
            ]
        ),
    )
