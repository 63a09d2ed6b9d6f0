"""FIG3: the complete Section 5 walkthrough under the compressed scheme.

Benchmarks the full scripted session (timestamping, concurrency checks,
transformation, convergence) and regenerates the walkthrough's tables:
per-destination broadcast timestamps, buffered full timestamps, and all
21 concurrency verdicts -- asserting each against the paper's values.
"""

from conftest import emit

from repro.editor.star import StarSession
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    FIG3_EXPECTED,
    fig3_labels,
    fig3_script,
    fig_latency_factory,
)


# The sites name the paper's O1-O4 by (site, ordinal); the labels are
# read off the script's order.
LABEL = fig3_labels()


def run_fig3(verify=True):
    """The paper performs the walkthrough over unbounded buffers: that is
    the oracle session.  ``verify=False`` is the deployed shape, which
    forgets history at the acknowledgement horizon."""
    session = StarSession(
        n_sites=3,
        initial_state=FIG2_INITIAL_DOCUMENT,
        latency_factory=fig_latency_factory,
        verify_with_oracle=verify,
        record_checks=True,  # both tests read the verdicts and the broadcast log
    )
    for item in fig3_script():
        session.generate_at(item.site, item.op, item.time)
    session.run()
    return session


def test_fig3_full_scenario(benchmark):
    session = benchmark(run_fig3)
    # -- assert every number in the walkthrough --
    got_broadcasts = {
        (LABEL[op_id], dest): ts.as_paper_list()
        for op_id, dest, ts in session.notifier.broadcast_log
    }
    assert got_broadcasts == FIG3_EXPECTED["broadcast_timestamps"]
    got_buffered = {
        LABEL[e.op_id]: e.timestamp.as_paper_list() for e in session.notifier.hb
    }
    assert got_buffered == FIG3_EXPECTED["notifier_buffer_timestamps"]
    got_verdicts = {
        (r.site, LABEL[r.new_op_id], LABEL[r.buffered_op_id]): r.verdict
        for r in session.all_checks()
    }
    assert got_verdicts == FIG3_EXPECTED["verdicts"]
    docs = session.documents()
    assert all(d == FIG3_EXPECTED["final_document"] for d in docs)

    # -- regenerate the walkthrough tables --
    rows = ["op   | destination | compressed timestamp"]
    for (op_id, dest), ts in sorted(got_broadcasts.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        rows.append(f"{op_id:<4} | site {dest:<6} | {ts}")
    rows.append("")
    rows.append("op   | full SV_0 timestamp in HB_0")
    for op_id, ts in got_buffered.items():
        rows.append(f"{op_id:<4} | {ts}")
    emit("FIG3: operation timestamping (paper Section 5)", "\n".join(rows))

    rows = ["site | new op | buffered op | concurrent?"]
    for (site, new, buf), verdict in sorted(got_verdicts.items()):
        rows.append(f"{site:>4} | {new:<6} | {buf:<11} | {verdict}")
    rows.append("")
    rows.append(f"all four replicas converged to {docs[0]!r}")
    emit("FIG3: concurrency verdicts (21 checks)", "\n".join(rows))


def test_fig3_with_pruned_history(benchmark):
    """The same scenario as deployed: no oracle, history pruned at the
    acknowledgement horizon -- same broadcasts and documents, and every
    check it still performs is one of the paper's 21, same verdict."""
    session = benchmark(run_fig3, False)
    assert session.converged()
    assert session.documents()[0] == FIG3_EXPECTED["final_document"]
    got_broadcasts = {
        (LABEL[op_id], dest): ts.as_paper_list()
        for op_id, dest, ts in session.notifier.broadcast_log
    }
    assert got_broadcasts == FIG3_EXPECTED["broadcast_timestamps"]
    verdicts = {
        (r.site, LABEL[r.new_op_id], LABEL[r.buffered_op_id]): r.verdict
        for r in session.all_checks()
    }
    assert verdicts.items() <= FIG3_EXPECTED["verdicts"].items()
    concurrent = {pair for pair, verdict in FIG3_EXPECTED["verdicts"].items() if verdict}
    assert {pair for pair, verdict in verdicts.items() if verdict} == concurrent
    emit(
        "FIG3 as deployed: history pruned at the acknowledgement horizon",
        f"{len(verdicts)} of {len(FIG3_EXPECTED['verdicts'])} checks performed, "
        f"all {len(concurrent)} concurrent pairs among them; "
        f"HB lengths {[len(e.hb) for e in session.endpoints()]}",
    )
