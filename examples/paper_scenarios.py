#!/usr/bin/env python
"""Replay the paper's three figures on the terminal.

* Fig. 1 -- the star-like topology of Web-based REDUCE (ASCII art);
* Fig. 2 -- the four-operation scenario WITHOUT transformation:
  divergence and intention violation, with a space-time diagram.  The
  as-is relay keeps the transformed run's schedule and timestamps, so
  its documents are replayed from that run's trace;
* Fig. 3 -- the same scenario WITH compressed vector clocks and
  transformation: every timestamp and concurrency verdict of the
  Section 5 walkthrough, and convergence.

Run:  python examples/paper_scenarios.py
"""

from repro.analysis.consistency import check_divergence, replay_as_is
from repro.editor.star import StarSession
from repro.obs.tracer import Tracer
from repro.viz.spacetime import DiagramEvent, render_spacetime, render_star_topology
from repro.workloads.scripted import (
    FIG2_INITIAL_DOCUMENT,
    FIG_LATENCIES,
    fig2_ops,
    fig3_labels,
    fig3_script,
    fig_latency_factory,
)


# The sites name each op by (site, ordinal); the paper's O1-O4 follow
# from the script's order.
LABEL = fig3_labels()


def banner(title: str) -> None:
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)


def run_scenario() -> StarSession:
    # The diagrams and the walkthrough are drawn from complete history
    # buffers, which only an oracle session retains (and verifies); the
    # printed verdicts are the check records, which a session keeps on
    # request; Fig. 2's documents are replayed from the trace.
    session = StarSession(
        n_sites=3,
        initial_state=FIG2_INITIAL_DOCUMENT,
        latency_factory=fig_latency_factory,
        verify_with_oracle=True,
        record_checks=True,
        tracer=Tracer(),
    )
    for item in fig3_script():
        session.generate_at(item.site, item.op, item.time)
    session.run()
    return session


def spacetime_events(session: StarSession) -> list[DiagramEvent]:
    events = []
    for entry in session.notifier.hb:
        events.append(
            DiagramEvent(entry.executed_at, 0, f"exec {LABEL[entry.op_id]} {entry.timestamp!r}")
        )
    for client in session.clients:
        for entry in client.hb:
            kind = "gen " if entry.origin_site == client.pid else "exec"
            events.append(
                DiagramEvent(
                    entry.executed_at,
                    client.pid,
                    f"{kind} {LABEL[entry.op_id]} {entry.timestamp!r}",
                )
            )
    return events


def main() -> None:
    banner("Fig. 1: star-like topology of Web-based REDUCE")
    print(render_star_topology(3))
    print(f"\nchannel latencies (s): {FIG_LATENCIES}")

    banner("Fig. 2: transformation OFF -> divergence & intention violation")
    fig3 = run_scenario()
    print(render_spacetime(4, spacetime_events(fig3), col_width=20))
    print()
    as_is = replay_as_is(FIG2_INITIAL_DOCUMENT, fig3.tracer.events, fig2_ops())
    for site, doc in enumerate(as_is):
        print(f"  site {site} final document: {doc!r}")
    report = check_divergence(as_is)
    print(f"\n  {report.summary()}")
    print("  site 1 reads 'A1DE' after O1;O2 -- O2's intention ('delete CDE')")
    print("  and O1's intention ('insert 12 between A and B') are both violated.")

    banner("Fig. 3: compressed vector clocks + transformation -> convergence")
    print(render_spacetime(4, spacetime_events(fig3), col_width=20))

    print("\n  notifier broadcasts (formulas 1-2):")
    for op_id, dest, ts in fig3.notifier.broadcast_log:
        print(f"    {LABEL[op_id]} -> site {dest}  timestamp {ts!r}")
    print("\n  notifier history buffer (full SV_0 snapshots):")
    for entry in fig3.notifier.hb:
        print(f"    {LABEL[entry.op_id]}  {entry.timestamp!r}")
    print("\n  concurrency verdicts (formulas 5 and 7):")
    for record in fig3.all_checks():
        relation = "||" if record.verdict else "-/||"
        print(
            f"    site {record.site}: {LABEL[record.new_op_id]} {relation} "
            f"{LABEL[record.buffered_op_id]}"
        )
    print()
    for site, doc in enumerate(fig3.documents()):
        print(f"  site {site} final document: {doc!r}")
    assert fig3.converged()
    print("\n  all replicas CONVERGED -- every timestamp above matches the paper.")


if __name__ == "__main__":
    main()
