"""History retention: what the acknowledgement horizon bounds, and what
it cannot.

Shared runners cannot gate wall-clock or RSS, so these counts are the
always-on regression gate for "the history buffers are bounded by the
in-flight window, not by the session".
"""

from repro.cli import jitter_latency_factory
from repro.core.timestamp import OriginKind
from repro.editor.star import StarSession
from repro.ot.operations import Insert
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_star_session,
    generate_random_edits,
)


def peak_history(ops_per_site: int) -> tuple[int, StarSession]:
    """A fast-path 4-site session: the longest HB at any endpoint while
    every site is still editing (sampled every 50 events), and the
    finished session.

    The sampling stops when the first site runs out of operations: from
    then on that site is a silent reader (see the test below), and how
    long the others outlast it grows with the session by construction.
    """
    config = RandomSessionConfig(n_sites=4, ops_per_site=ops_per_site, seed=0)
    session = StarSession(
        4,
        initial_state=config.initial_document,
        latency_factory=jitter_latency_factory(0),
        record_events=False,
        record_checks=False,
    )
    drive_star_session(session, config)
    last_edit = {}
    for intent in generate_random_edits(config):
        last_edit[intent.site] = intent.time
    peak = 0
    while session.sim.run(until=min(last_edit.values()), max_events=50):
        peak = max(peak, *(len(e.hb) for e in session.endpoints()))
    session.run()
    assert session.converged()
    return peak, session


def test_history_is_flat_in_session_length():
    short_peak, _ = peak_history(500)
    long_peak, session = peak_history(2500)
    assert len(session.notifier.executed_op_ids) == 10_000
    assert long_peak <= 2 * short_peak
    assert long_peak < 100  # the in-flight window: under 1 % of the session

    # At quiescence every buffer is exactly its live window: the
    # unacknowledged operations plus whatever executed behind the oldest.
    notifier = session.notifier
    debtor = next(d for d, queue in notifier.sent_to.items()
                  if queue and queue[0].op_id == notifier.hb[0].op_id)
    assert len(notifier.hb) == len(notifier.sent_to[debtor]) + sum(
        entry.origin_site == debtor for entry in notifier.hb)
    for client in session.clients:
        from_center = sum(e.origin_kind is OriginKind.FROM_CENTER for e in client.hb)
        assert len(client.hb) == len(client.pending) + from_center


def test_silent_reader_pins_the_notifier_history_until_it_speaks():
    """A destination that never generates never acknowledges: it pins
    ``HB_0`` exactly as it pins its own ``sent_to`` queue (a limit of
    acknowledgement by piggyback, not of the pruning), and its first
    operation releases everything at once."""
    session = StarSession(3, initial_state="")
    # Sites 1 and 2 take turns, far enough apart that each operation
    # acknowledges everything before it; site 3 only reads.
    for turn in range(20):
        session.generate_at(1 + turn % 2, Insert("x", 0), at=1.0 + 5 * turn)
    session.run()
    notifier = session.notifier
    assert len(notifier.sent_to[3]) == 20
    assert notifier.hb.op_ids() == notifier.executed_op_ids  # all 20 pinned
    assert max(len(notifier.sent_to[1]), len(notifier.sent_to[2])) == 1
    # The readers' own buffers stay at the last arrival throughout.
    assert len(session.client(3).hb) == 1

    session.generate_at(3, Insert("y", 0), at=session.sim.now + 5.0)
    session.run()
    assert session.converged()
    assert not notifier.sent_to[3]
    assert notifier.hb.op_ids() == ["c2_10'", "c3_1'"]
