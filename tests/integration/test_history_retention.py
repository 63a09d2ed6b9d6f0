"""History retention: what the acknowledgement horizon bounds, and what
it cannot.

Shared runners cannot gate wall-clock or RSS, so these counts are the
always-on regression gate for "the history buffers are bounded by the
in-flight window, not by the session".
"""

from collections import deque
from dataclasses import dataclass, field

import pytest

from repro.cli import jitter_latency_factory
from repro.core.timestamp import OriginKind
from repro.editor.star import StarSession
from repro.net.simulator import Simulator
from repro.obs.tracer import Origins, Tracer
from repro.ot.operations import Insert
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_star_session,
    generate_random_edits,
)


def peak_history(ops_per_site: int) -> tuple[int, StarSession]:
    """A diagnostic 4-site session (only those keep a history): the
    longest HB at any endpoint while every site is still editing
    (sampled every 50 events), and the finished session.

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
        record_checks=True,
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
    session = StarSession(3, initial_state="", record_checks=True)
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


# -- nothing grows --------------------------------------------------------------

SIZED = (list, dict, set, frozenset, deque)

#: What may differ between two samples of a bounded structure: the
#: in-flight window (the same bound the flat-history test above uses).
IN_FLIGHT = 100

#: Per-op structures known to grow with the session, by attribute name.
#: Every entry is a ROADMAP follow-up, not a licence: the test fails when
#: one stops growing, so the entry is deleted with the fix.
STILL_GROWS = {
    # One id per execution at every endpoint; production reads only its
    # len(), perfbench slices it.  ROADMAP item 2(i), with item 1's re-cut.
    "executed_op_ids",
}


def attributes(holder) -> dict[str, object]:
    """What ``holder`` holds by name: its ``__dict__`` if it has one and
    every slot its classes declare that is set.  A slotted object has no
    ``__dict__`` (or one only for the names its slots leave out), so
    ``vars()`` alone would walk past whatever it keeps."""
    found = dict(getattr(holder, "__dict__", {}))
    for cls in type(holder).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(holder, name):
                found[name] = getattr(holder, name)
    return found


def sized_lengths(root, label: str, out: dict[str, int], depth: int = 1) -> None:
    """``len()`` of every container attribute of ``root``, of the
    containers inside its dict attributes, and -- ``depth`` levels down
    -- of the objects it holds (buffers, state vectors, per-peer links,
    channels), slotted or not.

    The per-message values slotted by ISSUE 24 (``OpMessage``,
    ``PendingOp``, ``HistoryEntry``, ``CompressedTimestamp``) hold no
    container, so the walk reads the same paths as before it; the
    planted case below is what keeps it honest for the next holder."""
    for name, value in attributes(root).items():
        path = f"{label}.{name}"
        if isinstance(value, SIZED):
            out[path] = len(value)
            for key, item in value.items() if isinstance(value, dict) else ():
                if isinstance(item, SIZED):
                    out[f"{path}[{key!r}]"] = len(item)
                elif depth:
                    sized_lengths(item, f"{path}[{key!r}]", out, depth - 1)
        elif depth and not isinstance(value, Simulator):
            # The simulator is the harness: its heap holds the workload's
            # pre-scheduled edits and shrinks as the session runs.
            sized_lengths(value, path, out, depth - 1)


def test_the_growth_walk_reads_slots():
    """Planted: a list that grows inside slotted holders -- hand-written
    ``__slots__``, an inherited slot, ``dataclass(slots=True)`` -- held
    directly, one level down and inside a dict.  The walk must report
    every one of them, and skip a declared slot that was never set."""

    class Base:
        __slots__ = ("log",)

        def __init__(self) -> None:
            self.log: list[int] = []

    class Derived(Base):
        __slots__ = ("never_set",)

    @dataclass(slots=True)
    class Record:
        seen: list[int] = field(default_factory=list)

    class Root:
        def __init__(self) -> None:
            self.link = Derived()
            self.record = Record()
            self.by_peer = {7: Derived()}

    def walk(root) -> dict[str, int]:
        out: dict[str, int] = {}
        sized_lengths(root, "root", out)
        return out

    assert not hasattr(Derived(), "__dict__") and not hasattr(Record(), "__dict__")
    root = Root()
    assert walk(root) == {"root.link.log": 0, "root.record.seen": 0,
                          "root.by_peer": 1, "root.by_peer[7].log": 0}
    for holder in (root.link.log, root.record.seen, root.by_peer[7].log):
        holder.extend(range(IN_FLIGHT + 1))
    assert walk(root) == {"root.link.log": 101, "root.record.seen": 101,
                          "root.by_peer": 1, "root.by_peer[7].log": 101}
    assert walk(root.link) == {"root.log": 101}  # a slotted root, too


def snapshot(session: StarSession) -> dict[str, int]:
    """Every endpoint with what it holds (buffers, channels), and its
    transport with what *it* holds (per-peer links, the hold-back queue)."""
    out: dict[str, int] = {}
    for endpoint in session.endpoints():
        label = f"site{endpoint.pid}"
        sized_lengths(endpoint, label, out)
        sized_lengths(endpoint.transport, f"{label}.transport", out)
    return out


@pytest.mark.parametrize("reliability", [False, True], ids=["raw", "reliable"])
def test_nothing_grows_with_the_session_but_the_allow_list(reliability):
    """Sample every sized structure of every endpoint after 1 000 and
    after 3 000 executed operations of one fast-path session in which
    every site keeps writing (so acknowledgements keep flowing and the
    windows drain): apart from the allow-list, nothing may differ by
    more than the in-flight window."""
    config = RandomSessionConfig(n_sites=4, ops_per_site=1000, seed=0)
    session = StarSession(
        4,
        initial_state=config.initial_document,
        latency_factory=jitter_latency_factory(0),
        record_events=False,
        reliability=reliability,
    )
    drive_star_session(session, config)
    samples = []
    for ops in (1000, 3000):
        while len(session.notifier.executed_op_ids) < ops:
            assert session.sim.run(max_events=10)
        samples.append(snapshot(session))
    early, late = samples
    # Every site is still a writer at the second sample.
    assert all(c.sv.generated_locally < config.ops_per_site for c in session.clients)
    # The walk reaches down: buffers, channels and -- over the reliability
    # protocol -- per-peer links and the hold-back queue's streams.
    assert any(path.endswith(".hb.entries") for path in late)
    assert any(".out_channels[" in path for path in late)
    if reliability:
        assert any(path.endswith(".unacked") for path in late)
        assert any(path.endswith("._holdback._streams") for path in late)

    grew = {
        path for path in early.keys() | late.keys()
        if late.get(path, 0) - early.get(path, 0) > IN_FLIGHT
    }
    assert {path.rsplit(".", 1)[1] for path in grew} == STILL_GROWS, sorted(grew)
    session.run()
    assert session.converged()


def test_broadcast_log_is_a_diagnostic_artefact():
    """A diagnostic session logs one entry per (operation, destination),
    in send order; the fast path has no log at all."""
    config = RandomSessionConfig(n_sites=4, ops_per_site=10, seed=1)

    def run(record_checks: bool) -> StarSession:
        session = StarSession(4, initial_state=config.initial_document,
                              latency_factory=jitter_latency_factory(1),
                              record_checks=record_checks)
        drive_star_session(session, config)
        session.run()
        assert session.converged()
        return session

    notifier = run(record_checks=True).notifier
    assert len(notifier.executed_op_ids) == 40
    assert [(op_id, dest) for op_id, dest, _ in notifier.broadcast_log] == [
        (op_id, dest)
        for op_id in notifier.executed_op_ids
        for dest in (1, 2, 3, 4)
        if dest != int(op_id[1 : op_id.index("_")])  # "c<site>_<n>'"
    ]
    assert run(record_checks=False).notifier.broadcast_log is None


@pytest.mark.parametrize("reliability", [False, True], ids=["raw", "reliable"])
def test_history_is_a_diagnostic_artefact(reliability):
    """Only a diagnostic session keeps a history buffer: a fast-path
    one's stays empty throughout.  The buffer never steers the protocol
    either: the same seed with ``record_checks=True`` is the same
    session, message for message, event for event and latency for
    latency."""
    config = RandomSessionConfig(n_sites=4, ops_per_site=50, seed=2)

    def run(record_checks: bool):
        tracer = Tracer()
        session = StarSession(4, initial_state=config.initial_document,
                              latency_factory=jitter_latency_factory(2),
                              record_checks=record_checks,
                              reliability=reliability, tracer=tracer)
        drive_star_session(session, config)
        peak = 0
        while session.sim.run(max_events=25):
            peak = max(peak, *(len(e.hb) for e in session.endpoints()))
        assert session.converged()
        origins = Origins()
        latencies = {}
        for event in tracer.events:
            origin = origins.see(event)
            if origin is not None:
                latencies[event.site, event.op_id] = event.time - origin.time
        return session, peak, latencies

    fast, fast_peak, fast_latencies = run(record_checks=False)
    slow, slow_peak, slow_latencies = run(record_checks=True)
    assert fast_peak == 0
    assert slow_peak > 0  # the diagnostic side really kept one
    assert fast.documents() == slow.documents()
    assert [e.executed_op_ids for e in fast.endpoints()] == [
        e.executed_op_ids for e in slow.endpoints()]
    assert len(fast.notifier.executed_op_ids) == 200
    fast_wire, slow_wire = fast.wire_stats(), slow.wire_stats()
    assert fast_wire.messages == slow_wire.messages
    assert fast_wire.total_bytes == slow_wire.total_bytes
    assert fast.sim.processed_events == slow.sim.processed_events
    # one latency per remote execution: 200 at the notifier, 600 at clients
    assert len(fast_latencies) == 800
    assert fast_latencies == slow_latencies
