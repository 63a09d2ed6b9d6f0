"""Conformance suite for the Scheduler protocol (ISSUE 7, satellite 3).

Both implementations -- the discrete-event ``Simulator`` and the
wall-clock ``AsyncioScheduler`` -- must satisfy one behavioural
contract, because the editor classes run unmodified over either.  The
suite is parametrized over the two; any divergence is a bug in the
newcomer, since the simulator's semantics are the repo's ground truth.
"""

from __future__ import annotations

import pytest

from repro.net.scheduler import AsyncioScheduler, Scheduler, SchedulingError
from repro.net.simulator import SimulationError, Simulator


@pytest.fixture(params=["simulator", "asyncio"])
def sched(request):
    if request.param == "simulator":
        return Simulator()
    return AsyncioScheduler()


def test_satisfies_protocol(sched) -> None:
    assert isinstance(sched, Scheduler)


def test_now_starts_near_zero(sched) -> None:
    assert 0.0 <= sched.now < 0.5


def test_same_deadline_fires_in_scheduling_order(sched) -> None:
    order: list[int] = []
    deadline = sched.now + 0.01
    for i in range(5):
        sched.schedule(deadline, lambda i=i: order.append(i))
    sched.run()
    assert order == [0, 1, 2, 3, 4]


def test_earlier_deadline_fires_first_regardless_of_insertion(sched) -> None:
    order: list[str] = []
    base = sched.now
    sched.schedule(base + 0.03, lambda: order.append("late"))
    sched.schedule(base + 0.01, lambda: order.append("early"))
    sched.run()
    assert order == ["early", "late"]


def test_cancel_prevents_execution_and_is_idempotent(sched) -> None:
    fired: list[int] = []
    handle = sched.schedule_after(0.01, lambda: fired.append(1))
    keeper = sched.schedule_after(0.01, lambda: fired.append(2))
    sched.cancel(handle)
    sched.cancel(handle)  # second cancel must be a no-op
    sched.run()
    assert fired == [2]
    assert keeper is not None


def test_pending_events_counts_cancellations(sched) -> None:
    handles = [sched.schedule_after(0.01, lambda: None) for _ in range(4)]
    assert sched.pending_events == 4
    sched.cancel(handles[0])
    assert sched.pending_events == 3
    sched.run()
    assert sched.pending_events == 0


def test_run_returns_processed_count(sched) -> None:
    for _ in range(3):
        sched.schedule_after(0.01, lambda: None)
    assert sched.run() == 3
    assert sched.run() == 0  # drained


def test_run_honours_max_events(sched) -> None:
    fired: list[int] = []
    for i in range(5):
        sched.schedule_after(0.01 + i * 0.001, lambda i=i: fired.append(i))
    assert sched.run(max_events=2) == 2
    assert fired == [0, 1]
    assert sched.run() == 3
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_in_the_past_raises(sched) -> None:
    with pytest.raises(SchedulingError):
        sched.schedule(sched.now - 1.0, lambda: None)


def test_negative_delay_raises(sched) -> None:
    with pytest.raises(SchedulingError):
        sched.schedule_after(-0.5, lambda: None)


def test_schedule_after_advances_now_monotonically(sched) -> None:
    stamps: list[float] = []
    sched.schedule_after(0.01, lambda: stamps.append(sched.now))
    sched.schedule_after(0.02, lambda: stamps.append(sched.now))
    sched.run()
    assert len(stamps) == 2
    assert stamps[0] <= stamps[1]
    assert all(s >= 0.01 - 1e-9 for s in stamps)


def test_callbacks_may_schedule_more_work(sched) -> None:
    order: list[str] = []

    def second() -> None:
        order.append("second")

    def first() -> None:
        order.append("first")
        sched.schedule_after(0.01, second)

    sched.schedule_after(0.01, first)
    sched.run()
    assert order == ["first", "second"]


def test_message_ids_are_unique_and_monotonic(sched) -> None:
    ids = [sched.next_message_id() for _ in range(10)]
    assert ids == sorted(set(ids))


def test_simulation_error_is_a_scheduling_error() -> None:
    # Call sites catching SchedulingError work under either scheduler.
    assert issubclass(SimulationError, SchedulingError)


def test_asyncio_run_rejects_reentry() -> None:
    import asyncio

    async def body() -> None:
        sched = AsyncioScheduler()
        with pytest.raises(SchedulingError):
            sched.run()

    asyncio.run(body())


def test_asyncio_push_rearms_only_when_the_head_changes() -> None:
    """One ``call_later`` handle serves the heap: a push behind the armed
    deadline must not cancel and re-create it (every ack-progress restart
    of a retransmit timer would otherwise pay for both)."""
    sched = AsyncioScheduler()
    order: list[str] = []
    try:
        sched.schedule_after(0.02, lambda: order.append("head"))
        armed = sched._handle
        assert armed is not None
        sched.schedule_after(0.04, lambda: order.append("later"))
        assert sched._handle is armed
        sched.schedule_after(0.01, lambda: order.append("earlier"))
        assert sched._handle is not armed and armed.cancelled()
        sched.run()
    finally:
        sched.loop.close()
    assert order == ["earlier", "head", "later"]
    assert sched._handle is None and sched.pending_events == 0


def test_asyncio_cancelled_head_still_fires_what_was_pushed_behind_it() -> None:
    """Lazy cancellation leaves the handle on a dead deadline; the event
    pushed behind it must still run, at its own time."""
    sched = AsyncioScheduler()
    fired: list[float] = []
    try:
        head = sched.schedule_after(0.01, lambda: fired.append(-1.0))
        sched.cancel(head)
        sched.schedule_after(0.03, lambda: fired.append(sched.now))
        sched.run()
    finally:
        sched.loop.close()
    assert len(fired) == 1 and fired[0] >= 0.03
