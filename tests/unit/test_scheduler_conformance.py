"""Conformance suite for the Scheduler protocol.

Both implementations -- the discrete-event ``Simulator`` and the
wall-clock ``AsyncioScheduler`` -- must satisfy one behavioural
contract, because the editor classes run unmodified over either.  Every
contract case runs on both, each inside ``asyncio.run``: the simulator
is drained by ``run()``, the wall-clock scheduler the way every caller
drives it -- built inside the running loop and awaited until its queue
is empty.  The simulator's semantics are the repo's ground truth.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.scheduler import AsyncioScheduler, Scheduler
from repro.net.simulator import SchedulingError, Simulator


async def drain(sched: Scheduler) -> int:
    """Run every pending event; return how many ran."""
    if not isinstance(sched, AsyncioScheduler):
        return sched.run()
    start = sched.processed_events
    while sched.pending_events:
        await asyncio.sleep(0.001)
    return sched.processed_events - start


@pytest.fixture(params=["simulator", "asyncio"])
def on(request):
    """``on(body)`` awaits ``body(sched)`` on a scheduler built inside
    a running loop."""
    make = Simulator if request.param == "simulator" else AsyncioScheduler

    def run(body) -> None:
        async def main() -> None:
            await body(make())

        asyncio.run(main())

    return run


def test_satisfies_protocol(on) -> None:
    async def body(sched) -> None:
        assert isinstance(sched, Scheduler)

    on(body)


def test_now_starts_near_zero(on) -> None:
    async def body(sched) -> None:
        assert 0.0 <= sched.now < 0.5

    on(body)


def test_same_deadline_fires_in_scheduling_order(on) -> None:
    async def body(sched) -> None:
        order: list[int] = []
        deadline = sched.now + 0.01
        for i in range(5):
            sched.schedule(deadline, lambda i=i: order.append(i))
        await drain(sched)
        assert order == [0, 1, 2, 3, 4]

    on(body)


def test_earlier_deadline_fires_first_regardless_of_insertion(on) -> None:
    async def body(sched) -> None:
        order: list[str] = []
        base = sched.now
        sched.schedule(base + 0.03, lambda: order.append("late"))
        sched.schedule(base + 0.01, lambda: order.append("early"))
        await drain(sched)
        assert order == ["early", "late"]

    on(body)


def test_cancel_prevents_execution_and_is_idempotent(on) -> None:
    async def body(sched) -> None:
        fired: list[int] = []
        handle = sched.schedule_after(0.01, lambda: fired.append(1))
        sched.schedule_after(0.01, lambda: fired.append(2))
        sched.cancel(handle)
        sched.cancel(handle)  # second cancel must be a no-op
        await drain(sched)
        assert fired == [2]

    on(body)


def test_cancelling_a_fired_event_is_a_no_op(on) -> None:
    """A handle outlives its event: cancelling it after it fired must
    not uncount the event still queued (``quiescent()`` and the
    cluster's ``queue_depth`` gauge read the counter)."""
    async def body(sched) -> None:
        fired: list[str] = []
        first = sched.schedule_after(0.01, lambda: fired.append("first"))
        sched.schedule_after(0.05, lambda: fired.append("second"))
        while not fired:  # the first event, and only it
            if isinstance(sched, AsyncioScheduler):
                await asyncio.sleep(0.001)
            else:
                sched.run(max_events=1)
        sched.cancel(first)
        assert fired == ["first"] and sched.pending_events == 1
        await drain(sched)
        assert fired == ["first", "second"] and sched.pending_events == 0

    on(body)


def test_arguments_reach_the_callback(on) -> None:
    """``schedule(time, callback, *args)`` calls ``callback(*args)``, as
    asyncio's ``call_at`` does; a zero-argument callback is unchanged."""
    async def body(sched) -> None:
        calls: list[object] = []
        sched.schedule(sched.now + 0.01, calls.append, "at")
        sched.schedule_after(0.02, lambda *args: calls.append(args), 1, (2,))
        sched.schedule_after(0.03, lambda: calls.append("bare"))
        handle = sched.schedule_after(0.03, calls.append, "cancelled")
        sched.cancel(handle)
        assert await drain(sched) == 3
        assert calls == ["at", (1, (2,)), "bare"]

    on(body)


def test_pending_events_counts_cancellations(on) -> None:
    async def body(sched) -> None:
        handles = [sched.schedule_after(0.01, lambda: None) for _ in range(4)]
        assert sched.pending_events == 4
        sched.cancel(handles[0])
        assert sched.pending_events == 3
        await drain(sched)
        assert sched.pending_events == 0

    on(body)


def test_run_returns_processed_count(on) -> None:
    async def body(sched) -> None:
        for _ in range(3):
            sched.schedule_after(0.01, lambda: None)
        assert await drain(sched) == 3
        assert await drain(sched) == 0  # drained
        assert sched.processed_events == 3

    on(body)


def test_schedule_in_the_past_raises(on) -> None:
    async def body(sched) -> None:
        with pytest.raises(SchedulingError):
            sched.schedule(sched.now - 1.0, lambda: None)

    on(body)


def test_negative_delay_raises(on) -> None:
    async def body(sched) -> None:
        with pytest.raises(SchedulingError):
            sched.schedule_after(-0.5, lambda: None)

    on(body)


def test_schedule_after_advances_now_monotonically(on) -> None:
    async def body(sched) -> None:
        stamps: list[float] = []
        sched.schedule_after(0.01, lambda: stamps.append(sched.now))
        sched.schedule_after(0.02, lambda: stamps.append(sched.now))
        await drain(sched)
        assert len(stamps) == 2
        assert stamps[0] <= stamps[1]
        assert all(s >= 0.01 - 1e-9 for s in stamps)

    on(body)


def test_callbacks_may_schedule_more_work(on) -> None:
    async def body(sched) -> None:
        order: list[str] = []

        def first() -> None:
            order.append("first")
            sched.schedule_after(0.01, lambda: order.append("second"))

        sched.schedule_after(0.01, first)
        await drain(sched)
        assert order == ["first", "second"]

    on(body)


def test_message_ids_are_unique_and_monotonic(on) -> None:
    async def body(sched) -> None:
        ids = [sched.next_message_id() for _ in range(10)]
        assert ids == sorted(set(ids))

    on(body)


def test_run_honours_max_events() -> None:
    sim = Simulator()
    fired: list[int] = []
    for i in range(5):
        sim.schedule_after(0.01 + i * 0.001, lambda i=i: fired.append(i))
    assert sim.run(max_events=2) == 2
    assert fired == [0, 1]
    assert sim.run() == 3
    assert fired == [0, 1, 2, 3, 4]


def test_asyncio_run_is_refused() -> None:
    async def main() -> None:
        sched = AsyncioScheduler()
        sched.schedule_after(0.0, lambda: None)
        with pytest.raises(SchedulingError):
            sched.run()
        await drain(sched)

    asyncio.run(main())


def test_asyncio_push_rearms_only_when_the_head_changes() -> None:
    """One loop handle serves the queue: a push behind the armed deadline
    must not cancel and re-create it (every ack-progress restart of a
    retransmit timer would otherwise pay for both)."""
    order: list[str] = []

    async def main() -> AsyncioScheduler:
        sched = AsyncioScheduler()
        sched.schedule_after(0.02, lambda: order.append("head"))
        armed = sched._handle
        assert armed is not None
        sched.schedule_after(0.04, lambda: order.append("later"))
        assert sched._handle is armed
        sched.schedule_after(0.01, lambda: order.append("earlier"))
        assert sched._handle is not armed and armed.cancelled()
        await drain(sched)
        return sched

    sched = asyncio.run(main())
    assert order == ["earlier", "head", "later"]
    assert sched._handle is None and sched.pending_events == 0


def test_asyncio_cancelled_head_still_fires_what_was_pushed_behind_it() -> None:
    """Lazy cancellation leaves the handle on a dead deadline; the event
    pushed behind it must still run, at its own time."""
    fired: list[float] = []

    async def main() -> None:
        sched = AsyncioScheduler()
        head = sched.schedule_after(0.01, lambda: fired.append(-1.0))
        sched.cancel(head)
        sched.schedule_after(0.03, lambda: fired.append(sched.now))
        await drain(sched)

    asyncio.run(main())
    assert len(fired) == 1 and fired[0] >= 0.03


def test_asyncio_a_raising_callback_does_not_strand_the_queue() -> None:
    """A timer callback that raises stays loud -- the error reaches the
    loop's exception handler -- and every later timer still fires on
    its own, with nothing else scheduled to wake the queue."""
    errors: list[BaseException] = []
    fired: list[int] = []

    def boom() -> None:
        raise ValueError("boom")

    async def main() -> int:
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context["exception"]))
        sched = AsyncioScheduler()
        sched.schedule_after(0.01, boom)
        sched.schedule_after(0.02, lambda: fired.append(2))
        await asyncio.sleep(0.2)
        return sched.pending_events

    assert asyncio.run(main()) == 0
    assert fired == [2]
    assert [type(error) for error in errors] == [ValueError]


def test_asyncio_zero_delay_schedule_after_never_raises() -> None:
    """``schedule_after(0.0, ...)`` reads the wall clock once: a second
    read (a past-check in ``schedule``) would already be later and
    refuse the deadline.  Two thousand awaited zero-delay timers, the
    closed loop perfbench's wire rig runs per op."""

    async def main() -> int:
        sched = AsyncioScheduler()
        loop = asyncio.get_running_loop()
        for _ in range(2000):
            fired = loop.create_future()
            sched.schedule_after(0.0, lambda fired=fired: fired.set_result(None))
            await fired
        return sched.processed_events

    assert asyncio.run(main()) == 2000
