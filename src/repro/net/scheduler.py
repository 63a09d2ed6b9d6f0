"""The scheduler abstraction: virtual time and wall-clock time, one seam.

Every layer of the protocol stack that needs *time* -- FIFO channel
delivery, retransmit timers, liveness-probe heartbeats, fault-plan
outage windows, session run loops -- talks to a :class:`Scheduler`, not
to the discrete-event :class:`~repro.net.simulator.Simulator` directly.
Two implementations satisfy the protocol:

* :class:`repro.net.simulator.Simulator` -- deterministic virtual time.
  Every experiment, test and benchmark runs here; a seed reproduces an
  execution exactly.
* :class:`AsyncioScheduler` (below) -- wall-clock time over an asyncio
  event loop.  The cluster harness (:mod:`repro.cluster`) runs the
  *identical* editor classes over real TCP sockets with this scheduler;
  retransmit timers and probe heartbeats become ``loop.call_later``
  deadlines.

The protocol is structural (:class:`typing.Protocol`): ``Simulator``
predates it and conforms without inheriting anything.  Contract, shared
by both implementations and pinned by the conformance suite
(``tests/unit/test_scheduler_conformance.py``):

* ``now`` is a monotonically non-decreasing float, starting near 0;
* callbacks scheduled for the same deadline fire in scheduling order;
* ``schedule`` refuses times in the past and ``schedule_after`` refuses
  negative delays (:class:`SchedulingError`);
* ``cancel`` is O(1) and idempotent (lazy removal);
* ``run`` drives the loop to quiescence, a time bound, or an event
  budget, and returns the number of callbacks executed.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, runtime_checkable


class SchedulingError(RuntimeError):
    """Raised on scheduler misuse (scheduling in the past, nested runs)."""


@runtime_checkable
class Scheduler(Protocol):
    """What the protocol stack sees of time (structural typing).

    ``schedule``/``schedule_after`` return an opaque cancellation handle
    accepted by ``cancel``; handles are single-use and cancellation is
    idempotent.  ``next_message_id`` allocates ids unique within this
    scheduler -- per-scheduler (not process-global) so two sessions in
    one process produce identical id streams for identical seeds.
    """

    @property
    def now(self) -> float: ...

    @property
    def pending_events(self) -> int: ...

    def schedule(self, time: float, callback: Callable[[], None]) -> Any: ...

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> Any: ...

    def cancel(self, event: Any) -> None: ...

    def run(self, until: float | None = None, max_events: int | None = None) -> int: ...

    def next_message_id(self) -> int: ...


@dataclass(order=True)
class _WallEvent:
    """One scheduled callback; ordered by (time, seq) like the simulator's."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class AsyncioScheduler:
    """Wall-clock :class:`Scheduler` over an asyncio event loop.

    Keeps its **own** ``(time, seq)`` heap rather than one asyncio timer
    per callback: asyncio's ``TimerHandle`` ordering is undefined for
    equal deadlines, while the scheduler contract requires
    scheduling-order execution (the reliability protocol arms several
    timers per virtual instant and the conformance suite pins the
    order).  A single ``call_later`` handle is armed for the earliest
    deadline; when it fires, every due event runs in heap order and the
    handle re-arms.

    ``now`` is seconds since construction (``loop.time()`` minus an
    epoch), so wall-clock sessions start near ``t = 0`` like simulated
    ones.  Two modes of driving the heap coexist:

    * **owned loop** (constructed outside any running loop): ``run()``
      drives the loop until quiescence / a bound, mirroring
      ``Simulator.run``;
    * **shared loop** (constructed inside a running loop, e.g. a cluster
      process): the armed handle fires due events while the surrounding
      coroutines run; calling ``run()`` here raises
      :class:`SchedulingError` (the loop is already being driven).
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        if loop is None:
            try:
                loop = asyncio.get_running_loop()
            except RuntimeError:
                loop = asyncio.new_event_loop()
        self._loop = loop
        self._epoch = loop.time()
        self._queue: list[_WallEvent] = []
        self._seq = itertools.count()
        self._pending = 0
        self._processed = 0
        self._message_ids = itertools.count()
        self._handle: Optional[asyncio.TimerHandle] = None
        self._budget: Optional[int] = None  # run()'s max_events, while active

    # -- clock -------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Seconds of wall-clock time since this scheduler was built."""
        return self._loop.time() - self._epoch

    @property
    def pending_events(self) -> int:
        """Callbacks scheduled but not yet executed (O(1) live counter)."""
        return self._pending

    @property
    def processed_events(self) -> int:
        """Total callbacks executed so far."""
        return self._processed

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The event loop this scheduler schedules on."""
        return self._loop

    def next_message_id(self) -> int:
        """Allocate a message id unique within this scheduler."""
        return next(self._message_ids)

    # -- scheduling --------------------------------------------------------------

    def schedule(self, time: float, callback: Callable[[], None]) -> _WallEvent:
        """Schedule ``callback`` at absolute scheduler time ``time``."""
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self._push(time, callback)

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> _WallEvent:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        # ``now`` is read once: re-checking inside ``schedule`` could see
        # the wall clock already past ``now + 0`` and raise spuriously.
        return self._push(self.now + delay, callback)

    def cancel(self, event: _WallEvent) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        if not event.cancelled:
            event.cancelled = True
            self._pending -= 1

    def _push(self, time: float, callback: Callable[[], None]) -> _WallEvent:
        event = _WallEvent(time=time, seq=next(self._seq), callback=callback)
        heapq.heappush(self._queue, event)
        self._pending += 1
        # The armed timer already points at the earliest deadline unless
        # this event took the head (or nothing is armed: first event, or
        # a push from inside a callback, which _fire re-arms after).
        if self._handle is None or self._queue[0] is event:
            self._rearm()
        return event

    # -- firing ------------------------------------------------------------------

    def _peek(self) -> Optional[_WallEvent]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def _rearm(self) -> None:
        """Point the single asyncio timer at the earliest live deadline."""
        head = self._peek()
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if head is not None:
            self._handle = self._loop.call_later(
                max(0.0, head.time - self.now), self._fire
            )

    def _fire(self) -> int:
        """Run every due event in (time, seq) order; re-arm; return count."""
        self._handle = None
        ran = 0
        while True:
            head = self._peek()
            if head is None or head.time > self.now:
                break
            if self._budget is not None and self._budget <= 0:
                break
            heapq.heappop(self._queue)
            self._pending -= 1
            if self._budget is not None:
                self._budget -= 1
            head.callback()
            self._processed += 1
            ran += 1
        self._rearm()
        return ran

    # -- driving (owned-loop mode) -----------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run to quiescence, a time bound, or an event-count bound.

        Returns the number of callbacks executed by this call.  Only
        valid when this scheduler owns its loop; inside a running loop
        the surrounding coroutines drive the armed timer instead.
        """
        if self._loop.is_running():
            raise SchedulingError(
                "run() cannot be nested inside the running event loop; "
                "await the workload's own coroutines instead"
            )
        start = self._processed
        self._budget = max_events
        try:
            self._loop.run_until_complete(self._drain(until))
        finally:
            self._budget = None
        return self._processed - start

    async def _drain(self, until: float | None) -> None:
        while True:
            self._fire()
            head = self._peek()
            if head is None:
                return
            if until is not None and head.time > until:
                return
            if self._budget is not None and self._budget <= 0:
                return
            await asyncio.sleep(max(0.0, head.time - self.now))
