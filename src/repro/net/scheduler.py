"""The scheduler abstraction: one event queue, two clocks.

Every layer of the protocol stack that needs *time* -- FIFO channel
delivery, retransmit timers, liveness-probe heartbeats, fault-plan
outage windows, session run loops -- talks to a :class:`Scheduler`, not
to the discrete-event :class:`~repro.net.simulator.Simulator` directly.
Two implementations satisfy the protocol, and they share one queue:

* :class:`repro.net.simulator.Simulator` -- deterministic virtual time.
  Every experiment, test and benchmark runs here; a seed reproduces an
  execution exactly.
* :class:`AsyncioScheduler` (below) -- the simulator's queue on the
  running asyncio loop's clock.  The cluster harness
  (:mod:`repro.cluster`) runs the *identical* editor classes over real
  TCP sockets with this scheduler.

Contract, pinned for both by the conformance suite
(``tests/unit/test_scheduler_conformance.py``):

* ``now`` is a monotonically non-decreasing float, starting near 0;
* callbacks fire in ``(time, seq)`` order: by deadline, then in
  scheduling order;
* ``schedule`` refuses times in the past and ``schedule_after`` refuses
  negative delays (:class:`~repro.net.simulator.SchedulingError`);
* ``schedule(time, callback, *args)`` calls ``callback(*args)``, as
  asyncio's ``call_at`` does (a bound method, not a closure per event);
* ``cancel`` is O(1), idempotent and a no-op once the event fired;
* ``Simulator.run`` drives virtual time to quiescence, a time bound or
  an event budget; an ``AsyncioScheduler`` is driven by its loop and
  refuses ``run()``.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.net.simulator import SchedulingError, Simulator


@runtime_checkable
class Scheduler(Protocol):
    """What the protocol stack sees of time (structural typing).

    ``schedule``/``schedule_after`` return an opaque cancellation handle
    accepted by ``cancel``; cancelling is idempotent, and a no-op once the
    event fired.  ``next_message_id`` allocates ids unique within this
    scheduler -- per-scheduler (not process-global) so two sessions in
    one process produce identical id streams for identical seeds;
    ``peek_message_id`` is the next one, not yet allocated.
    """

    @property
    def now(self) -> float: ...

    @property
    def pending_events(self) -> int: ...

    def schedule(self, time: float, callback: Callable[..., None], *args: Any) -> Any: ...

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> Any: ...

    def cancel(self, event: Any) -> None: ...

    def run(self, until: float | None = None, max_events: int | None = None) -> int: ...

    def next_message_id(self) -> int: ...

    def peek_message_id(self) -> int: ...


class AsyncioScheduler(Simulator):
    """The :class:`Simulator`'s queue, fired by the running loop's clock.

    Built inside a running event loop, which drives it; ``run()`` is
    refused.  ``now`` is seconds since construction, so a wall-clock
    session starts near ``t = 0`` like a simulated one.

    The loop holds one timer handle, on the earliest live deadline, not
    one per event: asyncio orders equal deadlines arbitrarily, the
    contract orders them by scheduling.  A push re-arms the handle only
    when it takes the head.  A firing runs the events due at the instant
    it began; what their callbacks schedule for later waits for the
    re-armed handle.  The handle re-arms even when a callback raises:
    the exception reaches the loop's exception handler, and the rest of
    the queue still fires.
    """

    def __init__(self) -> None:
        super().__init__()
        self._loop = asyncio.get_running_loop()
        self._epoch = self._loop.time()
        self._handle: Optional[asyncio.TimerHandle] = None

    @property
    def now(self) -> float:
        """Seconds of wall-clock time since this scheduler was built."""
        return self._loop.time() - self._epoch

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        raise SchedulingError(
            "an AsyncioScheduler is driven by its running event loop; "
            "await the workload's own coroutines instead of run()"
        )

    def _push(self, time: float, callback: Callable[..., None], args: tuple) -> list[Any]:
        entry = super()._push(time, callback, args)
        # The armed handle already points at the earliest deadline unless
        # this event took the head (or nothing is armed: the first event,
        # or a push from a callback, which _fire re-arms after).
        if self._handle is None or self._queue[0] is entry:
            self._rearm()
        return entry

    def _rearm(self) -> None:
        """Point the loop's one handle at the earliest live deadline."""
        queue = self._queue
        while queue and queue[0][2] is None:  # cancelled
            heapq.heappop(queue)
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
        if queue:
            self._handle = self._loop.call_at(self._epoch + queue[0][0], self._fire)

    def _fire(self) -> None:
        self._handle = None
        try:
            Simulator.run(self, until=self.now)
        finally:
            self._rearm()
