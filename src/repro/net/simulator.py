"""A minimal deterministic discrete-event simulator.

The binary heap holds ``(time, tie_break, event)`` tuples; the tie-break
is a monotonically increasing sequence number, so simultaneous events
fire in scheduling order and a given seed always reproduces the same
execution -- the property every experiment in EXPERIMENTS.md depends
on.  It is also unique, so a heap sift settles on the first two
elements (a float and an int, compared in C) and never looks at the
event or its callback.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.net.scheduler import SchedulingError


class SimulationError(SchedulingError):
    """Raised on scheduling misuse (e.g. scheduling in the past).

    Subclasses :class:`~repro.net.scheduler.SchedulingError` so callers
    holding a generic :class:`~repro.net.scheduler.Scheduler` can catch
    misuse without knowing which implementation is behind it.
    """


class _ScheduledEvent:
    """The handle ``schedule`` returns and ``cancel`` takes."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Callable[[], None]) -> None:
        self.callback = callback
        self.cancelled = False


class Simulator:
    """Event loop with virtual time.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: ...)
        sim.run()           # run to quiescence
        sim.run(until=10.0) # or bounded

    Callbacks may schedule further events; time never flows backwards.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._pending = 0  # live count of scheduled, non-cancelled events
        self._message_ids = itertools.count()

    def next_message_id(self) -> int:
        """Allocate a message id unique within this simulation.

        Per-simulator (not process-global) so two sessions built in the
        same process produce identical id streams for identical seeds.
        """
        return next(self._message_ids)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Events scheduled but not yet executed (O(1) live counter)."""
        return self._pending

    def schedule(self, time: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Schedule ``callback`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        event = _ScheduledEvent(callback)
        heapq.heappush(self._queue, (time, next(self._seq), event))
        self._pending += 1
        return event

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> _ScheduledEvent:
        """Schedule ``callback`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, callback)

    def cancel(self, event: _ScheduledEvent) -> None:
        """Cancel a previously scheduled event (lazy removal)."""
        if not event.cancelled:
            event.cancelled = True
            self._pending -= 1

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        while self._queue:
            time, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._pending -= 1
            self._now = time
            event.callback()
            self._processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run to quiescence, a time bound, or an event-count bound.

        Returns the number of events executed by this call.
        """
        executed = 0
        while self._queue:
            time, _, head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        if until is not None and self._now < until and not self._queue:
            self._now = until
        return executed
