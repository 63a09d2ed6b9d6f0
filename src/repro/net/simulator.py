"""A minimal deterministic discrete-event simulator.

An event is its heap entry, ``[time, seq, callback, args]``; ``seq`` is
a monotonically increasing sequence number, so simultaneous events fire
in scheduling order and a given seed always reproduces the same
execution -- the property every experiment in EXPERIMENTS.md depends
on.  It is also unique, so a heap sift settles on the first two
elements (a float and an int, compared in C) and never looks at the
callback.  The entry is the handle ``schedule`` returns; cancelling or
firing an event empties its callback slot.

This is the repository's one event queue:
:class:`~repro.net.scheduler.AsyncioScheduler` subclasses
:class:`Simulator` and changes only the clock and what fires the queue.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable


class SchedulingError(RuntimeError):
    """Scheduler misuse: a deadline in the past, a negative delay, or
    ``run()`` on a scheduler that its event loop drives."""


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
        self._queue: list[list[Any]] = []  # [time, seq, callback, args]
        self._seq = itertools.count()
        self._now = 0.0
        self._processed = 0
        self._pending = 0  # live count of scheduled, non-cancelled events
        self._next_message_id = 0

    def next_message_id(self) -> int:
        """Allocate a message id unique within this simulation.

        Per-simulator (not process-global) so two sessions built in the
        same process produce identical id streams for identical seeds.
        """
        mid = self._next_message_id
        self._next_message_id = mid + 1
        return mid

    def peek_message_id(self) -> int:
        """The id :meth:`next_message_id` allocates next, left free: a
        sender that may yet refuse a message numbers it with this."""
        return self._next_message_id

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

    def schedule(self, time: float, callback: Callable[..., None], *args: Any) -> list[Any]:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        now = self.now
        if time < now:
            raise SchedulingError(f"cannot schedule at {time} before current time {now}")
        return self._push(time, callback, args)

    def schedule_after(self, delay: float, callback: Callable[..., None], *args: Any) -> list[Any]:
        """Schedule ``callback(*args)`` ``delay`` time units from now.

        ``now`` is read once and not checked again: on a wall clock a
        second read could already be past ``now + 0.0``.
        """
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self._push(self.now + delay, callback, args)

    def _push(self, time: float, callback: Callable[..., None], args: tuple) -> list[Any]:
        entry = [time, next(self._seq), callback, args]
        heapq.heappush(self._queue, entry)
        self._pending += 1
        return entry

    def cancel(self, event: list[Any]) -> None:
        """Cancel a scheduled event (lazy removal); a no-op once it fired."""
        if event[2] is not None:
            event[2] = None
            self._pending -= 1

    def step(self) -> bool:
        """Execute the next event; returns False when the queue is empty."""
        return Simulator.run(self, max_events=1) == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run to quiescence, a time bound, or an event-count bound.

        Returns the number of events executed by this call.
        """
        queue = self._queue
        executed = 0
        while queue:
            entry = queue[0]
            callback = entry[2]
            if callback is None:  # cancelled
                heapq.heappop(queue)
                continue
            if until is not None and entry[0] > until:
                break
            if max_events is not None and executed >= max_events:
                break
            heapq.heappop(queue)
            entry[2] = None  # fired: a late cancel is a no-op
            self._pending -= 1
            self._now = entry[0]
            callback(*entry[3])
            self._processed += 1
            executed += 1
        if until is not None and self._now < until and not queue:
            self._now = until
        return executed
