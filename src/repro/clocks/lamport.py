"""Scalar Lamport clocks (Lamport, CACM 1978).

Included for two reasons:

* the mesh baseline editor needs a deterministic total order extending
  causality; ``(lamport, site_id)`` provides one;
* the benchmarks contrast the three timestamp families -- scalar (cannot
  detect concurrency), full vector (can, at O(N) bytes) and the paper's
  compressed vector (can, at O(1) bytes in a star topology).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LamportClock:
    """A mutable scalar logical clock for one process."""

    time: int = 0

    def tick(self) -> int:
        """Advance for a local event; returns the new timestamp."""
        self.time += 1
        return self.time

    def send(self) -> int:
        """Timestamp an outgoing message (counts as a local event)."""
        return self.tick()

    def receive(self, message_time: int) -> int:
        """Merge an incoming message timestamp; returns the new time."""
        if message_time < 0:
            raise ValueError(f"message timestamp must be >= 0, got {message_time}")
        self.time = max(self.time, message_time) + 1
        return self.time

