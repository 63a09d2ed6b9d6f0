"""Singhal-Kshemkalyani differential vector-clock compression.

Implementation of the paper's reference [13] (Singhal & Kshemkalyani,
"An efficient implementation of vector clocks", IPL 1992), used as the
*dynamic compression* baseline in the CLAIM-OVH and CLAIM-MEM
benchmarks.

Technique
---------
Instead of sending its whole vector, a process ``i`` sends to ``j`` only
the entries that changed since the previous message from ``i`` to ``j``,
as ``(index, value)`` pairs.  Each process therefore maintains, besides
its vector clock ``VC``:

* ``LS[j]`` ("last sent") -- the value of ``VC[i]`` when ``i`` last sent
  a message to ``j``;
* ``LU[k]`` ("last update") -- the value of ``VC[i]`` when entry ``k``
  last changed.

Entry ``k`` must be included in a message to ``j`` iff
``LU[k] > LS[j]``.  The receiver merges the pairs into its own vector;
because channels are FIFO, the merge reconstructs exactly the vector
time the full algorithm would produce.

The technique needs **FIFO channels** and, in the worst case (a process
that talks to everyone rarely), still sends ``N`` pairs -- the behaviour
the paper contrasts with its constant-size-2 scheme.  Storage is three
N-vectors per process (``VC``, ``LS``, ``LU``), which the CLAIM-MEM
benchmark measures against the paper's two integers per client.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clocks.vector import VectorClock


@dataclass(frozen=True)
class SKMessage:
    """A differential timestamp: the changed entries only."""

    sender: int
    entries: tuple[tuple[int, int], ...]  # (index, value) pairs

    def size_bytes(self, int_width: int = 4) -> int:
        """Wire size: one (index, value) pair per entry."""
        return 2 * int_width * len(self.entries)


@dataclass
class SKProcess:
    """One process running the Singhal-Kshemkalyani protocol."""

    pid: int
    n: int
    vc: list[int] = field(init=False)
    last_sent: list[int] = field(init=False)  # LS, indexed by destination
    last_update: list[int] = field(init=False)  # LU, indexed by entry

    def __post_init__(self) -> None:
        if not 0 <= self.pid < self.n:
            raise ValueError(f"pid {self.pid} out of range for n={self.n}")
        self.vc = [0] * self.n
        self.last_sent = [0] * self.n
        self.last_update = [0] * self.n

    def local_event(self) -> None:
        """An internal event: advance own entry."""
        self.vc[self.pid] += 1
        self.last_update[self.pid] = self.vc[self.pid]

    def prepare_send(self, dest: int) -> SKMessage:
        """Timestamp an outgoing message to ``dest`` (counts as an event)."""
        if not 0 <= dest < self.n:
            raise ValueError(f"destination {dest} out of range for n={self.n}")
        if dest == self.pid:
            raise ValueError("a process does not send to itself")
        self.local_event()
        entries = tuple(
            (k, self.vc[k])
            for k in range(self.n)
            if self.last_update[k] > self.last_sent[dest]
        )
        self.last_sent[dest] = self.vc[self.pid]
        return SKMessage(sender=self.pid, entries=entries)

    def receive(self, message: SKMessage) -> None:
        """Merge an incoming differential timestamp (a receive event)."""
        self.vc[self.pid] += 1
        self.last_update[self.pid] = self.vc[self.pid]
        for index, value in message.entries:
            if not 0 <= index < self.n:
                raise ValueError(f"entry index {index} out of range for n={self.n}")
            if value > self.vc[index]:
                self.vc[index] = value
                self.last_update[index] = self.vc[self.pid]

    def vector(self) -> VectorClock:
        """Current vector time as an immutable snapshot."""
        return VectorClock(tuple(self.vc))

    def storage_ints(self) -> int:
        """Resident clock-state integers (three N-vectors)."""
        return 3 * self.n
