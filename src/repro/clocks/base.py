"""The clock interface layer: one protocol over every clock family.

Every logical-clock scheme in this codebase answers the same four
questions -- *record a local event*, *timestamp an outgoing message*,
*absorb an incoming timestamp*, *how many resident integers does that
cost* -- but each module grew its own vocabulary for them
(``tick``/``local_event``/``record_local_execution``,
``prepare_send``/``timestamp``, ``receive``/``merge``/
``record_remote_execution``).  :class:`ClockProtocol` is the uniform
surface, and this module provides one adapter per family so the
conformance suite (``tests/unit/test_clock_protocol.py``) can run the
same tick/merge/compare/storage assertions across all of them:

=====================  ============================  ========  =========
family                 wraps                         decides   storage
                                                     online?   (ints)
=====================  ============================  ========  =========
``vector``             :class:`VectorClock`          yes       N
``matrix``             :class:`MatrixClock`          yes       N^2
``sk``                 :class:`SKProcess`            yes       3N
``fz``                 :class:`FZProcess`            no        N + 1
``lamport``            :class:`LamportClock`         no        1
``dimension``          projected :class:`VectorClock`  yes*    |coords|
``compressed``         :class:`ClientStateVector`    no**      2
=====================  ============================  ========  =========

\\* faithful only when the projection keeps all N coordinates -- the
Charron-Bost bound made executable (see :mod:`repro.clocks.dimension`).

\\** standing alone.  The compressed 2-integer timestamp decides
concurrency only *within the star discipline*, where the editor layer
supplies origin metadata to formulas (5)/(7) (see
:mod:`repro.core.concurrency`) -- which is precisely the paper's point:
the notifier's transformation redefines the causality relation so two
integers suffice there, while no context-free 2-integer comparison can
be faithful in general.

``compare`` therefore returns ``None`` for families that cannot decide
online; returning a wrong verdict is the one thing an implementation
must never do, and the conformance suite checks every non-``None``
verdict against the full-vector oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Protocol, runtime_checkable

from repro.clocks.fz import FZProcess
from repro.clocks.lamport import LamportClock
from repro.clocks.matrix import MatrixClock
from repro.clocks.sk import SKMessage, SKProcess
from repro.clocks.vector import Ordering, VectorClock, compare
from repro.core.state_vector import ClientStateVector
from repro.net.transport import INT_WIDTH


@runtime_checkable
class ClockProtocol(Protocol):
    """One site's logical clock, whatever the family.

    Semantics of the four event-facing methods:

    * :meth:`tick` -- record one internal (local) event;
    * :meth:`timestamp` -- record a *send* event toward ``dest`` and
      return the wire timestamp to attach to the message;
    * :meth:`merge` -- record a *receive* event: absorb the wire
      timestamp of a message arriving from ``source``;
    * :meth:`snapshot` -- this family's comparable clock value for the
      current event (full vector, scalar, 2-integer pair, ...).

    :meth:`compare` orders two values previously obtained from
    :meth:`snapshot` and may return ``None`` when the family cannot
    decide online -- never a wrong verdict.  :meth:`storage_ints` and
    :meth:`timestamp_bytes` are the two accounting hooks the CLAIM-MEM
    and CLAIM-OVH benchmarks rely on.
    """

    def tick(self) -> None: ...

    def timestamp(self, dest: int) -> Any: ...

    def merge(self, source: int, wire: Any) -> None: ...

    def snapshot(self) -> Any: ...

    def compare(self, a: Any, b: Any) -> Optional[Ordering]: ...

    def storage_ints(self) -> int: ...

    def timestamp_bytes(self, wire: Any) -> int: ...


class VectorClockSite:
    """Full Fidge/Mattern vector clock (the ground-truth family)."""

    decides_online = True

    def __init__(self, pid: int, n: int) -> None:
        self.pid = pid
        self.vc = VectorClock.zero(n)

    def tick(self) -> None:
        self.vc = self.vc.tick(self.pid)

    def timestamp(self, dest: int) -> VectorClock:
        self.tick()
        return self.vc

    def merge(self, source: int, wire: VectorClock) -> None:
        self.vc = self.vc.merge(wire).tick(self.pid)

    def snapshot(self) -> VectorClock:
        return self.vc

    def compare(self, a: VectorClock, b: VectorClock) -> Optional[Ordering]:
        return compare(a, b)

    def storage_ints(self) -> int:
        return self.vc.storage_ints()

    def timestamp_bytes(self, wire: VectorClock) -> int:
        return wire.size_bytes(INT_WIDTH)


class MatrixClockSite:
    """N x N matrix clock (vector comparison plus stability knowledge)."""

    decides_online = True

    def __init__(self, pid: int, n: int) -> None:
        self.clock = MatrixClock(pid, n)

    def tick(self) -> None:
        self.clock.local_event()

    def timestamp(self, dest: int) -> list[list[int]]:
        return self.clock.prepare_send()

    def merge(self, source: int, wire: list[list[int]]) -> None:
        self.clock.receive(source, wire)

    def snapshot(self) -> VectorClock:
        return self.clock.vector()

    def compare(self, a: VectorClock, b: VectorClock) -> Optional[Ordering]:
        return compare(a, b)

    def storage_ints(self) -> int:
        return self.clock.storage_ints()

    def timestamp_bytes(self, wire: list[list[int]]) -> int:
        return INT_WIDTH * len(wire) * len(wire)


class SKClockSite:
    """Singhal-Kshemkalyani differential compression over FIFO channels."""

    decides_online = True

    def __init__(self, pid: int, n: int) -> None:
        self.process = SKProcess(pid, n)

    def tick(self) -> None:
        self.process.local_event()

    def timestamp(self, dest: int) -> SKMessage:
        return self.process.prepare_send(dest)

    def merge(self, source: int, wire: SKMessage) -> None:
        self.process.receive(wire)

    def snapshot(self) -> VectorClock:
        """The reconstructed full vector -- exact under FIFO delivery."""
        return self.process.vector()

    def compare(self, a: VectorClock, b: VectorClock) -> Optional[Ordering]:
        return compare(a, b)

    def storage_ints(self) -> int:
        return self.process.storage_ints()

    def timestamp_bytes(self, wire: SKMessage) -> int:
        return wire.size_bytes(INT_WIDTH)


class FZClockSite:
    """Fowler-Zwaenepoel direct-dependency tracking: offline family."""

    decides_online = False

    def __init__(self, pid: int, n: int) -> None:
        self.process = FZProcess(pid, n)

    def tick(self) -> None:
        self.process.local_event()

    def timestamp(self, dest: int) -> Any:
        message, _record = self.process.prepare_send()
        return message

    def merge(self, source: int, wire: Any) -> None:
        self.process.receive(wire)

    def snapshot(self) -> tuple[int, int]:
        """Only the event's identity: causality needs the offline pass."""
        return (self.process.pid, self.process.event_index)

    def compare(self, a: Any, b: Any) -> Optional[Ordering]:
        """Undecidable online: FZ needs the whole dependency log (see
        :func:`repro.clocks.fz.reconstruct_vector_times`)."""
        return None

    def storage_ints(self) -> int:
        return self.process.storage_ints()

    def timestamp_bytes(self, wire: Any) -> int:
        return wire.size_bytes(INT_WIDTH)


class LamportClockSite:
    """Scalar Lamport clock: orders events, cannot detect concurrency."""

    decides_online = False

    def __init__(self, pid: int, n: int) -> None:
        self.clock = LamportClock()

    def tick(self) -> None:
        self.clock.tick()

    def timestamp(self, dest: int) -> int:
        return self.clock.send()

    def merge(self, source: int, wire: int) -> None:
        self.clock.receive(wire)

    def snapshot(self) -> int:
        return self.clock.time

    def compare(self, a: int, b: int) -> Optional[Ordering]:
        """Undecidable: ``t(a) < t(b)`` does not imply ``a -> b``."""
        return None

    def storage_ints(self) -> int:
        return self.clock.storage_ints()

    def timestamp_bytes(self, wire: int) -> int:
        return INT_WIDTH


class CompressedClockSite:
    """The paper's 2-integer client state vector, standing alone.

    ``tick`` is a local operation execution (rule 3 of Section 3.2),
    ``merge`` is the execution of an operation propagated from the
    notifier (rule 2), and ``timestamp`` is the compressed 2-element
    wire timestamp -- constant size regardless of system size, the
    headline of the paper.

    ``compare`` returns ``None``: outside the star discipline two
    compressed timestamps carry too little information to decide
    concurrency (two different sites' first operations both carry
    ``[0, 1]``).  Inside it, the editor layer decides via formulas
    (5)/(7) with the origin metadata it holds -- see
    :func:`repro.core.concurrency.client_concurrent` and
    :func:`repro.core.concurrency.notifier_concurrent`.
    """

    decides_online = False

    def __init__(self, pid: int, n: int) -> None:
        # Site ids in the star are 1-based; map pid 0 onto site 1 so the
        # conformance harness can use 0-based pids uniformly.
        self.sv = ClientStateVector(pid + 1)

    def tick(self) -> None:
        self.sv.record_local_execution()

    def timestamp(self, dest: int) -> Any:
        self.tick()
        return self.sv.timestamp()

    def merge(self, source: int, wire: Any) -> None:
        self.sv.record_remote_execution()

    def snapshot(self) -> Any:
        return self.sv.timestamp()

    def compare(self, a: Any, b: Any) -> Optional[Ordering]:
        return None

    def storage_ints(self) -> int:
        return self.sv.storage_ints()

    def timestamp_bytes(self, wire: Any) -> int:
        return wire.size_bytes()


@dataclass(frozen=True)
class ClockFamily:
    """A registered clock family for the conformance suite."""

    name: str
    factory: Callable[[int, int], ClockProtocol]  # (pid, n) -> clock
    decides_online: bool
    storage_formula: Callable[[int], int]  # n -> expected storage_ints


def _clock_families() -> tuple[ClockFamily, ...]:
    # Imported here: dimension depends on vector, which this module also
    # re-exports; keeping the import local avoids ordering surprises.
    from repro.clocks.dimension import ProjectedClockSite

    return (
        ClockFamily("vector", VectorClockSite, True, lambda n: n),
        ClockFamily("matrix", MatrixClockSite, True, lambda n: n * n),
        ClockFamily("sk", SKClockSite, True, lambda n: 3 * n),
        ClockFamily("fz", FZClockSite, False, lambda n: n + 1),
        ClockFamily("lamport", LamportClockSite, False, lambda n: 1),
        ClockFamily(
            "dimension",
            lambda pid, n: ProjectedClockSite(pid, n, tuple(range(n))),
            True,
            lambda n: n,
        ),
        ClockFamily("compressed", CompressedClockSite, False, lambda n: 2),
    )


CLOCK_FAMILIES: tuple[ClockFamily, ...] = _clock_families()
