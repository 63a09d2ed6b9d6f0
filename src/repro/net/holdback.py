"""A shared hold-back queue for per-sender ordered delivery.

Both delivery disciplines in this codebase are *per-sender sequenced*:

* the reliability transport (:mod:`repro.net.reliability`) releases each
  peer's packets in exact sequence order (``0, 1, 2, ...``), holding
  back anything that arrives above the next expected seq until
  retransmission fills the gap;
* the mesh editor (:mod:`repro.editor.mesh`) delivers causal broadcasts:
  an operation from site ``s`` with per-site index ``k`` is deliverable
  once the local clock expects exactly ``k`` from ``s`` *and* an extra
  cross-stream predicate holds (every other component of its vector
  clock is already covered).

Both previously kept their own ad-hoc buffers; the mesh one was a flat
list rescanned in full on every delivery attempt -- O(held^2) on a long
causal chain.  This queue indexes items by ``(stream, seq)`` so the
transport pops exact sequence numbers in O(1), and the mesh drain only
ever probes each stream's *next expected* item instead of rescanning
everything held (O(deliveries x streams) worst case).
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Iterator, Optional, TypeVar

T = TypeVar("T")

Stream = Hashable


class HoldbackOverflow(RuntimeError):
    """The hold-back queue exceeded its configured capacity.

    An unbounded reorder buffer turns a long outage into unbounded
    memory growth: every packet that arrives above the gap is held
    forever while retransmissions fail to fill it.  A bounded queue
    instead fails loudly at its high-water mark, which the caller can
    surface (the reliability transport emits a ``holdback_overflow``
    trace event before re-raising).
    """

    def __init__(self, stream: Stream, seq: int, capacity: int) -> None:
        super().__init__(
            f"hold-back queue over capacity {capacity}: cannot hold "
            f"(stream={stream!r}, seq={seq})"
        )
        self.stream = stream
        self.seq = seq
        self.capacity = capacity


class HoldbackQueue(Generic[T]):
    """Out-of-order items indexed by ``(stream, seq)`` until deliverable.

    ``max_held`` records the peak simultaneous occupancy over the
    queue's lifetime -- the observability layer reports it as the
    high-water mark of the reorder buffer.  ``capacity`` bounds that
    occupancy: holding an item beyond it raises
    :class:`HoldbackOverflow` instead of growing without limit
    (``None`` keeps the legacy unbounded behaviour).
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive or None, got {capacity}")
        self.capacity = capacity
        self._streams: dict[Stream, dict[int, T]] = {}
        self._held = 0
        self.max_held = 0

    def hold(self, stream: Stream, seq: int, item: T) -> bool:
        """Buffer ``item`` at ``(stream, seq)``.

        Returns False (and keeps the original) if that slot is already
        held -- the duplicate-detection the reliability layer counts.
        Raises :class:`HoldbackOverflow` if holding the item would
        exceed ``capacity``.
        """
        slots = self._streams.setdefault(stream, {})
        if seq in slots:
            return False
        if self.capacity is not None and self._held >= self.capacity:
            if not slots:
                del self._streams[stream]
            raise HoldbackOverflow(stream, seq, self.capacity)
        slots[seq] = item
        self._held += 1
        if self._held > self.max_held:
            self.max_held = self._held
        return True

    def pop(self, stream: Stream, seq: int) -> Optional[T]:
        """Remove and return the item held at ``(stream, seq)``, if any."""
        slots = self._streams.get(stream)
        if slots is None:
            return None
        item = slots.pop(seq, None)
        if item is not None:
            self._held -= 1
            if not slots:
                del self._streams[stream]
        return item

    def holds(self, stream: Stream) -> bool:
        """True iff anything is held for ``stream``: its consumer sits at a gap."""
        return stream in self._streams

    def clear(self, stream: Optional[Stream] = None) -> int:
        """Drop everything held for ``stream`` (or all streams).

        Used on epoch resets: a peer's restart voids its previous
        incarnation's reorder buffer.  Returns the number dropped.
        """
        if stream is None:
            dropped = self._held
            self._streams = {}
            self._held = 0
            return dropped
        slots = self._streams.pop(stream, None)
        if slots is None:
            return 0
        self._held -= len(slots)
        return len(slots)

    def drain(
        self,
        next_seq: Callable[[Stream], int],
        ready: Optional[Callable[[T], bool]] = None,
    ) -> Iterator[T]:
        """Yield deliverable items until none remains deliverable.

        ``next_seq(stream)`` must return the seq the consumer currently
        expects on that stream; it is re-evaluated after every yield, so
        consuming an item (which typically advances the consumer's
        clock) immediately exposes its successors.  ``ready`` is an
        optional extra gate evaluated on the head item (the mesh's
        cross-stream causality check).

        Only stream *heads* are probed -- never the whole buffer -- which
        is what fixes the O(held^2) rescan the mesh editor used to do.
        """
        progressed = True
        while progressed:
            progressed = False
            for stream in list(self._streams):
                while True:
                    slots = self._streams.get(stream)
                    if slots is None:
                        break
                    want = next_seq(stream)
                    item = slots.get(want)
                    if item is None or (ready is not None and not ready(item)):
                        break
                    self.pop(stream, want)
                    yield item
                    progressed = True

    @property
    def depth(self) -> int:
        """Items currently held, as an explicit gauge for telemetry.

        Identical to ``len(queue)``; named so gauge-collection code
        reads as what it measures rather than a container protocol.
        """
        return self._held

    def __len__(self) -> int:
        return self._held

    def __bool__(self) -> bool:
        return self._held > 0
