"""Boundary spans recorded from outside the program.

perfbench never edits ``src/``: every span is taken around a hook the
benchmark can already reach on an object it built -- a callback it owns,
an instance attribute it may rebind (``channel.on_deliver``,
``transport.deliver``, ``transport.send``, ``transport.wire_send``) or a
delegating proxy it puts where the endpoint looks a collaborator up
(``endpoint.ot``, ``endpoint.out_channels[dest]``).

A span is ``(name, start, end, parent, op_id)``; the five columns are
kept as parallel lists because a 16-site run records ~10**6 of them.
Everything runs on one thread, so the open spans form a stack, a span's
parent is the one below it, and a layer's *self* time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import gc
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

CORPUS_LIMIT = 2048  # messages / transform pairs kept for the layer stands


def payload_op_id(payload: Any) -> Optional[str]:
    """The op id a payload carries, looking through a reliability packet."""
    if hasattr(payload, "seq"):
        payload = payload.payload
    op_id = getattr(payload, "op_id", None)
    return op_id if isinstance(op_id, str) else None


@dataclass
class LayerCost:
    """Aggregate of every span with one name."""

    calls: int = 0
    total_s: float = 0.0  # sum of durations (children included)
    self_s: float = 0.0  # sum of durations net of direct children


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.op_ids: list[Optional[str]] = []
        self._stack: list[int] = []

    # -- recording ---------------------------------------------------------------

    def enter(self, name: str, op_id: Optional[str] = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(op_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def exit(self, index: int) -> float:
        end = perf_counter()
        self.ends[index] = end
        self._stack.pop()
        return end

    def add_root(self, name: str, start: float, end: float) -> None:
        """A finished span outside every other: an interval perfbench saw
        both ends of without being on the stack in between."""
        self.names.append(name)
        self.parents.append(-1)
        self.op_ids.append(None)
        self.starts.append(start)
        self.ends.append(end)

    @contextmanager
    def spanning_gc(self) -> Iterator[None]:
        """While the block runs, every run of the cyclic collector is a
        span (``py.gc``).  The collector strikes inside whichever span
        happens to allocate; unspanned, its pauses would be billed to
        that layer."""
        open_runs: list[int] = []

        def on_gc(phase: str, info: dict[str, int]) -> None:
            if phase == "start":
                open_runs.append(self.enter("py.gc"))
            else:
                self.exit(open_runs.pop())

        gc.callbacks.append(on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(on_gc)

    def wrap(self, name: str, fn: Callable[..., Any],
             op_id_of: Optional[Callable[..., Optional[str]]] = None
             ) -> Callable[..., Any]:
        """``fn`` with a span around every call."""
        enter, exit_ = self.enter, self.exit

        def spanned(*args: Any, **kwargs: Any) -> Any:
            index = enter(name, op_id_of(*args, **kwargs) if op_id_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(index)

        return spanned

    # -- reading -----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        return covered

    def layer_costs(self) -> dict[str, LayerCost]:
        covered = self.child_time()
        out: dict[str, LayerCost] = {}
        for i, name in enumerate(self.names):
            cost = out.get(name)
            if cost is None:
                cost = out[name] = LayerCost()
            duration = self.ends[i] - self.starts[i]
            cost.calls += 1
            cost.total_s += duration
            cost.self_s += duration - covered[i]
        return out

    def problems(self, limit: int = 5) -> list[str]:
        """Violations of the span-tree invariants (empty when sane)."""
        bad: list[str] = []
        covered = self.child_time()
        tolerance = 1e-9
        for i, parent in enumerate(self.parents):
            if len(bad) >= limit:
                break
            if self.ends[i] < self.starts[i]:
                bad.append(f"span {i} ({self.names[i]}) ends before it starts")
            if parent >= 0 and not (
                self.starts[parent] <= self.starts[i]
                and self.ends[i] <= self.ends[parent]
            ):
                bad.append(f"span {i} ({self.names[i]}) leaks out of its "
                           f"parent {parent} ({self.names[parent]})")
            if self.ends[i] - self.starts[i] - covered[i] < -tolerance:
                bad.append(f"span {i} ({self.names[i]}) has negative self time")
        if self._stack:
            bad.append(f"{len(self._stack)} spans were never closed")
        return bad

    def resolved_op_id(self, index: int) -> Optional[str]:
        """The span's op id, inherited from the nearest ancestor that has one."""
        while index >= 0:
            if self.op_ids[index] is not None:
                return self.op_ids[index]
            index = self.parents[index]
        return None

    def write_jsonl(self, path: str) -> None:
        """One ``[name, start, end, parent, op_id]`` array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps(
                    [name, self.starts[i], self.ends[i], self.parents[i],
                     self.resolved_op_id(i)]
                ))
                out.write("\n")


class OtProxy:
    """Stands where ``endpoint.ot`` stood; spans transform/apply/invert."""

    def __init__(self, inner: Any, recorder: SpanRecorder,
                 pairs: list[tuple[Any, Any, bool]]) -> None:
        self._inner = inner
        self._pairs = pairs
        self.apply = recorder.wrap("ot.apply", inner.apply)
        self.invert = recorder.wrap("ot.invert", inner.invert)
        self._transform = recorder.wrap("ot.transform", inner.transform)

    def transform(self, a: Any, b: Any, a_priority: bool) -> Any:
        if len(self._pairs) < CORPUS_LIMIT:
            self._pairs.append((a, b, a_priority))
        return self._transform(a, b, a_priority)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class StampingReader:
    """Stands where ``pump`` looks its ``StreamReader`` up; notes when the
    last read returned.  From there to the entry of the ``pump`` callback
    is ``decode_frame``, in place."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self.returned_at = 0.0

    async def readexactly(self, n: int) -> bytes:
        data = await self._inner.readexactly(n)
        self.returned_at = perf_counter()
        return data


class ChannelProxy:
    """Stands in ``endpoint.out_channels[dest]``; spans ``send``."""

    def __init__(self, inner: Any, recorder: SpanRecorder, name: str,
                 envelopes: list[Any],
                 sent_at: Optional[dict[tuple[int, int, int], float]] = None
                 ) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name = name
        self._envelopes = envelopes
        self._sent_at = sent_at

    def send(self, envelope: Any) -> Any:
        recorder = self._recorder
        index = recorder.enter(self._name, payload_op_id(envelope.payload))
        try:
            return self._inner.send(envelope)
        finally:
            end = recorder.exit(index)
            if len(self._envelopes) < CORPUS_LIMIT:
                self._envelopes.append(envelope)
            if self._sent_at is not None:
                # message_id is assigned inside send(); it names the
                # frame on the receiving side too.
                self._sent_at[(envelope.source, envelope.dest,
                               envelope.message_id)] = end

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)
