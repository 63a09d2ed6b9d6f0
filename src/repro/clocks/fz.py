"""Fowler-Zwaenepoel direct-dependency tracking.

Implementation of the paper's reference [7] (Fowler & Zwaenepoel,
"Causal distributed breakpoints", ICDCS 1990): the *offline* family of
vector-clock compression.  Each message carries a **single integer**
(the sender's current event index); each process records only its
*direct* dependencies.  The full vector time of any event can then be
recovered offline by a transitive traversal of the recorded dependency
information.

This is the extreme point of the compression spectrum the paper's
introduction discusses: O(1) timestamp bytes, but recovering causality
requires the complete dependency data of the computation, so it cannot
answer online concurrency queries -- which is exactly why the paper's
scheme (O(1) bytes *and* online checks) is interesting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clocks.vector import VectorClock


@dataclass(frozen=True)
class FZMessage:
    """A Fowler-Zwaenepoel message timestamp: one integer."""

    sender: int
    sender_event: int  # the sender's event index at send time

    def size_bytes(self, int_width: int = 4) -> int:
        return int_width


@dataclass(frozen=True)
class FZEventRecord:
    """A logged event with its direct-dependency vector."""

    pid: int
    index: int  # 1-based event index within the process
    direct_deps: tuple[int, ...]  # per-process latest direct dependency


@dataclass
class FZProcess:
    """One process performing direct-dependency tracking."""

    pid: int
    n: int
    event_index: int = 0
    dep: list[int] = field(init=False)  # latest *direct* dependency per process
    log: list[FZEventRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 <= self.pid < self.n:
            raise ValueError(f"pid {self.pid} out of range for n={self.n}")
        self.dep = [0] * self.n

    def _record(self) -> FZEventRecord:
        self.event_index += 1
        self.dep[self.pid] = self.event_index
        record = FZEventRecord(self.pid, self.event_index, tuple(self.dep))
        self.log.append(record)
        return record

    def local_event(self) -> FZEventRecord:
        return self._record()

    def prepare_send(self) -> tuple[FZMessage, FZEventRecord]:
        """Timestamp an outgoing message (send counts as an event)."""
        record = self._record()
        return FZMessage(self.pid, self.event_index), record

    def receive(self, message: FZMessage) -> FZEventRecord:
        """Record a receive event and its direct dependency on the sender."""
        if not 0 <= message.sender < self.n:
            raise ValueError(f"sender {message.sender} out of range for n={self.n}")
        self.dep[message.sender] = max(self.dep[message.sender], message.sender_event)
        return self._record()


def reconstruct_vector_times(
    processes: list[FZProcess],
) -> dict[tuple[int, int], VectorClock]:
    """Offline reconstruction of full vector time for every logged event.

    Performs the transitive traversal of the direct-dependency records --
    the computation the paper's introduction calls "too large for an
    on-line computation".  Returns ``{(pid, event_index): VectorClock}``.

    The reconstruction walks each process log in order; event ``e`` of
    process ``p`` has vector time = component-wise max of its direct
    dependencies' vector times, with its own component set to its index.
    Records are processed in a topological order obtained by iterating
    until fixpoint (dependencies always refer to earlier event indices,
    so a single pass per process in index order with cross-process
    iteration converges).
    """
    n = len(processes)
    records: dict[tuple[int, int], FZEventRecord] = {}
    for proc in processes:
        if proc.n != n:
            raise ValueError("all processes must agree on system size")
        for record in proc.log:
            records[(record.pid, record.index)] = record

    resolved: dict[tuple[int, int], VectorClock] = {}

    def resolve(key: tuple[int, int]) -> VectorClock:
        if key in resolved:
            return resolved[key]
        stack = [key]
        while stack:
            top = stack[-1]
            if top in resolved:
                stack.pop()
                continue
            record = records.get(top)
            if record is None:
                raise KeyError(f"dependency on unlogged event {top}")
            pending = []
            counts = [0] * n
            for q in range(n):
                dep_index = record.direct_deps[q]
                if q == record.pid:
                    continue
                if dep_index > 0:
                    dep_key = (q, dep_index)
                    if dep_key not in resolved:
                        pending.append(dep_key)
                    else:
                        dep_vc = resolved[dep_key]
                        for r in range(n):
                            counts[r] = max(counts[r], dep_vc[r])
            # own earlier event is also a direct dependency
            if record.index > 1:
                prev_key = (record.pid, record.index - 1)
                if prev_key not in resolved:
                    pending.append(prev_key)
                else:
                    prev_vc = resolved[prev_key]
                    for r in range(n):
                        counts[r] = max(counts[r], prev_vc[r])
            if pending:
                stack.extend(pending)
                continue
            counts[record.pid] = record.index
            resolved[top] = VectorClock(tuple(counts))
            stack.pop()
        return resolved[key]

    for key in records:
        resolve(key)
    return resolved
