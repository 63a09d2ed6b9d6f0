"""Ground-truth causality oracle (paper Definitions 1 and 2).

Builds the happened-before relation over operations two independent
ways and cross-checks them:

* **vector clocks**: generation-event clocks from the
  :class:`repro.clocks.events.EventLog` compared with the standard
  partial order;
* **explicit DAG**: one node per event, program-order edges within
  each site, an edge from every operation's generation to each of its
  executions and one from every state transfer's snapshot to its
  install (Definition 1 case 2 is then graph reachability from
  ``generate(O_a)`` to ``generate(O_b)``, one bitset per event).

A session's own log or one replayed from its trace
(:func:`repro.obs.analysis.replay_event_log`) feeds it; the compressed
scheme's verdicts are validated against it, and disagreement between
the two oracle constructions themselves fails loudly
(:class:`OracleInconsistency`).
"""

from __future__ import annotations

from typing import Hashable

from repro.clocks.events import EventKind, EventLog
from repro.clocks.vector import Ordering, compare


class OracleInconsistency(AssertionError):
    """The two independent ground-truth constructions disagree."""


class CausalityOracle:
    """Answers happened-before / concurrency queries over an event log."""

    def __init__(self, log: EventLog) -> None:
        self.log = log
        self._generation, self._reach = self._transitive_reachability(log)

    @staticmethod
    def _transitive_reachability(
        log: EventLog,
    ) -> tuple[dict[Hashable, int], list[int]]:
        """Each op's latest generation, by log position, and per event
        the bitset of the events it reaches."""
        successors: list[list[int]] = [[] for _ in log.events]
        last_at_site: dict[int, int] = {}
        generation: dict[Hashable, int] = {}
        snapshots: dict[Hashable, int] = {}
        for pos, event in enumerate(log.events):
            # Program order within a site.
            previous = last_at_site.get(event.site)
            if previous is not None:
                successors[previous].append(pos)
            last_at_site[event.site] = pos
            # A (remote) execution depends on the operation's latest
            # generation (a re-issued name replaces one nobody executed);
            # an install on the latest snapshot taken for its transfer.
            if event.kind is EventKind.GENERATE:
                generation[event.op_id] = pos
            elif event.kind is EventKind.EXECUTE:
                successors[generation[event.op_id]].append(pos)
            elif event.kind is EventKind.SNAPSHOT:
                snapshots[event.op_id] = pos
            else:
                sender = snapshots.pop(event.op_id, None)
                if sender is not None:
                    successors[sender].append(pos)
        # Every edge points forward in the log, so the log order is a
        # topological order: walk it backwards.
        reach = [0] * len(log.events)
        for pos in range(len(log.events) - 1, -1, -1):
            mask = 0
            for succ in successors[pos]:
                mask |= (1 << succ) | reach[succ]
            reach[pos] = mask
        return generation, reach

    # -- queries over operations ----------------------------------------------

    def ops(self) -> list[Hashable]:
        """All operation ids with a generation event, in log order."""
        return list(self._generation)

    def reaches(self, op_a: Hashable, op_b: Hashable) -> bool:
        """``generate(O_a)`` reaches ``generate(O_b)`` in the DAG alone."""
        return bool(self._reach[self._generation[op_a]] >> self._generation[op_b] & 1)

    def clock_before(self, op_a: Hashable, op_b: Hashable) -> bool:
        """The log's vector clocks alone order ``O_a`` before ``O_b``."""
        clock = self.log.generation_clock
        return compare(clock(op_a), clock(op_b)) is Ordering.BEFORE

    def happened_before(self, op_a: Hashable, op_b: Hashable) -> bool:
        """Definition 1: ``O_a -> O_b``.

        Computed by DAG reachability from ``generate(O_a)`` to
        ``generate(O_b)`` and cross-checked against vector clocks.
        """
        dag_answer = self.reaches(op_a, op_b)
        vc_answer = self.clock_before(op_a, op_b)
        if dag_answer != vc_answer:
            raise OracleInconsistency(
                f"DAG says {op_a} -> {op_b} is {dag_answer}, vector clocks say "
                f"{vc_answer}"
            )
        return dag_answer

    def concurrent(self, op_a: Hashable, op_b: Hashable) -> bool:
        """Definition 2: ``O_a || O_b`` -- neither happened before the other."""
        return (op_a != op_b and not self.happened_before(op_a, op_b)
                and not self.happened_before(op_b, op_a))

    def causal_pairs(self) -> set[tuple[Hashable, Hashable]]:
        """All ordered pairs ``(a, b)`` with ``a -> b``."""
        ops = self.ops()
        return {(a, b) for a in ops for b in ops if a != b and self.happened_before(a, b)}

    def concurrent_pairs(self) -> set[frozenset[Hashable]]:
        """All unordered concurrent pairs."""
        ops = self.ops()
        return {
            frozenset((a, b))
            for i, a in enumerate(ops)
            for b in ops[i + 1 :]
            if self.concurrent(a, b)
        }
