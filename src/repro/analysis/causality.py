"""Ground-truth causality oracle (paper Definitions 1 and 2).

Builds the happened-before relation over operations two independent
ways and cross-checks them:

* **vector clocks**: generation-event clocks from the
  :class:`repro.clocks.events.EventLog` compared with the standard
  partial order;
* **explicit DAG**: a successor map with one node per event,
  program-order edges within each site and an edge from every
  operation's generation to each of its executions (Definition 1 case 2
  is then graph reachability from ``generate(O_a)`` to
  ``generate(O_b)``).

The compressed scheme's verdicts are validated against this oracle in
the integration and property tests; disagreement between the two oracle
constructions themselves fails loudly (:class:`OracleInconsistency`).
"""

from __future__ import annotations

from typing import Hashable

from repro.clocks.events import Event, EventKind, EventLog
from repro.clocks.vector import Ordering, compare


class OracleInconsistency(AssertionError):
    """The two independent ground-truth constructions disagree."""


class CausalityOracle:
    """Answers happened-before / concurrency queries over an event log."""

    def __init__(self, log: EventLog) -> None:
        self.log = log
        self._reachable = self._transitive_reachability(log)
        self._generation_event: dict[Hashable, Event] = {
            event.op_id: event
            for event in log.events
            if event.kind is EventKind.GENERATE
        }

    @staticmethod
    def _transitive_reachability(log: EventLog) -> dict[Event, set[Event]]:
        successors: dict[Event, list[Event]] = {}
        last_at_site: dict[int, Event] = {}
        generation: dict[Hashable, Event] = {}
        for event in log.events:
            successors[event] = []
            # Program order within a site.
            previous = last_at_site.get(event.site)
            if previous is not None:
                successors[previous].append(event)
            last_at_site[event.site] = event
            # A (remote) execution depends on the operation's latest
            # generation (a re-issued name replaces one nobody executed).
            if event.kind is EventKind.GENERATE:
                generation[event.op_id] = event
            else:
                successors[generation[event.op_id]].append(event)
        # Every edge points forward in the log, so the log order is a
        # topological order: walk it backwards.
        reachable: dict[Event, set[Event]] = {}
        for event in reversed(log.events):
            closure: set[Event] = set()
            for succ in successors[event]:
                closure.add(succ)
                closure |= reachable[succ]
            reachable[event] = closure
        return reachable

    # -- queries over operations ----------------------------------------------

    def happened_before(self, op_a: Hashable, op_b: Hashable) -> bool:
        """Definition 1: ``O_a -> O_b``.

        Computed by DAG reachability from ``generate(O_a)`` to
        ``generate(O_b)`` and cross-checked against vector clocks.
        """
        gen_a = self._generation_event[op_a]
        gen_b = self._generation_event[op_b]
        dag_answer = gen_b in self._reachable[gen_a]
        vc_answer = (
            compare(self.log.clocks[gen_a], self.log.clocks[gen_b]) is Ordering.BEFORE
        )
        if dag_answer != vc_answer:
            raise OracleInconsistency(
                f"DAG says {op_a} -> {op_b} is {dag_answer}, vector clocks say "
                f"{vc_answer}"
            )
        return dag_answer

    def concurrent(self, op_a: Hashable, op_b: Hashable) -> bool:
        """Definition 2: ``O_a || O_b``."""
        if op_a == op_b:
            return False
        return not self.happened_before(op_a, op_b) and not self.happened_before(
            op_b, op_a
        )

    def causal_pairs(self) -> set[tuple[Hashable, Hashable]]:
        """All ordered pairs ``(a, b)`` with ``a -> b``."""
        ops = list(self._generation_event)
        return {
            (a, b)
            for a in ops
            for b in ops
            if a != b and self.happened_before(a, b)
        }

    def concurrent_pairs(self) -> set[frozenset]:
        """All unordered concurrent pairs."""
        ops = list(self._generation_event)
        out = set()
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if self.concurrent(a, b):
                    out.add(frozenset((a, b)))
        return out
