"""Ground-truth causality oracle (paper Definitions 1 and 2).

Builds the happened-before relation over operations two independent
ways and cross-checks them:

* **vector clocks**: generation-event clocks from the
  :class:`repro.clocks.events.EventLog` compared with the standard
  partial order;
* **explicit DAG**: a networkx digraph with one node per event,
  program-order edges within each site and an edge from every execution
  of an operation to the next event at that site (Definition 1 case 2
  is then graph reachability from ``generate(O_a)`` to
  ``generate(O_b)``).

The compressed scheme's verdicts are validated against this oracle in
the integration and property tests; disagreement between the two oracle
constructions themselves fails loudly (:class:`OracleInconsistency`).
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.clocks.events import Event, EventKind, EventLog
from repro.clocks.vector import Ordering, compare


class OracleInconsistency(AssertionError):
    """The two independent ground-truth constructions disagree."""


class CausalityOracle:
    """Answers happened-before / concurrency queries over an event log."""

    def __init__(self, log: EventLog) -> None:
        self.log = log
        self.graph = self._build_graph(log)
        self._reachable = self._transitive_reachability(self.graph)
        self._generation_event: dict[Hashable, Event] = {
            event.op_id: event
            for event in log.events
            if event.kind is EventKind.GENERATE
        }

    @staticmethod
    def _build_graph(log: EventLog) -> "nx.DiGraph":
        graph = nx.DiGraph()
        last_at_site: dict[int, Event] = {}
        generation: dict[Hashable, Event] = {}
        for event in log.events:
            graph.add_node(event)
            # Program order within a site.
            previous = last_at_site.get(event.site)
            if previous is not None:
                graph.add_edge(previous, event)
            last_at_site[event.site] = event
            # A (remote) execution depends on the operation's latest
            # generation (a re-issued name replaces one nobody executed).
            if event.kind is EventKind.GENERATE:
                generation[event.op_id] = event
            else:
                graph.add_edge(generation[event.op_id], event)
        return graph

    @staticmethod
    def _transitive_reachability(graph: "nx.DiGraph") -> dict[Event, set[Event]]:
        order = list(nx.topological_sort(graph))
        reachable: dict[Event, set[Event]] = {node: set() for node in order}
        for node in reversed(order):
            for succ in graph.successors(node):
                reachable[node].add(succ)
                reachable[node] |= reachable[succ]
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
