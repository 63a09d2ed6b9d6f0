"""Causality statistics for editing sessions.

Workload-characterisation tools over the ground-truth event log:

* **concurrency degree** -- what fraction of operation pairs were
  concurrent (how contended the session really was; the compression
  scheme's transformation work scales with it);
* **causal depth** -- the longest happened-before chain (the session's
  critical path);
* **per-site contribution** and transformation pressure (how many
  operations each incoming operation had to be transformed against).

Used by the workload benchmarks to report *what kind* of session a
number was measured on, and by tests as a secondary oracle surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import networkx as nx

from repro.analysis.causality import CausalityOracle
from repro.clocks.events import EventKind, EventLog


@dataclass(frozen=True)
class SessionStats:
    """Aggregate causality statistics for one session."""

    n_ops: int
    n_pairs: int
    concurrent_pairs: int
    causal_pairs: int
    concurrency_degree: float  # concurrent / all unordered pairs
    causal_depth: int  # longest happened-before chain (ops)
    ops_per_site: dict[int, int]

    def summary(self) -> str:
        return (
            f"{self.n_ops} ops, concurrency degree "
            f"{self.concurrency_degree:.2f} ({self.concurrent_pairs}/"
            f"{self.n_pairs} pairs), causal depth {self.causal_depth}"
        )


def session_stats(log: EventLog, ops: list[Hashable] | None = None) -> SessionStats:
    """Compute :class:`SessionStats` over ``ops`` (default: originals).

    ``ops`` defaults to every operation generated at a non-notifier site
    (the *original* operations, matching the paper's Section 2.4
    analysis); pass an explicit list to analyse redefined operations.
    """
    if ops is None:
        ops = [
            event.op_id
            for event in log.events
            if event.kind is EventKind.GENERATE and event.site != 0
        ]
    oracle = CausalityOracle(log)
    n = len(ops)
    concurrent = 0
    causal = 0
    chain = nx.DiGraph()
    chain.add_nodes_from(ops)
    for i, a in enumerate(ops):
        for b in ops[i + 1 :]:
            if oracle.concurrent(a, b):
                concurrent += 1
            elif oracle.happened_before(a, b):
                causal += 1
                chain.add_edge(a, b)
            else:
                causal += 1
                chain.add_edge(b, a)
    n_pairs = n * (n - 1) // 2
    depth = nx.dag_longest_path_length(chain) + 1 if n else 0
    per_site: dict[int, int] = {}
    for event in log.events:
        if event.kind is EventKind.GENERATE and event.op_id in set(ops):
            per_site[event.site] = per_site.get(event.site, 0) + 1
    return SessionStats(
        n_ops=n,
        n_pairs=n_pairs,
        concurrent_pairs=concurrent,
        causal_pairs=causal,
        concurrency_degree=concurrent / n_pairs if n_pairs else 0.0,
        causal_depth=depth,
        ops_per_site=per_site,
    )


@dataclass(frozen=True)
class TransformPressure:
    """How much transformation work a session generated."""

    total_remote_executions: int
    total_transform_steps: int  # pairwise IT applications
    max_concurrent_set: int

    @property
    def mean_concurrent_set(self) -> float:
        if self.total_remote_executions == 0:
            return 0.0
        return self.total_transform_steps / self.total_remote_executions


def transform_pressure(session) -> TransformPressure:
    """Measure transformation pressure from a finished star session.

    Derived from the recorded concurrency checks (the session must have
    run with ``record_checks=True``): each *true* verdict is one pairwise
    transformation the receiver performed.
    """
    remote_executions = 0
    steps = 0
    max_set = 0
    by_event: dict[tuple[int, str], int] = {}
    for record in session.all_checks():
        key = (record.site, record.new_op_id)
        by_event.setdefault(key, 0)
        if record.verdict:
            by_event[key] += 1
    for (site, _), count in by_event.items():
        del site
        remote_executions += 1
        steps += count
        max_set = max(max_set, count)
    return TransformPressure(
        total_remote_executions=remote_executions,
        total_transform_steps=steps,
        max_concurrent_set=max_set,
    )
