"""Consistency checkers: divergence and intention violation (Section 2.2).

The paper names two inconsistency problems for replicated editors:

* **divergence** -- sites end in different final states because
  operations executed in different orders;
* **intention violation** -- an operation's effect at execution time
  differs from its intention at generation time (the "A12B" vs "A1DE"
  example), which *no* serialisation protocol can fix.

:func:`check_divergence` reports the first; for the second we provide a
pairwise checker used by the FIG2 experiment: given two concurrent
operations and the state they were both generated on, the
intention-preserved result is computed by symmetric transformation and
compared with naive double execution, which :func:`replay_as_is`
carries out over every site of a traced run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.tracer import Origins, TraceEvent, TraceEventKind
from repro.ot.operations import Operation, apply_clamped
from repro.ot.transform import transform_pair


@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of a divergence check over final site states."""

    diverged: bool
    distinct_states: tuple[Any, ...]
    site_states: tuple[Any, ...]

    def summary(self) -> str:
        if not self.diverged:
            return f"CONVERGED: all {len(self.site_states)} sites agree"
        return (
            f"DIVERGED: {len(self.distinct_states)} distinct final states across "
            f"{len(self.site_states)} sites"
        )


def check_divergence(site_states: Sequence[Any]) -> DivergenceReport:
    """Compare the final states of all sites."""
    if not site_states:
        raise ValueError("need at least one site state")
    distinct: list[Any] = []
    for state in site_states:
        if state not in distinct:
            distinct.append(state)
    return DivergenceReport(
        diverged=len(distinct) > 1,
        distinct_states=tuple(distinct),
        site_states=tuple(site_states),
    )


def replay_as_is(initial: str, events: Iterable[TraceEvent],
                 ops: Mapping[str, Operation]) -> list[str]:
    """Each site's document, by site id, had the notifier relayed ops as-is.

    Transformation changes the documents and nothing else a run records
    (schedule, timestamps, verdicts), so each site of the traced run
    ``events`` applies, in trace order and clamped, the original op
    (``ops``, by origin name) of each generation it made and of each
    execution of another site's op (paired by
    :class:`~repro.obs.tracer.Origins`).  It ends at the highest site that
    traced an event: a caller comparing every site checks its length.
    """
    origins = Origins()
    documents: defaultdict[int, str] = defaultdict(lambda: initial)
    for event in events:
        source = origins.see(event)
        if event.kind is TraceEventKind.GENERATED:
            source = event
        elif source is None or source.site == event.site:
            continue
        name = source.op_id
        assert name is not None  # Origins pairs named generations only
        documents[event.site] = apply_clamped(documents[event.site], ops[name])
    return [documents[site] for site in range(max(documents, default=0) + 1)]


@dataclass(frozen=True)
class IntentionCheck:
    """Result of a pairwise intention-preservation check."""

    preserved_result: str
    naive_results: tuple[str, str]  # (a-then-b, b-then-a), untransformed
    naive_violates: bool


def intention_preserved_pair(
    document: str, op_a: Operation, op_b: Operation, a_priority: bool = True
) -> IntentionCheck:
    """Compare transformed vs naive execution of two concurrent operations.

    ``op_a`` and ``op_b`` must both be defined on ``document``.  The
    intention-preserved result applies symmetric transformation; the
    naive results execute the original forms in both orders (the paper's
    Fig. 2 failure mode).
    """
    a_prime, b_prime = transform_pair(op_a, op_b, a_priority)
    preserved = b_prime.apply(op_a.apply(document))
    preserved_other = a_prime.apply(op_b.apply(document))
    if preserved != preserved_other:
        raise AssertionError(
            "TP1 violated in intention check: "
            f"{preserved!r} != {preserved_other!r}"
        )

    def naive(first: Operation, second: Operation) -> str:
        try:
            return second.apply(first.apply(document))
        except Exception:
            return "<inapplicable>"

    naive_ab = naive(op_a, op_b)
    naive_ba = naive(op_b, op_a)
    return IntentionCheck(
        preserved_result=preserved,
        naive_results=(naive_ab, naive_ba),
        naive_violates=naive_ab != preserved or naive_ba != preserved,
    )
