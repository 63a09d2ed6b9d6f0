"""End-to-end latency across processes, with clock-skew estimation.

A span is a view of events the trace already records, not an event of
its own.  Cluster tracers stamp Unix time, so each process's events are
on its own wall clock, and three kinds of event pair up across processes:

* **raw latency** of an (origin, executor) pair: an ``EXECUTED`` event's
  time minus the origin's ``GENERATED`` time for the same operation
  (paired by :class:`~repro.obs.tracer.Origins`: a broadcast form maps
  back through its first ``TRANSFORMED`` event's ``source_op``);
* **forward skew sample**, origin to centre: the centre's ``EXECUTED``
  of the operation minus its ``GENERATED`` (any execution of an
  operation as generated, not of a broadcast form, is one hop away);
* **backward skew sample**, centre to executor: an ``EXECUTED`` minus
  the centre's first ``TRANSFORMED`` of that broadcast form.

Every sample is a one-way delay -- receiver clock minus sender clock --
and those samples are exactly what an NTP-style offset estimator needs.

Skew model
----------
Each site ``s`` has an unknown clock offset ``theta_s``.  A one-way
sample from ``a`` to ``b`` measures ``d + (theta_b - theta_a)`` for some
true (non-negative) delay ``d``.  Taking the minimum over many samples
in each direction of a link::

    m_ab = d_ab_min + delta        m_ba = d_ba_min - delta

where ``delta = theta_b - theta_a``.  The classic estimator is

    delta_hat = (m_ab - m_ba) / 2

whose error is ``|delta_hat - delta| = |d_ab_min - d_ba_min| / 2``,
bounded by the observable quantity

    error_bound = (m_ab + m_ba) / 2   (= RTT_min / 2)

i.e. the estimate is exact for symmetric minimum delays and degrades by
at most half the asymmetry.  Offsets compose along paths (the star
routes everything through the centre, so client pairs compose through
it): ``delta_AB = delta_AC + delta_CB``, with error bounds adding.

A site pair with samples in only one direction (or none) is
**uncorrectable**: the estimator refuses to guess, the pair is flagged
in the report, and its latencies are published raw-only rather than
silently absorbed into the corrected percentiles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.tracer import Histogram, Origins, TraceEvent, TraceEventKind


class SkewEstimator:
    """Pairwise clock-offset estimation from one-way delay samples.

    Feed directed samples with :meth:`add_sample`; query a single link
    with :meth:`edge_offset` / :meth:`edge_error`, or any site pair --
    composed through intermediate links where needed -- with
    :meth:`pair_offset`.  All times are seconds.
    """

    def __init__(self) -> None:
        # Minimum observed one-way sample per directed edge.
        self._minimum: dict[tuple[int, int], float] = {}

    def add_sample(self, src: int, dst: int, delay_s: float) -> None:
        """Record one ``src -> dst`` sample (receiver minus sender clock)."""
        if src == dst:
            return
        key = (src, dst)
        best = self._minimum.get(key)
        if best is None or delay_s < best:
            self._minimum[key] = delay_s

    def sites(self) -> list[int]:
        """Every site that appears in at least one sample, sorted."""
        seen = {s for pair in self._minimum for s in pair}
        return sorted(seen)

    def edge_offset(self, a: int, b: int) -> Optional[float]:
        """``theta_b - theta_a`` from this link alone; ``None`` if the
        link lacks samples in either direction."""
        if a == b:
            return 0.0
        m_ab = self._minimum.get((a, b))
        m_ba = self._minimum.get((b, a))
        if m_ab is None or m_ba is None:
            return None
        return (m_ab - m_ba) / 2.0

    def edge_error(self, a: int, b: int) -> Optional[float]:
        """The documented bound ``RTT_min / 2`` for this link."""
        if a == b:
            return 0.0
        m_ab = self._minimum.get((a, b))
        m_ba = self._minimum.get((b, a))
        if m_ab is None or m_ba is None:
            return None
        return (m_ab + m_ba) / 2.0

    def _bidirectional_neighbours(self, site: int) -> list[int]:
        return [
            other
            for other in self.sites()
            if other != site
            and (site, other) in self._minimum
            and (other, site) in self._minimum
        ]

    def pair_offset(self, a: int, b: int) -> Optional[tuple[float, float]]:
        """``(theta_b - theta_a, error_bound)``, composing links if needed.

        Breadth-first over links with samples in *both* directions, so
        the composition path is the fewest-hops one; per-link error
        bounds add along the path.  Returns ``None`` when no such path
        exists -- the pair is uncorrectable.
        """
        if a == b:
            return (0.0, 0.0)
        # BFS from a; accumulated (offset theta_x - theta_a, error).
        frontier: deque[int] = deque([a])
        reached: dict[int, tuple[float, float]] = {a: (0.0, 0.0)}
        while frontier:
            here = frontier.popleft()
            if here == b:
                break
            base_offset, base_error = reached[here]
            for nxt in self._bidirectional_neighbours(here):
                if nxt in reached:
                    continue
                step_offset = self.edge_offset(here, nxt)
                step_error = self.edge_error(here, nxt)
                assert step_offset is not None and step_error is not None
                reached[nxt] = (base_offset + step_offset,
                                base_error + step_error)
                frontier.append(nxt)
        return reached.get(b)


@dataclass
class PairLatency:
    """End-to-end latency of one (origin site, executing site) pair."""

    origin: int
    executor: int
    #: Uncorrected latencies: executor clock minus origin stamp, seconds.
    raw: Histogram = field(default_factory=Histogram)
    #: Skew-corrected latencies, or ``None`` for an uncorrectable pair.
    corrected: Optional[Histogram] = None
    #: The applied offset ``theta_executor - theta_origin`` (seconds).
    offset_s: Optional[float] = None
    #: The composed ``RTT_min / 2`` error bound of that offset.
    error_bound_s: Optional[float] = None

    @property
    def correctable(self) -> bool:
        return self.corrected is not None

    def row(self) -> str:
        """One human-readable summary line (milliseconds)."""
        label = f"{self.origin}->{self.executor}"
        hist = self.corrected if self.corrected is not None else self.raw
        p50 = hist.percentile(50)
        p95 = hist.percentile(95)
        p99 = hist.percentile(99)
        assert p50 is not None and p95 is not None and p99 is not None
        body = (
            f"p50 {p50 * 1e3:.1f} ms, p95 {p95 * 1e3:.1f} ms, "
            f"p99 {p99 * 1e3:.1f} ms (n={hist.count}"
        )
        if self.corrected is not None:
            assert self.offset_s is not None and self.error_bound_s is not None
            body += (
                f", skew {self.offset_s * 1e3:+.2f} ms "
                f"+/- {self.error_bound_s * 1e3:.2f} ms)"
            )
        else:
            body += ", UNCORRECTABLE skew: raw)"
        return f"{label}: {body}"


@dataclass
class SpanReport:
    """Everything the span pipeline derived from one merged trace."""

    pairs: dict[tuple[int, int], PairLatency] = field(default_factory=dict)

    @property
    def uncorrectable_pairs(self) -> list[tuple[int, int]]:
        return sorted(k for k, p in self.pairs.items() if not p.correctable)

    def summary_lines(self) -> list[str]:
        if not self.pairs:
            return []
        lines = [f"e2e latency: {len(self.pairs)} site pairs"]
        lines.extend(
            f"  {self.pairs[key].row()}" for key in sorted(self.pairs)
        )
        if self.uncorrectable_pairs:
            flagged = ", ".join(f"{a}->{b}" for a, b in self.uncorrectable_pairs)
            lines.append(f"  uncorrectable skew (raw latencies only): {flagged}")
        return lines


def assemble_spans(events: Sequence[TraceEvent]) -> SpanReport:
    """Assemble per-pair end-to-end latency from a trace.

    Pipeline: one pass in trace order collects the skew samples and the
    raw end-to-end observations the module docstring names; a second
    corrects each pair's raw latencies by the composed pairwise offset,
    leaving uncorrectable pairs flagged and raw.

    Works on a single process's trace or on the merged cluster stream
    (whose order puts every generation before its executions); it only
    reads events, so running it beside the happens-before cross-checks
    changes none of their verdicts.
    """
    report = SpanReport()
    skew = SkewEstimator()
    origins = Origins()
    broadcast_at: dict[str, tuple[int, float]] = {}
    for event in events:
        origin = origins.see(event)
        if origin is not None:
            sent = broadcast_at.get(event.op_id or "")
            if sent is not None:
                skew.add_sample(sent[0], event.site, event.time - sent[1])
            if origin.site != event.site:
                key = (origin.site, event.site)
                pair = report.pairs.setdefault(key, PairLatency(*key))
                pair.raw.observe(event.time - origin.time)
                if sent is None:
                    skew.add_sample(origin.site, event.site, event.time - origin.time)
        elif event.kind is TraceEventKind.TRANSFORMED and event.op_id is not None:
            broadcast_at.setdefault(event.op_id, (event.site, event.time))
    for pair in report.pairs.values():
        composed = skew.pair_offset(pair.origin, pair.executor)
        if composed is None:
            continue
        pair.offset_s, pair.error_bound_s = composed
        corrected = Histogram()
        for raw in pair.raw.values:
            corrected.observe(raw - pair.offset_s)
        pair.corrected = corrected
    return report
