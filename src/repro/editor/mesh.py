"""The fully-distributed baseline editor (original REDUCE deployment).

This is the architecture the paper *contrasts* with: every site talks to
every other site directly (paper Section 2.1), so no process redefines
the causality relation and **full N-element vector clocks** are required
on every message -- the overhead the compressed scheme eliminates.

Components
----------
* full vector clocks + causal-order delivery (messages are buffered
  until every causal predecessor has been delivered);
* a deterministic **canonical total order** ``(vc.sum(), site, seq)``
  extending happened-before (cf. Lamport);
* GOT-style transformation (Sun et al., TOCHI 1998 -- the paper's
  reference [14]): each operation's executed form is computed from its
  original form by exclusion/inclusion transformation against exactly
  the operations concurrent with it, evaluated over the canonical order.

Because each executed form is a deterministic function of the *set* of
operations (never of arrival order), all sites that have delivered the
same operations hold identical documents -- convergence by construction,
with intention preservation supplied by the transformation functions.

The implementation favours clarity over speed: each delivery recomputes
the document by replaying the canonical log (O(n^2) transformations).
The end-to-end benchmark (CLAIM-E2E) measures wire bytes, not replay
CPU, and notes this honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.clocks.vector import Ordering, VectorClock, compare
from repro.net.channel import LatencyModel
from repro.net.scheduler import Scheduler
from repro.net.simulator import Simulator
from repro.net.topology import MeshTopology
from repro.net.transport import Envelope, measure_payload_bytes, register_sizer
from repro.obs.tracer import TraceEventKind, Tracer
from repro.ot.operations import Operation
from repro.ot.transform import exclusion_transform, inclusion_transform
from repro.session import EditorEndpoint, HoldbackQueue, SessionBase


@dataclass(frozen=True)
class MeshOp:
    """An operation with its full vector-clock timestamp."""

    op: Operation  # original form, as generated
    vc: VectorClock  # generation clock (the N-element timestamp on the wire)
    site: int
    seq: int  # per-site generation index (1-based)

    @property
    def op_id(self) -> str:
        return f"m{self.site}_{self.seq}"

    def order_key(self) -> tuple[int, int, int]:
        """The canonical total order: extends happened-before."""
        return (self.vc.sum(), self.site, self.seq)

    def concurrent_with(self, other: "MeshOp") -> bool:
        return compare(self.vc, other.vc) is Ordering.CONCURRENT

    def precedes(self, other: "MeshOp") -> bool:
        return compare(self.vc, other.vc) is Ordering.BEFORE


# site + seq framing; the vector clock is charged as timestamp bytes.
register_sizer(MeshOp, lambda record: 4 + measure_payload_bytes(record.op))


def _lit(op: Operation, others: Sequence[tuple[Operation, tuple[int, int]]],
         own_key: tuple[int, int]) -> Operation:
    """Sequential inclusion transformation with site-priority ties."""
    for other_op, other_key in others:
        op = inclusion_transform(op, other_op, a_priority=own_key < other_key)
    return op


def _let(op: Operation, others_reversed: Sequence[Operation]) -> Operation:
    """Sequential exclusion transformation."""
    for other_op in others_reversed:
        op = exclusion_transform(op, other_op)
    return op


def got_transform(
    target: MeshOp,
    prefix: Sequence[MeshOp],
    prefix_forms: Sequence[Operation],
) -> Operation:
    """GOT (Sun et al. 1998): the executed form of ``target``.

    ``prefix`` is the canonical-order list of operations preceding
    ``target`` in the total order, with their executed forms
    ``prefix_forms``.  Because the total order extends causality, every
    causal predecessor of ``target`` lies in the prefix; the remaining
    prefix operations are concurrent with it.

    Cases (mirroring the original algorithm):

    1. nothing in the prefix is concurrent: the original form executes;
    2. everything from the first concurrent operation onward is
       concurrent: inclusion-transform through that suffix;
    3. mixed: causal predecessors inside the suffix are first
       exclusion-transformed back to the context where ``target`` was
       generated, ``target`` is exclusion-transformed against those, and
       finally inclusion-transformed through the whole suffix.
    """
    k = None
    for i, h in enumerate(prefix):
        if target.concurrent_with(h):
            k = i
            break
    if k is None:
        return target.op
    suffix = list(zip(prefix[k:], prefix_forms[k:]))
    target_key = (target.site, target.seq)
    if all(target.concurrent_with(h) for h, _ in suffix):
        return _lit(
            target.op,
            [(form, (h.site, h.seq)) for h, form in suffix],
            target_key,
        )
    # Mixed case (GOT step 3): recover each causal predecessor's form in
    # the context where ``target`` was generated, by excluding EVERY
    # suffix operation executed before it and re-including the
    # previously recovered predecessors.
    preceding: list[tuple[Operation, tuple[int, int]]] = []
    for i, (h, form) in enumerate(suffix):
        if not h.precedes(target):
            continue
        earlier_forms = [f for (_, f) in suffix[:i]]
        stripped = _let(form, list(reversed(earlier_forms))) if earlier_forms else form
        stripped = _lit(stripped, preceding, (h.site, h.seq))
        preceding.append((stripped, (h.site, h.seq)))
    # Exclude the recovered predecessors from ``target`` to reach the
    # pre-suffix context, then include the whole suffix.
    op = _let(target.op, [form for form, _ in reversed(preceding)])
    op = _lit(op, [(form, (h.site, h.seq)) for h, form in suffix], target_key)
    return op


class MeshSite(EditorEndpoint):
    """One site of the fully-distributed editor.

    An :class:`~repro.session.EditorEndpoint` over the raw transport
    (the mesh baseline runs on perfect channels); causal-order delivery
    is an *editor-level* hold-back, kept in the same shared
    :class:`~repro.session.HoldbackQueue` the reliability transport
    uses -- streams are sender sites, sequence numbers are the sender's
    per-site generation indices (``record.vc[record.site]``), and the
    causal gate checks the remaining vector components.
    """

    def __init__(
        self,
        sim: Scheduler,
        pid: int,
        n_sites: int,
        initial_document: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(sim, pid, tracer=tracer)
        self.n_sites = n_sites
        self.initial_document = initial_document
        self.checkpoint = initial_document  # base document after compaction
        self.document = initial_document
        self.vc = VectorClock.zero(n_sites)
        self.seq = 0
        self.log: list[MeshOp] = []  # delivered, uncompacted ops, canonical order
        self.hold_back: HoldbackQueue[MeshOp] = HoldbackQueue()
        self.delivered_ids: list[str] = []
        self.compacted_ops = 0
        # Knowledge vectors: known_vc[j] = the latest generation clock
        # received from site j (its delivered-op counts at that moment).
        # Row self is our own clock.  This is the matrix-clock row set,
        # at zero extra wire cost: every operation already carries its
        # generation vector.
        self.known_vc: list[VectorClock] = [
            VectorClock.zero(n_sites) for _ in range(n_sites)
        ]

    # -- local editing --------------------------------------------------------

    def generate(self, op: Operation) -> MeshOp:
        """Generate a local operation against the current document."""
        self.seq += 1
        self.vc = self.vc.tick(self.pid)
        record = MeshOp(op=op, vc=self.vc, site=self.pid, seq=self.seq)
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.GENERATED, self.pid, op_id=record.op_id,
                seq=record.seq,
                timestamp=tuple(record.vc[j] for j in range(self.n_sites)),
            )
        self._integrate(record)
        for dest in range(self.n_sites):
            if dest != self.pid:
                self.send(dest, record, timestamp_bytes=record.vc.size_bytes())
        return record

    # -- receiving ------------------------------------------------------------

    def _handle_app_message(self, envelope: Envelope) -> None:
        record: MeshOp = envelope.payload
        # Stream = sender site, seq = the sender's generation index for
        # this operation (``record.vc[record.site] == record.seq``).
        self.hold_back.hold(record.site, record.seq, record)
        if self.tracer is not None:
            self.tracer.emit(
                TraceEventKind.HELD_BACK, self.pid, op_id=record.op_id,
                peer=record.site, seq=record.seq,
            )
        self._drain_hold_back()

    def _causally_ready(self, record: MeshOp) -> bool:
        """The cross-sender half of the causal delivery condition.

        The per-sender half (``record.vc[record.site]`` is exactly the
        next index from that site) is what the hold-back queue's
        sequence gating enforces; this checks the rest: every *other*
        dependency is already delivered locally.
        """
        return all(
            record.vc[j] <= self.vc[j]
            for j in range(self.n_sites)
            if j != record.site
        )

    def _drain_hold_back(self) -> None:
        for record in self.hold_back.drain(
            lambda site: self.vc[site] + 1, self._causally_ready
        ):
            self.vc = self.vc.merge(record.vc)
            self.known_vc[record.site] = record.vc
            if self.tracer is not None:
                self.tracer.emit(
                    TraceEventKind.RELEASED, self.pid, op_id=record.op_id,
                    peer=record.site, seq=record.seq, via="holdback",
                )
            self._integrate(record)
            if self.tracer is not None:
                self.tracer.emit(
                    TraceEventKind.EXECUTED, self.pid, op_id=record.op_id,
                    timestamp=tuple(record.vc[j] for j in range(self.n_sites)),
                )

    # -- canonical replay -----------------------------------------------------

    def _integrate(self, record: MeshOp) -> None:
        """Insert into the canonical log and recompute the document."""
        self.log.append(record)
        self.log.sort(key=MeshOp.order_key)
        self.delivered_ids.append(record.op_id)
        self._replay()

    def _replay(self) -> None:
        document = self.checkpoint
        forms: list[Operation] = []
        for i, record in enumerate(self.log):
            form = got_transform(record, self.log[:i], forms)
            document = form.apply(document)
            forms.append(form)
        self.document = document

    # -- log compaction ---------------------------------------------------------

    def stability_vector(self) -> VectorClock:
        """Per-site operation counts known to have been delivered by
        EVERY site (component-wise min of the knowledge vectors).

        An operation at or below this horizon is *causally stable*: FIFO
        channels guarantee every future arrival was generated after the
        sender delivered it, hence causally follows it and can never be
        concurrent with it.
        """
        self.known_vc[self.pid] = self.vc
        counts = tuple(
            min(self.known_vc[j][k] for j in range(self.n_sites))
            for k in range(self.n_sites)
        )
        return VectorClock(counts)

    def compact(self) -> int:
        """Fold stable canonical-prefix operations into the checkpoint.

        Folds the maximal canonical prefix whose operations are (a)
        causally stable and (b) causal predecessors of every remaining
        logged operation -- condition (b) keeps GOT exact, since no
        remaining or future operation will ever need to transform
        against a folded one.  Returns the number of operations folded.
        """
        stable = self.stability_vector()
        stable_prefix = 0
        for record in self.log:
            if record.vc[record.site] > stable[record.site]:
                break
            stable_prefix += 1
        # Largest stable prefix whose merged clock every remaining
        # operation dominates (concurrency *within* the folded prefix is
        # fine -- those forms are finalised together during the fold).
        fold = 0
        merged = None
        for k in range(1, stable_prefix + 1):
            vc = self.log[k - 1].vc
            merged = vc if merged is None else merged.merge(vc)
            if all(later.vc.dominates(merged) for later in self.log[k:]):
                fold = k
        if fold == 0:
            return 0
        document = self.checkpoint
        forms: list[Operation] = []
        for i, record in enumerate(self.log[:fold]):
            form = got_transform(record, self.log[:i], forms)
            document = form.apply(document)
            forms.append(form)
        self.checkpoint = document
        del self.log[:fold]
        self.compacted_ops += fold
        self._replay()
        return fold

    def clock_storage_ints(self) -> int:
        """Resident clock-state integers: N at every site."""
        return self.vc.storage_ints()

    def holdback_pending(self) -> bool:
        """Causal hold-back is editor-level here: quiescence must see it."""
        return bool(self.hold_back)


class MeshSession(SessionBase):
    """A fully-distributed editing session over a mesh topology."""

    def __init__(
        self,
        n_sites: int,
        initial_document: str = "",
        latency_factory: Callable[[int, int], LatencyModel] | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if n_sites < 2:
            raise ValueError("a mesh session needs at least two sites")
        self.sim = Simulator()
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(lambda: self.sim.now)
        self.sites = [
            MeshSite(self.sim, pid, n_sites, initial_document, tracer=tracer)
            for pid in range(n_sites)
        ]
        self.topology = MeshTopology(self.sim, self.sites, latency_factory)

    def endpoints(self) -> Sequence[MeshSite]:
        return self.sites

    def generate_at(self, site: int, op: Operation, at: float) -> None:
        self.sim.schedule(at, lambda: self.sites[site].generate(op))
