"""Positional string operations used throughout the paper.

The paper (Section 2.2) works with two primitive editing operations on a
shared text document:

* ``Insert[text, pos]`` -- insert string ``text`` at character position
  ``pos`` (0-based; the paper's example "insert at position 1 between
  'A' and 'BCDE'" uses the same 0-based convention).
* ``Delete[count, pos]`` -- delete ``count`` characters starting at
  position ``pos``.

Operations carry an *intention*: the effect they would have on the
document state from which they were generated.  Transformation (see
:mod:`repro.ot.transform`) reformulates positions so that executing the
transformed operation on a *newer* state realises the same intention.

Design notes
------------
Transforming a ``Delete`` against an ``Insert`` that lands strictly
inside the deleted region splits the deletion in two.  Rather than
complicate every call-site with lists, the result of such a split is an
:class:`OperationGroup`, itself an :class:`Operation` that applies its
members left-to-right (members are pre-adjusted so this is well-defined).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.net.transport import INT_WIDTH, measure_payload_bytes, register_sizer


class OperationError(ValueError):
    """Raised when an operation cannot be applied to a document state."""


@dataclass(frozen=True)
class Operation:
    """Abstract base class for editing operations.

    Concrete operations are immutable value objects; transformation
    functions return new instances rather than mutating their inputs.
    """

    def apply(self, document: str) -> str:
        """Return the document produced by executing this operation."""
        raise NotImplementedError

    def is_identity(self) -> bool:
        """True when executing the operation never changes any document."""
        return False


@dataclass(frozen=True)
class Insert(Operation):
    """``Insert[text, pos]``: insert ``text`` at character index ``pos``."""

    text: str
    pos: int

    def __post_init__(self) -> None:
        if self.pos < 0:
            raise OperationError(f"insert position must be >= 0, got {self.pos}")

    def apply(self, document: str) -> str:
        if self.pos > len(document):
            raise OperationError(
                f"insert position {self.pos} beyond document length {len(document)}"
            )
        return document[: self.pos] + self.text + document[self.pos :]

    def is_identity(self) -> bool:
        return self.text == ""

    @property
    def end(self) -> int:
        """Index one past the last inserted character (after execution)."""
        return self.pos + len(self.text)

    def __repr__(self) -> str:  # match the paper's notation
        return f"Insert[{self.text!r}, {self.pos}]"


@dataclass(frozen=True)
class Delete(Operation):
    """``Delete[count, pos]``: delete ``count`` characters from ``pos``."""

    count: int
    pos: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise OperationError(f"delete count must be >= 0, got {self.count}")
        if self.pos < 0:
            raise OperationError(f"delete position must be >= 0, got {self.pos}")

    def apply(self, document: str) -> str:
        if self.pos + self.count > len(document):
            raise OperationError(
                f"delete range [{self.pos}, {self.pos + self.count}) beyond "
                f"document length {len(document)}"
            )
        return document[: self.pos] + document[self.pos + self.count :]

    def is_identity(self) -> bool:
        return self.count == 0

    @property
    def end(self) -> int:
        """Index one past the last deleted character (before execution)."""
        return self.pos + self.count

    def __repr__(self) -> str:
        return f"Delete[{self.count}, {self.pos}]"


@dataclass(frozen=True)
class Identity(Operation):
    """The no-op.

    Transformation can annihilate an operation entirely (e.g. a delete
    fully contained in a concurrent delete); the result is ``Identity``.
    """

    def apply(self, document: str) -> str:
        return document

    def is_identity(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "Identity[]"


@dataclass(frozen=True)
class OperationGroup(Operation):
    """An ordered group of operations applied left-to-right.

    Produced by a split (transformation cuts a delete straddling a
    concurrent insert in two) or by :func:`compose`.  Members are stored
    with positions already adjusted so that sequential application
    realises the combined intention.
    """

    members: tuple[Operation, ...] = field(default_factory=tuple)

    def apply(self, document: str) -> str:
        for member in self.members:
            document = member.apply(document)
        return document

    def is_identity(self) -> bool:
        return all(member.is_identity() for member in self.members)

    def __repr__(self) -> str:
        inner = ", ".join(repr(member) for member in self.members)
        return f"Group[{inner}]"


# Model wire sizes (EXPERIMENTS.md accounting): a 1-byte tag, then fields.
register_sizer(Insert, lambda op: 1 + INT_WIDTH + len(op.text.encode("utf-8")))
register_sizer(Delete, lambda op: 1 + 2 * INT_WIDTH)
register_sizer(Identity, lambda op: 1)
register_sizer(
    OperationGroup, lambda op: 1 + sum(map(measure_payload_bytes, op.members))
)


def apply_clamped(document: str, op: Operation) -> str:
    """Best-effort execution: clamp out-of-range positions.

    This is how a *naive* replica behaves when executing remote
    operations without transformation (the paper's Fig. 2 failure mode):
    positions computed against a different document state are forced
    into range rather than rejected.  Its one caller is the as-is replay,
    :func:`repro.analysis.consistency.replay_as_is`.
    """
    if isinstance(op, OperationGroup):
        for member in op.members:
            document = apply_clamped(document, member)
        return document
    if isinstance(op, Insert):
        return Insert(op.text, min(op.pos, len(document))).apply(document)
    if isinstance(op, Delete):
        pos = min(op.pos, len(document))
        count = min(op.count, len(document) - pos)
        return Delete(count, pos).apply(document)
    return op.apply(document)


def clamp_to(document: str, op: Operation) -> Operation:
    """The operation with positions forced into range for ``document``.

    Failover replay needs this: a pending operation stashed before a
    notifier crash was defined against the client's pre-crash document,
    but is regenerated against the successor's baseline, which may be
    shorter (operations the dead notifier acknowledged but never relayed
    are rolled back).  The clamped form keeps as much of the intention
    as fits; anything out of range degrades toward an identity rather
    than raising.  Non-positional operation types pass through.
    """
    if isinstance(op, OperationGroup):
        members: list[Operation] = []
        state = document
        for member in op.members:
            clamped = clamp_to(state, member)
            members.append(clamped)
            state = clamped.apply(state)
        return OperationGroup(tuple(members))
    if isinstance(op, Insert):
        return Insert(op.text, min(op.pos, len(document)))
    if isinstance(op, Delete):
        pos = min(op.pos, len(document))
        return Delete(min(op.count, len(document) - pos), pos)
    return op


def flatten(op: Operation) -> list[Operation]:
    """Flatten nested groups into a list of primitive operations."""
    if isinstance(op, OperationGroup):
        out: list[Operation] = []
        for member in op.members:
            out.extend(flatten(member))
        return out
    if isinstance(op, Identity):
        return []
    return [op]


def simplify(op: Operation) -> Operation:
    """Collapse groups and drop identity members.

    A group of zero effective members becomes :class:`Identity`; a group
    of one becomes that member.
    """
    primitives = [p for p in flatten(op) if not p.is_identity()]
    if not primitives:
        return Identity()
    if len(primitives) == 1:
        return primitives[0]
    return OperationGroup(tuple(primitives))


def compose(a: Operation, b: Operation) -> Operation:
    """``a`` followed by ``b`` as one operation.

    ``compose(a, b).apply(S) == b.apply(a.apply(S))``.  The members are
    concatenated without identities; an insert landing inside or at
    either end of the previous insert joins it, and a delete covering
    the previous delete's position joins it.  The result is a primitive,
    :class:`Identity` or a group, so it travels like any other operation.
    """
    members: list[Operation] = []
    for op in flatten(a) + flatten(b):
        if op.is_identity():
            continue
        last = members[-1] if members else None
        if isinstance(op, Insert) and isinstance(last, Insert) and last.pos <= op.pos <= last.end:
            cut = op.pos - last.pos
            members[-1] = Insert(last.text[:cut] + op.text + last.text[cut:], last.pos)
        elif isinstance(op, Delete) and isinstance(last, Delete) and op.pos <= last.pos <= op.end:
            members[-1] = Delete(last.count + op.count, op.pos)
        else:
            members.append(op)
    return simplify(OperationGroup(tuple(members)))
