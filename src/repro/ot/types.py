"""OT types: the transformation contract the editors are written against.

The paper's Section 6 argues the compression scheme applies to *any*
replicated data object for which an operational-transformation function
exists.  The star editor (:mod:`repro.editor.star`) is therefore
written against the :class:`OTType` contract below rather than strings
specifically, and this module names two concrete types:

* :class:`PositionalTextType` -- collaborative text (the paper's domain)
  driven by the paper's positional ``Insert``/``Delete`` operations and
  the IT rules of :mod:`repro.ot.transform`;
* :class:`CounterType` -- commutative increments (transformation is the
  identity), Section 6's demonstrator: the same timestamps and
  concurrency checks over a non-text object.

Every type must guarantee **TP1**::

    apply(apply(S, a), transform(a, b)[1]) == apply(apply(S, b), transform(a, b)[0])

which is the only property star-topology convergence requires (the
notifier serialises its stream, so TP2 never arises).  Model wire bytes
come from :func:`repro.net.transport.register_sizer`, not from the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, TypeVar, runtime_checkable

from repro.net.transport import INT_WIDTH, register_sizer
from repro.ot.operations import (
    Delete,
    Identity,
    Insert,
    Operation,
    OperationGroup,
    simplify,
)
from repro.ot.transform import transform_pair

State = TypeVar("State")
Op = TypeVar("Op")


@runtime_checkable
class OTType(Protocol[State, Op]):
    """The contract an OT type must satisfy to plug into the editors."""

    name: str

    def initial(self) -> State:
        """The initial replicated state."""
        ...

    def apply(self, state: State, op: Op) -> State:
        """Execute ``op`` on ``state`` and return the new state."""
        ...

    def transform(self, a: Op, b: Op, a_priority: bool) -> tuple[Op, Op]:
        """Symmetric transform satisfying TP1.

        ``a_priority`` breaks ties deterministically; callers pass
        ``True`` when ``a``'s originating site has the lower identifier.
        """
        ...


class PositionalTextType:
    """Collaborative text via the paper's positional operations."""

    name = "text-positional"

    def initial(self) -> str:
        return ""

    def apply(self, state: str, op: Operation) -> str:
        return op.apply(state)

    def transform(
        self, a: Operation, b: Operation, a_priority: bool
    ) -> tuple[Operation, Operation]:
        return transform_pair(a, b, a_priority)

    def invert(self, state: str, op: Operation) -> Operation:
        """The inverse of ``op`` relative to pre-state ``state``.

        An ``Insert`` inverts to a ``Delete``; a ``Delete`` inverts to
        re-inserting the text captured from the pre-state; a group
        inverts to the reversed member inverses against the evolving
        state.
        """
        if isinstance(op, Insert):
            return Delete(len(op.text), op.pos)
        if isinstance(op, Delete):
            return Insert(state[op.pos : op.end], op.pos)
        if isinstance(op, Identity):
            return Identity()
        if isinstance(op, OperationGroup):
            inverses = []
            current = state
            for member in op.members:
                inverses.append(self.invert(current, member))
                current = member.apply(current)
            return simplify(OperationGroup(tuple(reversed(inverses))))
        raise TypeError(f"cannot invert operation type {type(op).__name__}")


@dataclass(frozen=True)
class CounterOp:
    """Add ``delta`` to a replicated integer counter."""

    delta: int


class CounterType:
    """Commutative counter: transformation is the identity.

    Included as the degenerate case -- when operations commute, OT has
    nothing to do, but the timestamping/concurrency machinery of the
    compressed scheme is still exercised end to end.
    """

    name = "counter"

    def initial(self) -> int:
        return 0

    def apply(self, state: int, op: CounterOp) -> int:
        return state + op.delta

    def transform(self, a: CounterOp, b: CounterOp, a_priority: bool) -> tuple[CounterOp, CounterOp]:
        del a_priority
        return a, b




# A 1-byte tag, then the delta (EXPERIMENTS.md accounting, as ``Delete``).
register_sizer(CounterOp, lambda op: 1 + INT_WIDTH)

_TYPES: dict[str, Any] = {
    PositionalTextType.name: PositionalTextType(),
    CounterType.name: CounterType(),
}


def get_type(name: str) -> Any:
    """Look up an OT type by name."""
    try:
        return _TYPES[name]
    except KeyError:
        raise KeyError(
            f"unknown OT type {name!r}; registered: {sorted(_TYPES)}"
        ) from None
