"""Generic OT types: the pluggable transformation contract.

The paper's Section 6 argues the compression scheme applies to *any*
replicated data object for which an operational-transformation function
exists.  The group-editor engine in :mod:`repro.editor` is therefore
written against the :class:`OTType` contract below rather than strings
specifically, and this module registers these concrete types:

* :class:`PositionalTextType` -- collaborative text (the paper's domain)
  driven by the paper's positional ``Insert``/``Delete`` operations and
  the IT rules of :mod:`repro.ot.transform`;
* :class:`ListType` -- replicated ordered lists (insert/delete of
  elements), the natural generalisation to replicated databases of rows;
* :class:`CounterType` -- commutative increments (transformation is the
  identity), the degenerate case showing the scheme's lower bound;
* :class:`LWWRegisterType` -- a last-writer-wins register where the
  transform deterministically discards the lower-priority concurrent
  write, modelling replicated configuration entries;
* :class:`repro.ot.rich.RichTextType` -- text with formatting attributes.

Every type must guarantee **TP1**::

    apply(apply(S, a), transform(a, b)[1]) == apply(apply(S, b), transform(a, b)[0])

which is the only property star-topology convergence requires (the
notifier serialises its stream, so TP2 never arises).  A type that can
undo also offers ``invert(state, op)``; model wire bytes come from
:func:`repro.net.transport.register_sizer`, not from the type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, TypeVar, runtime_checkable

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
        """The inverse of ``op`` relative to pre-state ``state`` (undo).

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
class ListOp:
    """Insert or delete a single element of a replicated list.

    ``kind`` is ``"ins"`` or ``"del"``; ``value`` is ignored for deletes.
    """

    kind: str
    index: int
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind not in ("ins", "del", "nop"):
            raise ValueError(f"unknown list op kind {self.kind!r}")
        if self.index < 0:
            raise ValueError("list index must be >= 0")


class ListType:
    """Replicated ordered list with element-level insert/delete."""

    name = "list"

    def initial(self) -> tuple:
        return ()

    def apply(self, state: tuple, op: ListOp) -> tuple:
        if op.kind == "nop":
            return state
        if op.kind == "ins":
            if op.index > len(state):
                raise ValueError(f"insert index {op.index} beyond list length {len(state)}")
            return state[: op.index] + (op.value,) + state[op.index :]
        if op.index >= len(state):
            raise ValueError(f"delete index {op.index} beyond list length {len(state)}")
        return state[: op.index] + state[op.index + 1 :]

    def transform(self, a: ListOp, b: ListOp, a_priority: bool) -> tuple[ListOp, ListOp]:
        return (
            self._transform_one(a, b, a_priority),
            self._transform_one(b, a, not a_priority),
        )

    @staticmethod
    def _transform_one(a: ListOp, b: ListOp, a_priority: bool) -> ListOp:
        if a.kind == "nop" or b.kind == "nop":
            return a
        if b.kind == "ins":
            if a.index > b.index or (a.index == b.index and (a.kind == "del" or not a_priority)):
                return ListOp(a.kind, a.index + 1, a.value)
            return a
        # b deletes one element
        if a.index > b.index:
            return ListOp(a.kind, a.index - 1, a.value)
        if a.index == b.index and a.kind == "del":
            return ListOp("nop", 0)
        return a


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


@dataclass(frozen=True)
class RegisterOp:
    """Overwrite a replicated register with ``value``."""

    value: Any


class LWWRegisterType:
    """Last-writer-wins register.

    Concurrent writes conflict; the transform keeps the higher-priority
    write and turns the other into a no-op overwrite of the same value,
    so both execution orders converge to the winner's value.
    """

    name = "lww-register"

    def initial(self) -> Any:
        return None

    def apply(self, state: Any, op: RegisterOp) -> Any:
        del state
        return op.value

    def transform(self, a: RegisterOp, b: RegisterOp, a_priority: bool) -> tuple[RegisterOp, RegisterOp]:
        winner = a if a_priority else b
        # After transformation both residual ops write the winning value:
        # executing either order yields the winner.
        return RegisterOp(winner.value), RegisterOp(winner.value)


_REGISTRY: dict[str, Any] = {}


def register_type(ot_type: Any) -> None:
    """Register an OT type instance under its ``name``."""
    if not hasattr(ot_type, "name"):
        raise TypeError("OT types must expose a .name attribute")
    _REGISTRY[ot_type.name] = ot_type


def get_type(name: str) -> Any:
    """Look up a registered OT type by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown OT type {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def _register_builtins() -> None:
    from repro.ot.rich import RichTextType

    for t in (
        PositionalTextType(),
        ListType(),
        CounterType(),
        LWWRegisterType(),
        RichTextType(),
    ):
        register_type(t)


_register_builtins()
