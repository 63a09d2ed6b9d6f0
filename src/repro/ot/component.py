"""Component-based text operations with compose and TP1 transform.

A :class:`TextOperation` describes an edit as a run of *components*
spanning the whole document:

* ``retain(n)`` -- skip over ``n`` characters unchanged (stored as a
  positive ``int``),
* ``insert(s)`` -- insert string ``s`` (stored as a ``str``),
* ``delete(n)`` -- delete the next ``n`` characters (stored as a
  negative ``int``).

This representation (familiar from production OT systems) has two
properties the positional model lacks:

* ``transform`` is *total* and satisfies **TP1** for every operation
  pair -- exactly the convergence property a star-topology editor needs
  (the notifier imposes a single total order on its stream, so TP2 is
  never exercised);
* ``compose`` lets a site fold a burst of local edits into a single
  message, which the benchmarks use for the batching ablation.

Conversions to and from the paper's positional operations are provided
so the two models interoperate: the paper-faithful scenario replays use
positional operations, the generic editor engine uses this type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from repro.net.transport import INT_WIDTH, register_sizer
from repro.ot.operations import (
    Delete,
    Identity,
    Insert,
    Operation,
    OperationGroup,
    flatten,
)

Component = Union[int, str]  # +int retain, -int delete, str insert


class ComponentError(ValueError):
    """Raised on malformed component operations or length mismatches."""


@dataclass
class TextOperation:
    """A whole-document edit as a normalised run of components.

    Invariants maintained by the mutating builder methods:

    * adjacent components of the same kind are merged;
    * zero-length components are dropped;
    * an insert adjacent to a delete is normalised to insert-first
      (canonical order), which makes equality structural.
    """

    components: list[Component] = field(default_factory=list)
    base_length: int = 0
    target_length: int = 0

    # -- builders -----------------------------------------------------------

    def retain(self, n: int) -> "TextOperation":
        """Append a retain of ``n`` characters (no-op when ``n == 0``)."""
        if n < 0:
            raise ComponentError(f"retain length must be >= 0, got {n}")
        if n == 0:
            return self
        self.base_length += n
        self.target_length += n
        if self.components and isinstance(self.components[-1], int) and self.components[-1] > 0:
            self.components[-1] += n
        else:
            self.components.append(n)
        return self

    def insert(self, s: str) -> "TextOperation":
        """Append an insertion of string ``s`` (no-op when empty)."""
        if s == "":
            return self
        self.target_length += len(s)
        comps = self.components
        if comps and isinstance(comps[-1], str):
            comps[-1] += s
        elif comps and isinstance(comps[-1], int) and comps[-1] < 0:
            # Canonical order: insert before an adjacent delete.  The
            # effect is identical; normalising makes equality structural.
            if len(comps) >= 2 and isinstance(comps[-2], str):
                comps[-2] += s
            else:
                comps.insert(len(comps) - 1, s)
        else:
            comps.append(s)
        return self

    def delete(self, n: int) -> "TextOperation":
        """Append a deletion of ``n`` characters (no-op when ``n == 0``)."""
        if n < 0:
            raise ComponentError(f"delete length must be >= 0, got {n}")
        if n == 0:
            return self
        self.base_length += n
        comps = self.components
        if comps and isinstance(comps[-1], int) and comps[-1] < 0:
            comps[-1] -= n
        else:
            comps.append(-n)
        return self

    # -- inspection ---------------------------------------------------------

    def is_noop(self) -> bool:
        """True when applying the operation returns the input unchanged."""
        return all(isinstance(c, int) and c > 0 for c in self.components)

    def inserted_chars(self) -> int:
        return sum(len(c) for c in self.components if isinstance(c, str))

    def deleted_chars(self) -> int:
        return sum(-c for c in self.components if isinstance(c, int) and c < 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TextOperation):
            return NotImplemented
        return self.components == other.components

    def __repr__(self) -> str:
        parts = []
        for c in self.components:
            if isinstance(c, str):
                parts.append(f"ins({c!r})")
            elif c > 0:
                parts.append(f"ret({c})")
            else:
                parts.append(f"del({-c})")
        return f"TextOperation[{', '.join(parts)}]"

    # -- semantics ----------------------------------------------------------

    def apply(self, document: str) -> str:
        """Execute the operation on ``document``."""
        if len(document) != self.base_length:
            raise ComponentError(
                f"operation base length {self.base_length} does not match "
                f"document length {len(document)}"
            )
        out: list[str] = []
        index = 0
        for c in self.components:
            if isinstance(c, str):
                out.append(c)
            elif c > 0:
                out.append(document[index : index + c])
                index += c
            else:
                index += -c
        return "".join(out)

    def invert(self, document: str) -> "TextOperation":
        """Return the inverse operation relative to the pre-state ``document``."""
        if len(document) != self.base_length:
            raise ComponentError(
                f"operation base length {self.base_length} does not match "
                f"document length {len(document)}"
            )
        inverse = TextOperation()
        index = 0
        for c in self.components:
            if isinstance(c, str):
                inverse.delete(len(c))
            elif c > 0:
                inverse.retain(c)
                index += c
            else:
                inverse.insert(document[index : index + -c])
                index += -c
        return inverse

    # -- algebra ------------------------------------------------------------

    def compose(self, other: "TextOperation") -> "TextOperation":
        """Return ``self`` followed by ``other`` as a single operation.

        Requires ``other.base_length == self.target_length``.  Satisfies
        ``compose(a, b).apply(S) == b.apply(a.apply(S))``.
        """
        if other.base_length != self.target_length:
            raise ComponentError(
                f"cannot compose: first target length {self.target_length} != "
                f"second base length {other.base_length}"
            )
        result = TextOperation()
        it_a = _ComponentCursor(self.components)
        it_b = _ComponentCursor(other.components)
        while True:
            a, b = it_a.peek(), it_b.peek()
            if a is None and b is None:
                break
            # Deletions of the first operation pass through untouched.
            if isinstance(a, int) and a < 0:
                result.delete(-a)
                it_a.advance(-a, is_insert=False)
                continue
            # Insertions of the second operation pass through untouched.
            if isinstance(b, str):
                result.insert(b)
                it_b.advance(len(b), is_insert=True)
                continue
            if a is None or b is None:
                raise ComponentError("compose ran off the end: length mismatch")
            if isinstance(a, str):
                n = _component_len(a)
                m = _component_len(b)
                step = min(n, m)
                if isinstance(b, int) and b > 0:
                    result.insert(a[:step])
                else:  # b deletes characters a inserted: they annihilate
                    pass
                it_a.advance(step, is_insert=True)
                it_b.advance(step, is_insert=False)
                continue
            # a retains
            n = _component_len(a)
            m = _component_len(b)
            step = min(n, m)
            if isinstance(b, int) and b > 0:
                result.retain(step)
            else:
                result.delete(step)
            it_a.advance(step, is_insert=False)
            it_b.advance(step, is_insert=False)
        return result

    def transform(
        self, other: "TextOperation", self_priority: bool = True
    ) -> tuple["TextOperation", "TextOperation"]:
        """Symmetric transform ``(a, b) -> (a', b')`` satisfying TP1.

        Both operations must share a base length.  ``self_priority``
        breaks insert-vs-insert position ties: when ``True``, ``self``'s
        insertion ends up before ``other``'s in the merged result.
        """
        a_op, b_op = self, other
        if a_op.base_length != b_op.base_length:
            raise ComponentError(
                f"cannot transform: base lengths differ "
                f"({a_op.base_length} vs {b_op.base_length})"
            )
        a_prime = TextOperation()
        b_prime = TextOperation()
        it_a = _ComponentCursor(a_op.components)
        it_b = _ComponentCursor(b_op.components)
        while True:
            a, b = it_a.peek(), it_b.peek()
            if a is None and b is None:
                break
            # Inserts come first; the priority flag orders simultaneous ones.
            if isinstance(a, str) and (self_priority or not isinstance(b, str)):
                a_prime.insert(a)
                b_prime.retain(len(a))
                it_a.advance(len(a), is_insert=True)
                continue
            if isinstance(b, str):
                a_prime.retain(len(b))
                b_prime.insert(b)
                it_b.advance(len(b), is_insert=True)
                continue
            if isinstance(a, str):
                a_prime.insert(a)
                b_prime.retain(len(a))
                it_a.advance(len(a), is_insert=True)
                continue
            if a is None or b is None:
                raise ComponentError("transform ran off the end: length mismatch")
            n, m = _component_len(a), _component_len(b)
            step = min(n, m)
            a_del = a < 0
            b_del = b < 0
            if not a_del and not b_del:
                a_prime.retain(step)
                b_prime.retain(step)
            elif a_del and not b_del:
                a_prime.delete(step)
            elif not a_del and b_del:
                b_prime.delete(step)
            # both delete the same span: it vanishes from both results
            it_a.advance(step, is_insert=False)
            it_b.advance(step, is_insert=False)
        return a_prime, b_prime

    # -- conversions --------------------------------------------------------

    @classmethod
    def noop(cls, length: int) -> "TextOperation":
        """The identity operation on a document of ``length`` characters."""
        return cls().retain(length)

    @classmethod
    def from_positional(cls, op: Operation, doc_length: int) -> "TextOperation":
        """Convert a positional operation (or group) to component form."""
        result = cls.noop(doc_length)
        for primitive in flatten(op):
            step = cls()
            if isinstance(primitive, Insert):
                step.retain(primitive.pos).insert(primitive.text)
                step.retain(doc_length - primitive.pos)
                doc_length += len(primitive.text)
            elif isinstance(primitive, Delete):
                step.retain(primitive.pos).delete(primitive.count)
                step.retain(doc_length - primitive.end)
                doc_length -= primitive.count
            else:  # pragma: no cover - flatten() drops identities
                continue
            result = result.compose(step)
        return result

    def to_positional(self) -> Operation:
        """Convert to positional form (a group when multiple spans change).

        Members are emitted in document order with positions adjusted for
        sequential application, mirroring :class:`OperationGroup` semantics.
        """
        members: list[Operation] = []
        pos = 0  # position in the evolving (partially edited) document
        for c in self.components:
            if isinstance(c, str):
                members.append(Insert(c, pos))
                pos += len(c)
            elif c > 0:
                pos += c
            else:
                members.append(Delete(-c, pos))
        if not members:
            return Identity()
        if len(members) == 1:
            return members[0]
        return OperationGroup(tuple(members))


def _text_operation_bytes(op: TextOperation) -> int:
    """Model wire size: a tag, each insert as UTF-8 + terminator, each
    retain/delete as one integer."""
    return 1 + sum(
        len(c.encode("utf-8")) + 1 if isinstance(c, str) else INT_WIDTH
        for c in op.components
    )


register_sizer(TextOperation, _text_operation_bytes)


def _component_len(c: Component) -> int:
    return len(c) if isinstance(c, str) else abs(c)


class _ComponentCursor:
    """Cursor over a component list supporting partial consumption."""

    __slots__ = ("_components", "_index", "_offset")

    def __init__(self, components: Iterable[Component]) -> None:
        self._components = list(components)
        self._index = 0
        self._offset = 0

    def peek(self) -> Component | None:
        """Current (possibly partially consumed) component, or ``None``."""
        if self._index >= len(self._components):
            return None
        c = self._components[self._index]
        if self._offset == 0:
            return c
        if isinstance(c, str):
            return c[self._offset :]
        if c > 0:
            return c - self._offset
        return c + self._offset  # negative: consumed part added back

    def advance(self, n: int, is_insert: bool) -> None:
        """Consume ``n`` units of the current component."""
        c = self.peek()
        if c is None:
            raise ComponentError("advance past end of components")
        remaining = _component_len(c)
        if n > remaining:
            raise ComponentError(f"advance {n} exceeds component length {remaining}")
        del is_insert  # kept for call-site readability
        if n == remaining:
            self._index += 1
            self._offset = 0
        else:
            self._offset += n
