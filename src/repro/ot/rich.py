"""Rich-text OT: collaborative editing with character formatting.

An extension in the spirit of the paper's Section 6: the compressed
vector clock machinery is type-agnostic, so here is a richer replicated
document type -- text where every character carries a set of formatting
attributes (``"bold"``, ``"italic"``, ...) -- plugged into the same star
editor.

Document model
--------------
``RichText`` is an immutable sequence of ``(char, frozenset[attr])``
pairs.

Operation model
---------------
A :class:`RichOperation` is a run of components over the whole document:

* ``retain(n)`` -- keep ``n`` characters unchanged;
* ``retain(n, add=..., remove=...)`` -- keep ``n`` characters but apply
  formatting changes;
* ``insert(text, attrs)`` -- insert pre-formatted text;
* ``delete(n)`` -- remove ``n`` characters.

Transformation
--------------
``transform`` satisfies TP1.  Position arithmetic follows the plain text
type; the new ingredient is **concurrent formatting of the same span**:
both sides' non-conflicting changes apply, and where they conflict (one
adds an attribute the other removes) the higher-priority side's decision
wins -- implemented by stripping the conflicting actions from the
lower-priority operation, which makes both execution orders agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

AttrSet = frozenset
Char = tuple[str, AttrSet]
RichText = tuple[Char, ...]


class RichTextError(ValueError):
    """Raised on malformed rich operations or length mismatches."""


def plain(text: str, *attrs: str) -> RichText:
    """Build a :data:`RichText` with uniform attributes."""
    attr_set = frozenset(attrs)
    return tuple((ch, attr_set) for ch in text)


def to_string(doc: RichText) -> str:
    """The unformatted character content."""
    return "".join(ch for ch, _ in doc)


def attrs_at(doc: RichText, index: int) -> AttrSet:
    """The attribute set of the character at ``index``."""
    return doc[index][1]


@dataclass(frozen=True)
class Retain:
    """Keep ``count`` characters, optionally changing formatting."""

    count: int
    add: AttrSet = field(default_factory=frozenset)
    remove: AttrSet = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise RichTextError(f"retain count must be positive, got {self.count}")
        if self.add & self.remove:
            raise RichTextError(
                f"attributes both added and removed: {sorted(self.add & self.remove)}"
            )

    @property
    def touched(self) -> AttrSet:
        return self.add | self.remove

    def is_plain(self) -> bool:
        return not self.add and not self.remove

    def strip(self, attrs: AttrSet) -> "Retain":
        """Drop actions on ``attrs`` (conflict resolution)."""
        return Retain(self.count, self.add - attrs, self.remove - attrs)

    def take(self, n: int) -> tuple["Retain", "Retain | None"]:
        if n >= self.count:
            return self, None
        return (
            Retain(n, self.add, self.remove),
            Retain(self.count - n, self.add, self.remove),
        )


@dataclass(frozen=True)
class InsertRich:
    """Insert ``text`` with uniform ``attrs``."""

    text: str
    attrs: AttrSet = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.text:
            raise RichTextError("insert text must be non-empty")


@dataclass(frozen=True)
class DeleteRich:
    """Delete the next ``count`` characters."""

    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise RichTextError(f"delete count must be positive, got {self.count}")

    def take(self, n: int) -> tuple["DeleteRich", "DeleteRich | None"]:
        if n >= self.count:
            return self, None
        return DeleteRich(n), DeleteRich(self.count - n)


Component = Union[Retain, InsertRich, DeleteRich]


@dataclass
class RichOperation:
    """A whole-document rich-text edit."""

    components: list[Component] = field(default_factory=list)

    # -- builders -------------------------------------------------------------

    def retain(self, n: int, add: Iterable[str] = (), remove: Iterable[str] = ()) -> "RichOperation":
        if n == 0:
            return self
        self.components.append(Retain(n, frozenset(add), frozenset(remove)))
        return self

    def insert(self, text: str, attrs: Iterable[str] = ()) -> "RichOperation":
        if text == "":
            return self
        self.components.append(InsertRich(text, frozenset(attrs)))
        return self

    def delete(self, n: int) -> "RichOperation":
        if n == 0:
            return self
        self.components.append(DeleteRich(n))
        return self

    # -- inspection -----------------------------------------------------------

    @property
    def base_length(self) -> int:
        return sum(
            c.count for c in self.components if isinstance(c, (Retain, DeleteRich))
        )

    @property
    def target_length(self) -> int:
        out = 0
        for c in self.components:
            if isinstance(c, Retain):
                out += c.count
            elif isinstance(c, InsertRich):
                out += len(c.text)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RichOperation):
            return NotImplemented
        return self.components == other.components

    def __repr__(self) -> str:
        parts = []
        for c in self.components:
            if isinstance(c, Retain):
                if c.is_plain():
                    parts.append(f"ret({c.count})")
                else:
                    parts.append(
                        f"fmt({c.count},+{sorted(c.add)},-{sorted(c.remove)})"
                    )
            elif isinstance(c, InsertRich):
                parts.append(f"ins({c.text!r},{sorted(c.attrs)})")
            else:
                parts.append(f"del({c.count})")
        return f"RichOperation[{', '.join(parts)}]"

    # -- semantics --------------------------------------------------------------

    def apply(self, doc: RichText) -> RichText:
        if len(doc) != self.base_length:
            raise RichTextError(
                f"operation base length {self.base_length} != document "
                f"length {len(doc)}"
            )
        out: list[Char] = []
        index = 0
        for c in self.components:
            if isinstance(c, Retain):
                span = doc[index : index + c.count]
                if c.is_plain():
                    out.extend(span)
                else:
                    out.extend((ch, (attrs | c.add) - c.remove) for ch, attrs in span)
                index += c.count
            elif isinstance(c, InsertRich):
                out.extend((ch, c.attrs) for ch in c.text)
            else:
                index += c.count
        return tuple(out)

    def invert(self, doc: RichText) -> "RichOperation":
        """The inverse relative to pre-state ``doc`` (for undo).

        Formatting inverses are computed per character (a uniform
        ``add``/``remove`` may hit characters with different prior
        attributes, so the inverse splits the span into runs); deletions
        invert to re-inserting the styled characters.
        """
        if len(doc) != self.base_length:
            raise RichTextError(
                f"operation base length {self.base_length} != document "
                f"length {len(doc)}"
            )
        inverse = RichOperation()
        index = 0
        for c in self.components:
            if isinstance(c, InsertRich):
                inverse.delete(len(c.text))
            elif isinstance(c, DeleteRich):
                # re-insert the styled characters, one run per attr set
                for ch, attrs in doc[index : index + c.count]:
                    inverse.insert(ch, attrs)
                index += c.count
            elif c.is_plain():
                inverse.retain(c.count)
                index += c.count
            else:
                # restore each character's prior attribute state
                for ch, attrs in doc[index : index + c.count]:
                    del ch
                    inverse.retain(
                        1,
                        add=c.remove & attrs,  # was present, got removed
                        remove=c.add - attrs,  # was absent, got added
                    )
                index += c.count
        return inverse

    # -- transformation -----------------------------------------------------------

    def transform(
        self, other: "RichOperation", self_priority: bool = True
    ) -> tuple["RichOperation", "RichOperation"]:
        """Symmetric TP1 transform with formatting-conflict resolution."""
        if self.base_length != other.base_length:
            raise RichTextError(
                f"cannot transform: base lengths differ "
                f"({self.base_length} vs {other.base_length})"
            )
        a_prime = RichOperation()
        b_prime = RichOperation()
        it_a = _Cursor(self.components)
        it_b = _Cursor(other.components)
        while True:
            a, b = it_a.peek(), it_b.peek()
            if a is None and b is None:
                break
            if isinstance(a, InsertRich) and (self_priority or not isinstance(b, InsertRich)):
                a_prime.components.append(a)
                b_prime.retain(len(a.text))
                it_a.advance_all()
                continue
            if isinstance(b, InsertRich):
                a_prime.retain(len(b.text))
                b_prime.components.append(b)
                it_b.advance_all()
                continue
            if isinstance(a, InsertRich):
                a_prime.components.append(a)
                b_prime.retain(len(a.text))
                it_a.advance_all()
                continue
            if a is None or b is None:
                raise RichTextError("transform ran off the end: length mismatch")
            step = min(a.count, b.count)
            a_head, a_rest = a.take(step)
            b_head, b_rest = b.take(step)
            if isinstance(a_head, DeleteRich) and isinstance(b_head, DeleteRich):
                pass  # both deleted the span: vanishes from both
            elif isinstance(a_head, DeleteRich):
                a_prime.components.append(a_head)
            elif isinstance(b_head, DeleteRich):
                b_prime.components.append(b_head)
            else:
                # both retain: merge formatting with priority on conflicts
                conflicts = a_head.touched & b_head.touched
                if conflicts:
                    if self_priority:
                        b_head = b_head.strip(conflicts)
                    else:
                        a_head = a_head.strip(conflicts)
                _append_retain(a_prime, a_head)
                _append_retain(b_prime, b_head)
            it_a.consume(step, a_rest)
            it_b.consume(step, b_rest)
        return a_prime, b_prime


def _append_retain(op: RichOperation, retain: Retain) -> None:
    op.retain(retain.count, retain.add, retain.remove)


class _Cursor:
    """Cursor over components supporting partial consumption."""

    __slots__ = ("_components", "_index", "_pending")

    def __init__(self, components: list[Component]) -> None:
        self._components = components
        self._index = 0
        self._pending: Component | None = None

    def peek(self) -> Component | None:
        if self._pending is not None:
            return self._pending
        if self._index >= len(self._components):
            return None
        return self._components[self._index]

    def advance_all(self) -> None:
        if self._pending is not None:
            self._pending = None
        else:
            self._index += 1

    def consume(self, n: int, rest: Component | None) -> None:
        del n
        if self._pending is None:
            self._index += 1
        self._pending = rest


class RichTextType:
    """OT-type adapter plugging rich text into the generic editors."""

    name = "rich-text"

    def initial(self) -> RichText:
        return ()

    def apply(self, state: RichText, op: RichOperation) -> RichText:
        return op.apply(state)

    def transform(
        self, a: RichOperation, b: RichOperation, a_priority: bool
    ) -> tuple[RichOperation, RichOperation]:
        return a.transform(b, self_priority=a_priority)

    def invert(self, state: RichText, op: RichOperation) -> RichOperation:
        """The inverse of ``op`` relative to its pre-state (for undo)."""
        return op.invert(state)

