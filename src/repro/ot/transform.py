"""Inclusion and exclusion transformation for positional operations.

Operational transformation (paper Section 2.3) reformulates the
positional parameters of an operation ``Oa`` according to the effect of a
*concurrent* operation ``Ob`` so that executing the transformed operation
``Oa'`` on the document state *after* ``Ob`` realises ``Oa``'s original
intention.

Two directions are provided, following Sun et al. (TOCHI 1998):

* :func:`inclusion_transform` -- ``IT(Oa, Ob)``: include ``Ob``'s effect.
  Precondition: ``Oa`` and ``Ob`` are defined on the same document state.
* :func:`exclusion_transform` -- ``ET(Oa, Ob)``: exclude ``Ob``'s effect.
  Precondition: ``Oa`` is defined on the state immediately after ``Ob``.

:func:`transform_pair` performs the symmetric transformation
``(Oa, Ob) -> (Oa', Ob')`` with the convergence guarantee (TP1)::

    apply(apply(S, Oa), Ob') == apply(apply(S, Ob), Oa')

Tie-breaking
------------
When two concurrent inserts target the same position the result order is
ambiguous; like the REDUCE system we break the tie by site priority.  All
functions accept ``a_priority`` -- ``True`` when ``Oa``'s originating
site has higher priority (lower site identifier), in which case ``Oa``'s
text ends up *before* ``Ob``'s.

Splitting
---------
``IT(Delete, Insert)`` with the insertion strictly inside the deleted
region splits the deletion into an :class:`~repro.ot.operations.OperationGroup`
of two deletions whose members are pre-adjusted for sequential
application, preserving the deletion intention without touching the
concurrently inserted text.
"""

from __future__ import annotations

from repro.ot.operations import (
    Delete,
    Identity,
    Insert,
    Operation,
    OperationGroup,
    simplify,
)


class TransformError(TypeError):
    """Raised when an operation pair has no transformation rule."""


# ---------------------------------------------------------------------------
# Inclusion transformation (IT)
# ---------------------------------------------------------------------------


def _it_insert_insert(a: Insert, b: Insert, a_priority: bool) -> Operation:
    if a.pos < b.pos or (a.pos == b.pos and a_priority):
        return a
    return Insert(a.text, a.pos + len(b.text))


def _it_insert_delete(a: Insert, b: Delete) -> Operation:
    if a.pos <= b.pos:
        return a
    if a.pos >= b.end:
        return Insert(a.text, a.pos - b.count)
    # Insertion point was deleted by b; relocate to the deletion site.
    return Insert(a.text, b.pos)


def _it_delete_insert(a: Delete, b: Insert) -> Operation:
    if b.pos >= a.end:
        return a
    if b.pos <= a.pos:
        return Delete(a.count, a.pos + len(b.text))
    # b's text lands strictly inside a's range: split around it.  The
    # second member's position accounts for the first member having
    # already removed (b.pos - a.pos) characters.
    left = Delete(b.pos - a.pos, a.pos)
    right = Delete(a.end - b.pos, a.pos + len(b.text))
    return OperationGroup((left, right))


def _it_delete_delete(a: Delete, b: Delete) -> Operation:
    if a.end <= b.pos:
        return a
    if a.pos >= b.end:
        return Delete(a.count, a.pos - b.count)
    # Overlap: the intersection has already been deleted by b.
    left = max(0, b.pos - a.pos)
    right = max(0, a.end - b.end)
    if left + right == 0:
        return Identity()
    return Delete(left + right, min(a.pos, b.pos))


def inclusion_transform(a: Operation, b: Operation, a_priority: bool = True) -> Operation:
    """``IT(a, b)``: transform ``a`` to include the effect of ``b``.

    ``a`` and ``b`` must be defined on the same document state.  The
    result is defined on the state produced by executing ``b`` and, when
    executed there, realises ``a``'s original intention.
    """
    if isinstance(b, Identity):
        return a
    if isinstance(a, Identity):
        return a
    if isinstance(a, OperationGroup) or isinstance(b, OperationGroup):
        a2, _ = transform_pair(a, b, a_priority)
        return a2
    if isinstance(a, Insert) and isinstance(b, Insert):
        return _it_insert_insert(a, b, a_priority)
    if isinstance(a, Insert) and isinstance(b, Delete):
        return _it_insert_delete(a, b)
    if isinstance(a, Delete) and isinstance(b, Insert):
        return _it_delete_insert(a, b)
    if isinstance(a, Delete) and isinstance(b, Delete):
        return _it_delete_delete(a, b)
    raise TransformError(f"no IT rule for {type(a).__name__} against {type(b).__name__}")


# ---------------------------------------------------------------------------
# Symmetric transformation with TP1
# ---------------------------------------------------------------------------


# One dispatch per primitive pair: both directions of the IT rules above,
# keyed on the exact operand types.  Anything else (identities, groups)
# takes the general path in :func:`transform_pair`.
_PRIMITIVE_PAIRS = {
    (Insert, Insert): lambda a, b, a_priority: (
        _it_insert_insert(a, b, a_priority),
        _it_insert_insert(b, a, not a_priority),
    ),
    (Insert, Delete): lambda a, b, a_priority: (
        _it_insert_delete(a, b), _it_delete_insert(b, a)
    ),
    (Delete, Insert): lambda a, b, a_priority: (
        _it_delete_insert(a, b), _it_insert_delete(b, a)
    ),
    (Delete, Delete): lambda a, b, a_priority: (
        _it_delete_delete(a, b), _it_delete_delete(b, a)
    ),
}


def transform_pair(
    a: Operation, b: Operation, a_priority: bool = True
) -> tuple[Operation, Operation]:
    """Symmetric transformation ``(a, b) -> (a', b')`` satisfying TP1.

    Both inputs must be defined on the same document state ``S``.  The
    outputs satisfy ``apply(apply(S, a), b') == apply(apply(S, b), a')``.
    Groups are folded member by member, threading the opposing operation
    through each step so preconditions stay aligned.
    """
    rule = _PRIMITIVE_PAIRS.get((type(a), type(b)))
    if rule is not None:
        # The rules return simple forms already (a primitive, or a split
        # of two non-empty deletes): only no-ops need normalising.
        a2, b2 = rule(a, b, a_priority)
        return (
            Identity() if a2.is_identity() else a2,
            Identity() if b2.is_identity() else b2,
        )
    if isinstance(a, OperationGroup):
        b_cur: Operation = b
        members: list[Operation] = []
        for member in a.members:
            m2, b_cur = transform_pair(member, b_cur, a_priority)
            members.append(m2)
        return simplify(OperationGroup(tuple(members))), b_cur
    if isinstance(b, OperationGroup):
        b2, a2 = transform_pair(b, a, not a_priority)
        return a2, b2
    a2 = inclusion_transform(a, b, a_priority)
    b2 = inclusion_transform(b, a, not a_priority)
    return simplify(a2), simplify(b2)


# ---------------------------------------------------------------------------
# Exclusion transformation (ET)
# ---------------------------------------------------------------------------


def _et_insert_insert(a: Insert, b: Insert) -> Operation:
    if a.pos <= b.pos:
        return a
    if a.pos >= b.end:
        return Insert(a.text, a.pos - len(b.text))
    # a targets the interior of b's freshly inserted text; that position
    # has no pre-b equivalent.  Relocate to b's insertion point (lossy).
    return Insert(a.text, b.pos)


def _et_insert_delete(a: Insert, b: Delete) -> Operation:
    if a.pos <= b.pos:
        return a
    return Insert(a.text, a.pos + b.count)


def _et_delete_insert(a: Delete, b: Insert) -> Operation:
    if a.end <= b.pos:
        return a
    if a.pos >= b.end:
        return Delete(a.count, a.pos - len(b.text))
    # a overlaps b's inserted text.  The portion inside b's text has no
    # pre-b equivalent; exclude it (lossy) and keep the remainder.
    left = max(0, min(a.end, b.pos) - a.pos)
    right = max(0, a.end - b.end)
    if left + right == 0:
        return Identity()
    return Delete(left + right, a.pos if left > 0 else b.pos)


def _et_delete_delete(a: Delete, b: Delete) -> Operation:
    if a.end <= b.pos:
        return a
    if a.pos >= b.pos:
        return Delete(a.count, a.pos + b.count)
    # a straddles b's (restored) deletion point: split around it.
    left = Delete(b.pos - a.pos, a.pos)
    right = Delete(a.end - b.pos, a.pos + b.count)
    return OperationGroup((left, right))


def exclusion_transform(a: Operation, b: Operation) -> Operation:
    """``ET(a, b)``: transform ``a`` to exclude the effect of ``b``.

    Precondition: ``a`` is defined on the state immediately *after*
    ``b``.  The result is defined on the state before ``b``.  On
    non-overlapping ranges ``ET(IT(a, b), b) == a`` holds exactly; where
    ``a`` addresses content created by ``b`` the exclusion is documented
    as lossy (matching the "lost information" discussion of Sun et al.).
    """
    if isinstance(b, Identity):
        return a
    if isinstance(a, Identity):
        return a
    if isinstance(a, OperationGroup):
        # Members are sequential: member k is defined after member k-1.
        # Excluding b from the group excludes it from the first member,
        # then from each subsequent member b must first be viewed through
        # the preceding members' inclusion.
        members: list[Operation] = []
        b_cur: Operation = b
        for member in a.members:
            members.append(exclusion_transform(member, b_cur))
            b_cur = inclusion_transform(b_cur, member)
        return simplify(OperationGroup(tuple(members)))
    if isinstance(b, OperationGroup):
        # Exclude the group's members right-to-left.
        out: Operation = a
        for member in reversed(b.members):
            out = exclusion_transform(out, member)
        return simplify(out)
    if isinstance(a, Insert) and isinstance(b, Insert):
        return _et_insert_insert(a, b)
    if isinstance(a, Insert) and isinstance(b, Delete):
        return _et_insert_delete(a, b)
    if isinstance(a, Delete) and isinstance(b, Insert):
        return _et_delete_insert(a, b)
    if isinstance(a, Delete) and isinstance(b, Delete):
        return _et_delete_delete(a, b)
    raise TransformError(f"no ET rule for {type(a).__name__} against {type(b).__name__}")
