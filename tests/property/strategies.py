"""Shared hypothesis strategies for the property suites."""

from __future__ import annotations

import string

from hypothesis import strategies as st

from repro.ot.operations import Delete, Insert

documents = st.text(alphabet=string.ascii_letters + string.digits + " ", max_size=40)

_short_text = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=5)


@st.composite
def positional_op_for(draw, doc: str):
    """A valid positional operation on ``doc``."""
    n = len(doc)
    if n == 0 or draw(st.booleans()):
        return Insert(draw(_short_text), draw(st.integers(0, n)))
    pos = draw(st.integers(0, n - 1))
    count = draw(st.integers(1, n - pos))
    return Delete(count, pos)


@st.composite
def doc_and_op_pair(draw):
    """A document plus two operations both defined on it."""
    doc = draw(documents)
    return doc, draw(positional_op_for(doc)), draw(positional_op_for(doc))


@st.composite
def doc_and_op_chain(draw):
    """A document plus 1-4 positional operations, each defined on the
    document the previous ones leave."""
    doc = draw(documents)
    ops = []
    current = doc
    for _ in range(draw(st.integers(1, 4))):
        op = draw(positional_op_for(current))
        ops.append(op)
        current = op.apply(current)
    return doc, ops
