"""Property tests for the rich-text OT type."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ot.rich import RichOperation, plain

ATTRS = ["bold", "italic", "underline", "mono"]

attr_sets = st.frozensets(st.sampled_from(ATTRS), max_size=2)

rich_documents = st.lists(
    st.tuples(st.sampled_from(string.ascii_lowercase), attr_sets),
    max_size=25,
).map(tuple)


@st.composite
def rich_op_for(draw, doc):
    op = RichOperation()
    remaining = len(doc)
    while remaining > 0:
        kind = draw(st.sampled_from(["retain", "format", "insert", "delete"]))
        if kind == "insert":
            text = draw(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4))
            op.insert(text, draw(attr_sets))
            continue
        span = draw(st.integers(1, remaining))
        if kind == "retain":
            op.retain(span)
        elif kind == "format":
            add = draw(attr_sets)
            remove = draw(attr_sets) - add
            op.retain(span, add=add, remove=remove)
        else:
            op.delete(span)
        remaining -= span
    if draw(st.booleans()):
        op.insert(draw(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=3)))
    return op


@st.composite
def doc_and_rich_pair(draw):
    doc = draw(rich_documents)
    return doc, draw(rich_op_for(doc)), draw(rich_op_for(doc))


class TestRichInvert:
    @given(rich_documents.flatmap(lambda d: st.tuples(st.just(d), rich_op_for(d))))
    @settings(max_examples=250)
    def test_invert_roundtrip(self, case):
        doc, op = case
        assert op.invert(doc).apply(op.apply(doc)) == doc


class TestRichTP1:
    @given(doc_and_rich_pair())
    @settings(max_examples=400)
    def test_tp1_both_priorities(self, case):
        doc, a, b = case
        for priority in (True, False):
            a2, b2 = a.transform(b, self_priority=priority)
            left = b2.apply(a.apply(doc))
            right = a2.apply(b.apply(doc))
            assert left == right

    @given(doc_and_rich_pair())
    @settings(max_examples=150)
    def test_priority_symmetry(self, case):
        """swap(transform(a, b, p)) == transform(b, a, not p)."""
        doc, a, b = case
        del doc
        a2, b2 = a.transform(b, self_priority=True)
        b3, a3 = b.transform(a, self_priority=False)
        assert (a2, b2) == (a3, b3)

    @given(doc_and_rich_pair())
    @settings(max_examples=150)
    def test_content_preservation(self, case):
        """Neither execution order loses or duplicates surviving text:
        characters retained by both operations appear exactly once, and
        both inserts appear exactly once.
        """
        from repro.ot.rich import InsertRich, Retain, to_string

        doc, a, b = case
        a2, b2 = a.transform(b)
        merged = to_string(b2.apply(a.apply(doc)))

        def inserted(op):
            return "".join(
                c.text for c in op.components if isinstance(c, InsertRich)
            )

        expected_length = len(inserted(a)) + len(inserted(b))
        # characters both sides retained survive
        index = 0
        survivors = 0
        for c_a, c_b in _aligned_spans(a, b):
            if isinstance(c_a, Retain) and isinstance(c_b, Retain):
                survivors += c_a.count
        assert len(merged) == expected_length + survivors


def _aligned_spans(a, b):
    """Pair up the base-document spans of two operations."""
    from repro.ot.rich import InsertRich

    def spans(op):
        for c in op.components:
            if isinstance(c, InsertRich):
                continue
            for _ in range(c.count):
                yield c.take(1)[0] if hasattr(c, "take") else c

    return zip(spans(a), spans(b))
