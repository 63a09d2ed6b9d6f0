"""Property-based tests for the OT substrate (hypothesis).

TP1 is the load-bearing property of the whole reproduction: star
convergence follows from it, so it is tested exhaustively-at-random for
the positional operations, along with the algebra a burst of local edits
relies on (composition equals sequential application, a composition
transforms like its parts would, inversion undoes it).
"""

from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ot.operations import compose
from repro.ot.transform import exclusion_transform, inclusion_transform, transform_pair
from repro.ot.types import PositionalTextType

from .strategies import doc_and_op_chain, doc_and_op_pair, positional_op_for

invert = PositionalTextType().invert


class TestPositionalTP1:
    @given(doc_and_op_pair())
    @settings(max_examples=400)
    def test_tp1_priority_a(self, case):
        doc, a, b = case
        a2, b2 = transform_pair(a, b, a_priority=True)
        assert b2.apply(a.apply(doc)) == a2.apply(b.apply(doc))

    @given(doc_and_op_pair())
    @settings(max_examples=400)
    def test_tp1_priority_b(self, case):
        doc, a, b = case
        a2, b2 = transform_pair(a, b, a_priority=False)
        assert b2.apply(a.apply(doc)) == a2.apply(b.apply(doc))

    @given(doc_and_op_pair())
    @settings(max_examples=200)
    def test_transform_is_priority_symmetric(self, case):
        """swap(transform(a, b, p)) == transform(b, a, not p)."""
        doc, a, b = case
        a2, b2 = transform_pair(a, b, a_priority=True)
        b3, a3 = transform_pair(b, a, a_priority=False)
        assert (a2, b2) == (a3, b3)

    @given(doc_and_op_pair())
    @settings(max_examples=200)
    def test_transformed_ops_remain_applicable(self, case):
        doc, a, b = case
        a2, _ = transform_pair(a, b)
        a2.apply(b.apply(doc))  # must not raise


class TestExclusionProperties:
    @given(doc_and_op_pair())
    @settings(max_examples=300)
    def test_et_undoes_it_when_lossless(self, case):
        """ET(IT(a, b), b) == a whenever IT kept ``a`` primitive and out
        of b's created/destroyed region (the lossless cases)."""
        from repro.ot.operations import Delete, Insert

        doc, a, b = case
        transformed = inclusion_transform(a, b)
        if type(transformed) is not type(a):
            return  # split or annihilated: lossy by design
        # Skip positions relocated into or onto b's region (documented
        # lossy cases; the boundary a.pos == b.end is ambiguous after IT).
        if isinstance(a, Insert) and isinstance(b, Delete):
            if b.pos < a.pos <= b.end:
                return
        if isinstance(a, Delete) and isinstance(b, Delete):
            if not (a.end <= b.pos or a.pos >= b.end):
                return
        restored = exclusion_transform(transformed, b)
        assert restored == a


class TestComposeAlgebra:
    @given(doc_and_op_chain())
    @settings(max_examples=300)
    def test_compose_equals_sequential_application(self, case):
        doc, ops = case
        expected = doc
        for op in ops:
            expected = op.apply(expected)
        assert reduce(compose, ops).apply(doc) == expected

    @given(doc_and_op_chain().flatmap(
        lambda case: st.tuples(st.just(case), positional_op_for(case[0]))))
    @settings(max_examples=300)
    def test_tp1_both_priorities(self, case):
        """A composed burst against a concurrent edit on its base."""
        (doc, ops), x = case
        burst = reduce(compose, ops)
        for priority in (True, False):
            burst2, x2 = transform_pair(burst, x, priority)
            assert x2.apply(burst.apply(doc)) == burst2.apply(x.apply(doc))

    @given(doc_and_op_chain())
    @settings(max_examples=300)
    def test_invert_roundtrip(self, case):
        doc, ops = case
        burst = reduce(compose, ops)
        assert invert(doc, burst).apply(burst.apply(doc)) == doc

    @given(doc_and_op_chain())
    @settings(max_examples=300)
    def test_double_invert_is_identity_effect(self, case):
        doc, ops = case
        burst = reduce(compose, ops)
        done = burst.apply(doc)
        assert invert(done, invert(doc, burst)).apply(doc) == done
