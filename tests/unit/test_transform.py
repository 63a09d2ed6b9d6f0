"""Unit tests for IT/ET transformation rules (repro.ot.transform)."""

import pytest

from repro.ot.operations import Delete, Identity, Insert, OperationGroup, compose, simplify
from repro.ot.transform import (
    TransformError,
    exclusion_transform,
    inclusion_transform,
    transform_pair,
)
from repro.ot.types import PositionalTextType


def check_tp1(doc, a, b, a_priority=True):
    """Assert TP1 for a pair and return the merged result."""
    a2, b2 = transform_pair(a, b, a_priority)
    left = b2.apply(a.apply(doc))
    right = a2.apply(b.apply(doc))
    assert left == right, f"TP1 violated: {left!r} != {right!r} for {a}, {b}"
    return left


class TestITInsertInsert:
    def test_disjoint_positions(self):
        a, b = Insert("x", 1), Insert("y", 3)
        assert inclusion_transform(a, b) == a
        assert inclusion_transform(b, a) == Insert("y", 4)

    def test_same_position_priority_side_stays(self):
        a, b = Insert("x", 2), Insert("y", 2)
        assert inclusion_transform(a, b, a_priority=True) == a
        assert inclusion_transform(a, b, a_priority=False) == Insert("x", 3)

    def test_same_position_tp1(self):
        result = check_tp1("abcd", Insert("x", 2), Insert("y", 2))
        assert result == "abxycd"

    def test_paper_example_tp1(self):
        # O_1 = Insert["12", 1] vs O_2 = Delete[3, 2] handled below, but
        # two inserts around it as a sanity case:
        check_tp1("ABCDE", Insert("12", 1), Insert("zz", 4))


class TestITInsertDelete:
    def test_insert_before_delete(self):
        a = Insert("x", 1)
        b = Delete(2, 3)
        assert inclusion_transform(a, b) == a

    def test_insert_at_delete_start_unmoved(self):
        assert inclusion_transform(Insert("x", 3), Delete(2, 3)) == Insert("x", 3)

    def test_insert_after_delete_shifts_left(self):
        assert inclusion_transform(Insert("x", 5), Delete(2, 1)) == Insert("x", 3)

    def test_insert_inside_deleted_region_relocates(self):
        assert inclusion_transform(Insert("x", 4), Delete(3, 2)) == Insert("x", 2)

    def test_paper_O2_against_O1(self):
        # The paper: IT(O_2, O_1) where O_2 = Delete[3,2], O_1 = Insert["12",1]
        # yields O_2' = Delete[3,4].
        o2_prime = inclusion_transform(Delete(3, 2), Insert("12", 1))
        assert o2_prime == Delete(3, 4)
        assert o2_prime.apply("A12BCDE") == "A12B"

    def test_tp1_overlap(self):
        check_tp1("ABCDE", Insert("x", 3), Delete(3, 1))


class TestITDeleteInsert:
    def test_insert_after_delete_range(self):
        a = Delete(2, 1)
        assert inclusion_transform(a, Insert("x", 3)) == a

    def test_insert_at_or_before_delete_start_shifts(self):
        assert inclusion_transform(Delete(2, 3), Insert("xy", 1)) == Delete(2, 5)
        assert inclusion_transform(Delete(2, 3), Insert("xy", 3)) == Delete(2, 5)

    def test_insert_inside_delete_splits(self):
        result = inclusion_transform(Delete(4, 1), Insert("XY", 3))
        assert isinstance(result, OperationGroup)
        left, right = result.members
        assert left == Delete(2, 1)
        assert right == Delete(2, 3)
        # "a" + "bc" + deleted... verify semantics on a document:
        # base "abcdef", a deletes "bcde"; b inserts "XY" at 3.
        assert result.apply(Insert("XY", 3).apply("abcdef")) == "aXYf"

    def test_split_preserves_tp1(self):
        assert check_tp1("abcdef", Delete(4, 1), Insert("XY", 3)) == "aXYf"


class TestITDeleteDelete:
    def test_disjoint_before(self):
        a = Delete(2, 0)
        assert inclusion_transform(a, Delete(2, 4)) == a

    def test_disjoint_after_shifts(self):
        assert inclusion_transform(Delete(2, 4), Delete(2, 0)) == Delete(2, 2)

    def test_partial_overlap_left(self):
        # a deletes [1,4), b deletes [2,5): survivor is [1,2)
        assert inclusion_transform(Delete(3, 1), Delete(3, 2)) == Delete(1, 1)

    def test_partial_overlap_right(self):
        # a deletes [2,5), b deletes [1,4): survivor is [4,5) at pos 1
        assert inclusion_transform(Delete(3, 2), Delete(3, 1)) == Delete(1, 1)

    def test_a_contains_b(self):
        # a deletes [0,6), b deletes [2,4): survivors [0,2) + [4,6)
        assert inclusion_transform(Delete(6, 0), Delete(2, 2)) == Delete(4, 0)

    def test_b_contains_a_annihilates(self):
        assert inclusion_transform(Delete(2, 2), Delete(6, 0)) == Identity()

    def test_identical_deletes_annihilate(self):
        assert inclusion_transform(Delete(3, 1), Delete(3, 1)) == Identity()

    def test_tp1_all_overlap_shapes(self):
        doc = "abcdefghij"
        cases = [
            (Delete(3, 1), Delete(3, 2)),
            (Delete(3, 2), Delete(3, 1)),
            (Delete(6, 0), Delete(2, 2)),
            (Delete(2, 2), Delete(6, 0)),
            (Delete(3, 1), Delete(3, 1)),
            (Delete(2, 0), Delete(2, 8)),
        ]
        for a, b in cases:
            check_tp1(doc, a, b)


class TestITEdgeCases:
    def test_identity_operands(self):
        op = Insert("x", 1)
        assert inclusion_transform(op, Identity()) == op
        assert inclusion_transform(Identity(), op) == Identity()

    def test_group_operand_folds(self):
        group = OperationGroup((Delete(1, 0), Delete(1, 1)))
        single = Insert("z", 5)
        a2, b2 = transform_pair(single, group)
        # semantics check on a document
        doc = "abcdefg"
        assert b2.apply(single.apply(doc)) == a2.apply(group.apply(doc))

    def test_unknown_type_raises(self):
        class Weird:
            pass

        with pytest.raises(TransformError):
            inclusion_transform(Insert("x", 0), Weird())  # type: ignore[arg-type]


def every_primitive(doc, texts=("", "x", "xy")):
    """Every insert of ``texts`` and every delete (empty ones included) on ``doc``."""
    size = len(doc)
    inserts = [Insert(text, pos) for text in texts for pos in range(size + 1)]
    deletes = [
        Delete(count, pos)
        for pos in range(size + 1)
        for count in range(size - pos + 1)
    ]
    return inserts + deletes


class TestPrimitivePairDispatch:
    """``transform_pair`` resolves a primitive pair with one table lookup;
    the IT rules composed by hand are its specification."""

    DOC = "abcdef"

    def test_every_pair_equals_the_composed_rules_and_satisfies_tp1(self):
        ops = every_primitive(self.DOC)
        cases = 0
        for a in ops:
            for b in ops:
                for a_priority in (True, False):
                    cases += 1
                    got = transform_pair(a, b, a_priority)
                    assert got == (
                        simplify(inclusion_transform(a, b, a_priority)),
                        simplify(inclusion_transform(b, a, not a_priority)),
                    ), f"{a}, {b}, a_priority={a_priority}"
                    a2, b2 = got
                    assert b2.apply(a.apply(self.DOC)) == a2.apply(b.apply(self.DOC)), (
                        f"TP1 violated for {a}, {b}, a_priority={a_priority}"
                    )
        assert cases == 4802


class TestComposedPairs:
    """DESIGN 3's text row, enumerated: every primitive ``a`` on ``DOC``
    followed by every primitive ``b`` on ``a``'s result, composed, checked
    against sequential application, TP1 against every concurrent
    primitive (both priorities), transforming the parts one by one, and
    undo.  Concurrent inserts use letters the composed ones do not, so a
    tie resolved the wrong way shows in the document."""

    DOC = "abcdef"

    def pairs(self):
        for a in every_primitive(self.DOC):
            for b in every_primitive(a.apply(self.DOC)):
                yield a, b, compose(a, b)

    def concurrent(self):
        for x in every_primitive(self.DOC, texts=("y", "yz")):
            for a_priority in (True, False):
                yield x, a_priority

    def test_compose_is_sequential_application(self):
        cases = 0
        for a, b, ab in self.pairs():
            cases += 1
            assert ab.apply(self.DOC) == b.apply(a.apply(self.DOC)), f"{a}, {b} -> {ab}"
        assert cases == 2149

    def test_a_composition_satisfies_tp1_against_every_primitive(self):
        cases = 0
        for a, b, ab in self.pairs():
            for x, a_priority in self.concurrent():
                cases += 1
                ab2, x2 = transform_pair(ab, x, a_priority)
                assert x2.apply(ab.apply(self.DOC)) == ab2.apply(x.apply(self.DOC)), (
                    f"TP1 violated for {ab} (= {a}, {b}), {x}, a_priority={a_priority}"
                )
        assert cases == 180516

    def test_transforming_a_composition_threads_through_its_parts(self):
        cases = 0
        for a, b, ab in self.pairs():
            for x, a_priority in self.concurrent():
                cases += 1
                ab2, x2 = transform_pair(ab, x, a_priority)
                a2, xa = transform_pair(a, x, a_priority)
                b2, xab = transform_pair(b, xa, a_priority)
                after_x = x.apply(self.DOC)
                assert ab2.apply(after_x) == b2.apply(a2.apply(after_x)), (
                    f"{ab} (= {a}, {b}) vs {x}, a_priority={a_priority}"
                )
                assert x2.apply(ab.apply(self.DOC)) == xab.apply(b.apply(a.apply(self.DOC)))
        assert cases == 180516

    def test_invert_undoes_every_composition(self):
        invert = PositionalTextType().invert
        cases = 0
        for a, b, ab in self.pairs():
            cases += 1
            assert invert(self.DOC, ab).apply(ab.apply(self.DOC)) == self.DOC, f"{ab}"
        assert cases == 2149


class TestExclusionTransform:
    def test_et_inverts_it_insert_insert(self):
        a, b = Insert("x", 1), Insert("yy", 3)
        assert exclusion_transform(inclusion_transform(a, b), b) == a
        a2 = Insert("x", 5)
        assert exclusion_transform(inclusion_transform(a2, b), b) == a2

    def test_et_inverts_it_insert_delete(self):
        b = Delete(2, 2)
        for a in (Insert("x", 1), Insert("x", 6)):
            assert exclusion_transform(inclusion_transform(a, b), b) == a

    def test_et_inverts_it_delete_delete_disjoint(self):
        b = Delete(2, 2)
        for a in (Delete(2, 0), Delete(2, 6)):
            assert exclusion_transform(inclusion_transform(a, b), b) == a

    def test_et_delete_straddling_restored_region_splits(self):
        # a (post-b) deletes across the point where b removed text.
        result = exclusion_transform(Delete(4, 1), Delete(2, 3))
        assert isinstance(result, OperationGroup)
        left, right = result.members
        assert left == Delete(2, 1)
        assert right == Delete(2, 3)

    def test_et_semantics_against_document(self):
        # S = "abcdef"; b = Delete(2, 2) -> "abef"; a defined on "abef".
        # ET rebases a onto S: executing a_pre then b-included-in-a_pre
        # must equal executing b then a.
        b = Delete(2, 2)
        a = Delete(2, 0)  # deletes "ab" from "abef"
        a_pre = exclusion_transform(a, b)
        assert a_pre == Delete(2, 0)
        b_after = inclusion_transform(b, a_pre)
        assert b_after.apply(a_pre.apply("abcdef")) == a.apply(b.apply("abcdef"))

    def test_et_delete_insert_lossy_interior(self):
        # a deletes text b inserted; excluding b leaves nothing to delete.
        b = Insert("XY", 2)
        a = Delete(2, 2)  # exactly b's text
        assert exclusion_transform(a, b) == Identity()

    def test_et_group_operand(self):
        b = OperationGroup((Insert("X", 0), Insert("Y", 5)))
        a = Insert("z", 3)
        restored = exclusion_transform(a, b)
        assert restored == Insert("z", 2)
