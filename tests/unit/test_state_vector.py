"""Unit tests for state vectors and timestamps (repro.core)."""

import pytest

from repro.core.state_vector import ClientStateVector, NotifierStateVector
from repro.core.timestamp import CompressedTimestamp, FullTimestamp
from repro.editor.messages import OpMessage
from repro.net.codec import encode_op_message
from repro.ot.operations import Insert


class TestClientStateVector:
    def test_initially_zero(self):
        sv = ClientStateVector(1)
        assert sv.as_paper_list() == [0, 0]

    def test_rejects_site_zero(self):
        with pytest.raises(ValueError):
            ClientStateVector(0)

    def test_rule_2_remote_execution(self):
        sv = ClientStateVector(2)
        sv.record_remote_execution()
        assert sv.as_paper_list() == [1, 0]

    def test_rule_3_local_execution(self):
        sv = ClientStateVector(2)
        sv.record_local_execution()
        assert sv.as_paper_list() == [0, 1]

    def test_timestamp_snapshots_current_value(self):
        sv = ClientStateVector(2)
        sv.record_local_execution()
        ts = sv.timestamp()
        assert ts.as_paper_list() == [0, 1]
        sv.record_remote_execution()
        # the earlier snapshot must not move
        assert ts.as_paper_list() == [0, 1]

    def test_fig3_site2_sequence(self):
        """Site 2's SV trajectory through the Fig. 3 scenario."""
        sv = ClientStateVector(2)
        sv.record_local_execution()  # O2
        assert sv.timestamp().as_paper_list() == [0, 1]
        sv.record_remote_execution()  # O1'
        sv.record_local_execution()  # O3
        assert sv.timestamp().as_paper_list() == [1, 2]
        sv.record_remote_execution()  # O4'
        assert sv.as_paper_list() == [2, 2]

    def test_storage_is_two_integers(self):
        assert ClientStateVector(9).storage_ints() == 2


class TestNotifierStateVector:
    def test_initially_zero(self):
        sv = NotifierStateVector(3)
        assert sv.as_paper_list() == [0, 0, 0]

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            NotifierStateVector(0)

    def test_one_based_indexing(self):
        sv = NotifierStateVector(3)
        sv.record_execution_from(2)
        assert sv[2] == 1
        assert sv[1] == 0
        with pytest.raises(ValueError):
            sv[0]
        with pytest.raises(ValueError):
            sv[4]

    def test_compression_formulas_1_and_2(self):
        """Fig. 3: after O_1 executes, SV_0 = [1,1,0]; the broadcasts of
        O_1' carry [1,1] to site 2 and [2,0] to site 3."""
        sv = NotifierStateVector(3)
        sv.record_execution_from(2)  # O2
        assert sv.compress_for_destination(1).as_paper_list() == [1, 0]
        assert sv.compress_for_destination(3).as_paper_list() == [1, 0]
        sv.record_execution_from(1)  # O1
        assert sv.compress_for_destination(2).as_paper_list() == [1, 1]
        assert sv.compress_for_destination(3).as_paper_list() == [2, 0]

    def test_full_timestamp_snapshot(self):
        sv = NotifierStateVector(3)
        sv.record_execution_from(2)
        ts = sv.full_timestamp()
        assert ts.as_paper_list() == [0, 1, 0]
        sv.record_execution_from(1)
        assert ts.as_paper_list() == [0, 1, 0]  # snapshot frozen

    def test_total(self):
        sv = NotifierStateVector(2)
        sv.record_execution_from(1)
        sv.record_execution_from(1)
        sv.record_execution_from(2)
        assert sv.total() == 3

    def test_storage_and_size(self):
        sv = NotifierStateVector(10)
        assert sv.storage_ints() == 10


class TestCompressedTimestamp:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CompressedTimestamp(-1, 0)

    def test_constant_wire_size(self):
        """The two integers cost ``OpMessage.clock_bytes`` on the wire,
        whatever their values."""
        assert OpMessage.clock_bytes == 8
        small, large = (
            encode_op_message(OpMessage(Insert("x", 0), stamp, stamp, 1))
            for stamp in (0, 10**9))
        assert len(small) == len(large)
        assert large[:8] == (10**9).to_bytes(4, "big") * 2

    def test_repr_paper_notation(self):
        assert repr(CompressedTimestamp(3, 1)) == "[3,1]"


class TestFullTimestamp:
    def test_one_based_indexing(self):
        ts = FullTimestamp((1, 2, 1))
        assert ts[2] == 2
        with pytest.raises(IndexError):
            ts[0]

    def test_sum_excluding(self):
        ts = FullTimestamp((1, 2, 1))
        assert ts.sum_excluding(2) == 2
        assert ts.sum_excluding(1) == 3

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError):
            FullTimestamp(())
        with pytest.raises(ValueError):
            FullTimestamp((1, -1))

    def test_size_scales_with_n(self):
        sv = NotifierStateVector(12)
        assert len(sv.full_timestamp()) == sv.storage_ints() == 12
