"""Unit tests for topologies and transport accounting (repro.net)."""

import pickle
from dataclasses import dataclass

import pytest

from repro.clocks.vector import VectorClock
from repro.core.timestamp import CompressedTimestamp
from repro.editor.mesh import MeshOp
from repro.editor.messages import (
    ElectMessage,
    OpMessage,
    PromoteMessage,
    ResyncRequest,
    SnapshotMessage,
    StateContribution,
)
from repro.net.process import SimProcess
from repro.net.reliability import ReliablePacket
from repro.net.simulator import Simulator
from repro.net.topology import MeshTopology, StarTopology
from repro.net.transport import Envelope, measure_payload_bytes
from repro.ot.component import TextOperation
from repro.ot.operations import Delete, Identity, Insert, OperationGroup
from repro.ot.rich import DeleteRich, InsertRich, Retain, RichOperation
from repro.ot.types import CounterOp, ListOp, RegisterOp


class Collector(SimProcess):
    def __init__(self, sim, pid):
        super().__init__(sim, pid)
        self.inbox = []

    def on_message(self, envelope):
        self.inbox.append(envelope)


class TestStarTopology:
    def test_wiring_is_star_shaped(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(4)]
        topo = StarTopology(sim, procs)
        # 3 clients * 2 directions
        assert topo.edge_count() == 6
        assert (1, 2) not in topo.channels
        assert (0, 3) in topo.channels and (3, 0) in topo.channels

    def test_clients_cannot_reach_each_other_directly(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(3)]
        StarTopology(sim, procs)
        with pytest.raises(KeyError):
            procs[1].send(2, "hi")

    def test_center_must_be_pid_zero(self):
        sim = Simulator()
        procs = [Collector(sim, 5), Collector(sim, 1)]
        with pytest.raises(ValueError):
            StarTopology(sim, procs)

    def test_needs_at_least_one_client(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            StarTopology(sim, [Collector(sim, 0)])

    def test_message_roundtrip(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(3)]
        StarTopology(sim, procs)
        procs[1].send(0, "up")
        procs[0].send(2, "down")
        sim.run()
        assert [e.payload for e in procs[0].inbox] == ["up"]
        assert [e.payload for e in procs[2].inbox] == ["down"]

    def test_total_stats_aggregates(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(3)]
        topo = StarTopology(sim, procs)
        procs[1].send(0, "x", timestamp_bytes=8)
        procs[2].send(0, "y", timestamp_bytes=8)
        sim.run()
        stats = topo.total_stats()
        assert stats.messages == 2
        assert stats.timestamp_bytes == 16
        assert topo.fifo_respected()

    def test_duplicate_channel_rejected(self):
        sim = Simulator()
        proc = Collector(sim, 0)
        proc.attach_channel(1, object())
        with pytest.raises(ValueError):
            proc.attach_channel(1, object())


class TestMeshTopology:
    def test_fully_connected(self):
        sim = Simulator()
        procs = [Collector(sim, i) for i in range(4)]
        topo = MeshTopology(sim, procs)
        assert topo.edge_count() == 12  # 4*3 directed pairs
        procs[1].send(3, "direct")
        sim.run()
        assert [e.payload for e in procs[3].inbox] == ["direct"]

    def test_needs_two_sites(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            MeshTopology(sim, [Collector(sim, 0)])


class TestPayloadMeasurement:
    def test_none_is_free(self):
        assert measure_payload_bytes(None) == 0

    def test_insert_size(self):
        assert measure_payload_bytes(Insert("ab", 3)) == 1 + 4 + 2

    def test_delete_size(self):
        assert measure_payload_bytes(Delete(3, 2)) == 9

    def test_identity_size(self):
        assert measure_payload_bytes(Identity()) == 1

    def test_group_sums_members(self):
        group = OperationGroup((Delete(1, 0), Delete(1, 2)))
        assert measure_payload_bytes(group) == 1 + 9 + 9

    def test_component_operation(self):
        op = TextOperation().retain(2).insert("xy").delete(1)
        assert measure_payload_bytes(op) == 1 + 4 + 3 + 4

    def test_envelope_total(self):
        env = Envelope(1, 0, Delete(3, 2), timestamp_bytes=8)
        assert env.total_bytes() == 8 + 9 + 8

    def test_envelope_ids_assigned_per_simulator(self):
        """Message ids come from the simulator at send time, so two
        sessions in one process draw identical id sequences (determinism)."""
        from repro.net.channel import FIFOChannel, FixedLatency
        from repro.net.simulator import Simulator

        sequences = []
        for _ in range(2):
            sim = Simulator()
            channel = FIFOChannel(sim, 0, 1, FixedLatency(0.01), lambda env: None)
            ids = []
            for _ in range(3):
                env = Envelope(0, 1, None)
                assert env.message_id is None
                channel.send(env)
                ids.append(env.message_id)
            sequences.append(ids)
        assert sequences[0] == sequences[1] == [0, 1, 2]

    def test_op_message_wrapper_not_pickled(self):
        """Editor wrappers are measured structurally (framing + inner op)."""
        from repro.core.timestamp import CompressedTimestamp
        from repro.editor.messages import OpMessage

        message = OpMessage(
            op=Insert("ab", 3),
            timestamp=CompressedTimestamp(1, 0),
            origin_site=2,
            op_id="O2'",
        )
        assert measure_payload_bytes(message) == 4 + 3 + 7

    def test_mesh_record_measured_structurally(self):
        from repro.clocks.vector import VectorClock
        from repro.editor.mesh import MeshOp

        record = MeshOp(op=Delete(3, 2), vc=VectorClock.of([1, 0]), site=0, seq=1)
        assert measure_payload_bytes(record) == 4 + 9

    def test_snapshot_measured_structurally(self):
        from repro.editor.messages import SnapshotMessage

        snap = SnapshotMessage(document="abcd", base_count=7)
        assert measure_payload_bytes(snap) == 4 + 5


@dataclass(frozen=True)
class Unregistered:
    """A payload type no layer registered a sizer for."""

    value: int = 7


_TS = CompressedTimestamp(3, 1)
_RELAYED = OpMessage(op=Delete(2, 4), timestamp=_TS, origin_site=2, op_id="c2_5'",
                     source_op_id="c2_5", origin_wall=1234.5)

# Every payload that crosses a channel, with the size the accounting
# model charged for it before sizing was dispatched by type (cut on the
# parent commit).  These are the CLAIM-OVH inputs: none may move.
SIZES = [
    pytest.param(None, 0, id="none"),
    pytest.param(5, 8, id="int"),
    pytest.param(True, 8, id="bool"),
    pytest.param(2.5, 8, id="float"),
    pytest.param("héllo", 7, id="str"),
    pytest.param(Insert("héllo", 3), 11, id="insert"),
    pytest.param(Delete(2, 4), 9, id="delete"),
    pytest.param(Identity(), 1, id="identity"),
    pytest.param(
        OperationGroup((Insert("ab", 0), Delete(1, 5), Identity())), 18, id="group"),
    pytest.param(
        TextOperation().retain(2).insert("é!").delete(1), 13, id="text-operation"),
    # No sizer of their own: charged as their pickle.
    pytest.param(
        RichOperation([Retain(2, frozenset({"bold"})), InsertRich("hi"), DeleteRich(1)]),
        205, id="rich-operation"),
    pytest.param(ListOp("ins", 1, "x"), 83, id="list-op"),
    pytest.param(CounterOp(3), 60, id="counter-op"),
    pytest.param(RegisterOp("v"), 63, id="register-op"),
    pytest.param(
        OpMessage(op=Insert("héllo", 3), timestamp=_TS, origin_site=2, op_id="c2_5"),
        19, id="op-message"),
    pytest.param(_RELAYED, 18, id="op-message-relayed"),
    pytest.param(
        OpMessage(op=TextOperation().retain(1).insert("z"), timestamp=_TS,
                  origin_site=1, op_id="c1_1"),
        15, id="op-message-text-operation"),
    pytest.param(
        ReliablePacket(seq=4, epoch=1, ack=2, payload=_RELAYED), 30, id="reliable-op"),
    pytest.param(ReliablePacket(seq=-1, epoch=0, ack=7), 12, id="reliable-ack"),
    pytest.param(
        ReliablePacket(seq=-1, epoch=0, ack=-1, probe=True), 12, id="reliable-probe"),
    pytest.param(
        ReliablePacket(seq=0, epoch=2, ack=-1,
                       payload=SnapshotMessage(document="abcd", base_count=7)),
        21, id="reliable-snapshot"),
    pytest.param(ResyncRequest(epoch=2), 4, id="resync-request"),
    pytest.param(ElectMessage(notifier_epoch=1), 4, id="elect"),
    pytest.param(PromoteMessage(successor=2, notifier_epoch=1), 8, id="promote"),
    pytest.param(
        StateContribution(
            site=3, received_from_center=5, generated_locally=4,
            received_per_origin={1: 3, 2: 2},
            pending=(("c3_3", Insert("x", 1)), ("c3_4", Delete(1, 0))),
            document="hello"),
        59, id="contribution"),
    pytest.param(
        StateContribution(site=3, received_from_center=0, generated_locally=0),
        12, id="contribution-empty"),
    pytest.param(
        SnapshotMessage(document="abcd", base_count=7, own_count=2), 9, id="snapshot"),
    pytest.param(
        SnapshotMessage(document="abcd", base_count=7, notifier_epoch=1,
                        incorporated=frozenset({"c1_1", "c2_10"})),
        20, id="snapshot-failover"),
    pytest.param(
        MeshOp(op=Delete(3, 2), vc=VectorClock.of([1, 0, 2]), site=0, seq=1),
        13, id="mesh-op"),
    # The literal would depend on this module's import name.
    pytest.param(Unregistered(), len(pickle.dumps(Unregistered())), id="unregistered"),
]


@pytest.mark.parametrize("payload, size", SIZES)
def test_payload_size_table(payload, size):
    assert measure_payload_bytes(payload) == size


def test_subclass_is_charged_as_its_registered_base():
    class TaggedInsert(Insert):
        pass

    assert measure_payload_bytes(TaggedInsert("ab", 3)) == 1 + 4 + 2
