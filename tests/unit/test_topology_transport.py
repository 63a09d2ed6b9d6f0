"""Unit tests for topologies and transport accounting (repro.net)."""

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
from repro.ot.operations import Delete, Identity, Insert, OperationGroup
from repro.ot.types import CounterOp


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
        procs[1].send(0, OpMessage(Delete(1, 0), _TS, 1))
        procs[2].send(0, OpMessage(Delete(1, 0), _TS, 2))
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

    def test_envelope_total(self):
        """A channel charges the header, the payload's sizer and the
        clock the payload's type declares."""
        from repro.net.channel import FIFOChannel, FixedLatency

        channel = FIFOChannel(Simulator(), 1, 0, FixedLatency(0.1), lambda env: None)
        channel.send(Envelope(1, 0, OpMessage(Delete(3, 2), _TS, 1)))
        assert channel.stats.total_bytes == 8 + (4 + 9) + 8

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
        )
        assert measure_payload_bytes(message) == 4 + 7

    def test_mesh_record_measured_structurally(self):
        from repro.clocks.vector import VectorClock
        from repro.editor.mesh import MeshOp

        record = MeshOp(op=Delete(3, 2), vc=VectorClock.of([1, 0]), site=0, seq=1)
        assert measure_payload_bytes(record) == 4 + 9

    def test_snapshot_measured_structurally(self):
        """``net/wire.py`` writes ``SV_0`` (one u32 per site) and the
        notifier epoch beside the document: (N + 1) integers, not the
        4 bytes charged when it wrote three."""
        from repro.editor.messages import SnapshotMessage

        for sites in (3, 16):
            snap = SnapshotMessage(document="abcd", counts=tuple(range(sites)),
                                   notifier_epoch=1)
            assert measure_payload_bytes(snap) == (sites + 1) * 4 + 5


@dataclass(frozen=True)
class Unregistered:
    """A payload type no layer registered a sizer for."""

    value: int = 7


_TS = CompressedTimestamp(3, 1)
_RELAYED = OpMessage(op=Delete(2, 4), timestamp=_TS, origin_site=2)

# Every payload that crosses a channel, with the bytes the accounting
# model charges for its body and for the clock it carries.  The body
# sizes are those charged before sizing was dispatched by type (cut on
# the parent commit); the clock column is what each sender passed by
# hand before the payload's type declared it (two integers on a star
# op, formulas 1-2; N on a mesh op; none on anything else).  These are
# the CLAIM-OVH inputs: none may move.  The
# star's op, snapshot and contribution rows were re-cut when op names
# left the wire (an op message is its origin and its operation) and the
# snapshot came to carry SV_0 (one integer per site, plus the epoch).
# The counter row was re-cut when its op stopped being charged as its
# pickle: a payload type without a sizer is now a TypeError.
SIZES = [
    pytest.param(None, 0, 0, id="none"),
    pytest.param(5, 8, 0, id="int"),
    pytest.param(True, 8, 0, id="bool"),
    pytest.param(2.5, 8, 0, id="float"),
    pytest.param("héllo", 7, 0, id="str"),
    pytest.param(Insert("héllo", 3), 11, 0, id="insert"),
    pytest.param(Delete(2, 4), 9, 0, id="delete"),
    pytest.param(Identity(), 1, 0, id="identity"),
    pytest.param(
        OperationGroup((Insert("ab", 0), Delete(1, 5), Identity())), 18, 0, id="group"),
    # A tag and the delta, like a delete's tag and two integers.
    pytest.param(CounterOp(3), 5, 0, id="counter-op"),
    pytest.param(
        OpMessage(op=Insert("héllo", 3), timestamp=_TS, origin_site=2),
        15, 8, id="op-message"),
    pytest.param(_RELAYED, 13, 8, id="op-message-relayed"),
    pytest.param(
        ReliablePacket(seq=4, epoch=1, ack=2, payload=_RELAYED), 25, 8, id="reliable-op"),
    pytest.param(ReliablePacket(seq=-1, epoch=0, ack=7), 12, 0, id="reliable-ack"),
    pytest.param(
        ReliablePacket(seq=-1, epoch=0, ack=-1, probe=True), 12, 0, id="reliable-probe"),
    pytest.param(
        ReliablePacket(seq=0, epoch=2, ack=-1,
                       payload=SnapshotMessage(document="abcd", counts=(7, 0))),
        29, 0, id="reliable-snapshot"),
    pytest.param(ResyncRequest(epoch=2), 4, 0, id="resync-request"),
    pytest.param(ElectMessage(notifier_epoch=1), 4, 0, id="elect"),
    pytest.param(PromoteMessage(successor=2, notifier_epoch=1), 8, 0, id="promote"),
    # One count, whatever the survivor's replica and pending ops hold.
    pytest.param(StateContribution(acknowledged=2), 4, 0, id="contribution"),
    pytest.param(StateContribution(acknowledged=0), 4, 0, id="contribution-empty"),
    pytest.param(
        SnapshotMessage(document="abcd", counts=(5, 2, 0)), 21, 0, id="snapshot"),
    pytest.param(
        SnapshotMessage(document="abcd", counts=(5, 2, 0), notifier_epoch=1),
        21, 0, id="snapshot-failover"),
    pytest.param(
        MeshOp(op=Delete(3, 2), vc=VectorClock.of([1, 0, 2]), site=0, seq=1),
        13, 12, id="mesh-op"),
    # The full vector clock grows with the session: 4 bytes a site.
    pytest.param(
        MeshOp(op=Delete(3, 2), vc=VectorClock.of([1, 0, 2, 0, 4]), site=4, seq=4),
        13, 20, id="mesh-op-five-sites"),
]


@pytest.mark.parametrize("payload, size, clock", SIZES)
def test_payload_size_table(payload, size, clock):
    """The payload's sizer gives ``size``; the clock its type declares
    is ``clock``; a channel charges both and the 8-byte header."""
    from repro.net.channel import FIFOChannel, FixedLatency

    assert measure_payload_bytes(payload) == size
    channel = FIFOChannel(Simulator(), 1, 0, FixedLatency(0.1), lambda env: None)
    channel.send(Envelope(1, 0, payload))
    stats = channel.stats
    assert (stats.messages, stats.payload_bytes, stats.timestamp_bytes,
            stats.total_bytes) == (1, size, clock, 8 + size + clock)


def test_an_unregistered_payload_is_a_type_error():
    with pytest.raises(TypeError, match="Unregistered"):
        measure_payload_bytes(Unregistered())


def test_subclass_is_charged_as_its_registered_base():
    class TaggedInsert(Insert):
        pass

    assert measure_payload_bytes(TaggedInsert("ab", 3)) == 1 + 4 + 2
