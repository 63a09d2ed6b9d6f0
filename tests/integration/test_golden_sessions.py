"""Golden seeded sessions: the protocol's deterministic outputs, exactly.

A seeded simulator session is a pure function of (code, seed): its
message count, model wire bytes, clock storage, hold-back peak and
virtual-time latency percentiles do not depend on the host.  OT and
reliability defects show up there as small exact discrepancies -- one
extra ack, one retransmit, one transform applied in a different order
-- not as percentage moves, so every value below is compared with
``==``.

The sessions are built the way ``python -m repro session`` builds them
(same workload config, same :func:`repro.cli.jitter_latency_factory`).
A value may only change together with a protocol change that explains
it.
"""

import random
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.cli import jitter_latency_factory
from repro.clocks.sk import SKProcess
from repro.clocks.vector import VectorClock
from repro.core.state_vector import ClientStateVector
from repro.editor import MeshSession, StarSession
from repro.net.faults import ChannelFaults, ClientCrash, FaultPlan
from repro.obs import Histogram, Tracer, latency_histograms
from repro.workloads.random_session import (
    RandomSessionConfig,
    drive_mesh_session,
    drive_star_session,
)

SEED = 0

LOSSY = FaultPlan(seed=SEED, default=ChannelFaults(drop_p=0.05, dup_p=0.02))
CRASH = FaultPlan(
    seed=SEED,
    default=ChannelFaults(drop_p=0.03),
    crashes=(ClientCrash(site=1, at=2.0, restart_at=4.0),),
)


@dataclass(frozen=True)
class Golden:
    id: str
    topology: str
    n_sites: int
    ops_per_site: int
    fault_plan: Optional[FaultPlan]
    messages: int
    total_bytes: int
    timestamp_bytes: int
    payload_bytes: int
    storage_ints: int
    holdback_high_water: int
    p50: float
    p95: float
    p99: float
    # History retention: formula-5/7 checks recorded over the session
    # and the longest history buffer any role ends with.  These sessions
    # run without the oracle, so their histories are pruned at the
    # acknowledgement horizon; the mesh keeps no HB.
    check_records: int
    hb_max: int


GOLDEN = (
    Golden("star-4x8-clean", "star", 4, 8, None, 128, 4226, 1024, 2178, 12, 0,
           0.18121774879736918, 0.46022069709989255, 0.5555273795626103,
           405, 9),
    Golden("star-8x6-clean", "star", 8, 6, None, 384, 12536, 3072, 6392, 24, 0,
           0.18946423980715843, 0.4312231626140668, 0.5107159237232191,
           1729, 32),
    # The two faulty sessions are re-cut with each change to the ack
    # policy (DESIGN 3.1; old and new rows in DESIGN 5.3): acks paced
    # (ISSUE 17) 136 -> 126 and 104 -> 98 pure acks, repeats paced too
    # (ISSUE 19) 126 -> 115 and 98 -> 96 -- and every later latency and
    # fault draw on a channel moves with its ack count.
    Golden("star-4x8-lossy", "star", 4, 8, LOSSY, 259, 8771, 1152, 5547, 12, 7,
           0.23122162895146614, 0.9707482097628679, 1.2507220908726486,
           515, 9),
    Golden("star-4x8-crash", "star", 4, 8, CRASH, 218, 7409, 960, 4705, 12, 3,
           0.1720021280105164, 0.6334465332028936, 0.9021205050580403,
           333, 8),
    Golden("mesh-4x6-clean", "mesh", 4, 6, None, 72, 2598, 1152, 870, 16, 1,
           0.0974036620908092, 0.2813646376596153, 0.37055184274854325,
           0, 0),
    # Cut at PR 23's commit, before ISSUE 24 made a broadcast copy
    # cheaper: the fan-out path at the width that claim is made.
    Golden("star-16x12-clean", "star", 16, 12, None, 3072, 102934, 24576, 53782,
           48, 0,
           0.21974371109837953, 0.4509368004676251, 0.5724227319114803,
           18723, 89),
)

# star-16x12-clean, the copies of two broadcasts as (destination,
# [T[1], T[2]]) in send order: the one in the middle of the notifier's
# broadcast log, where every SV_0[dest] differs, and the last.
FANOUT16_MID = ("c4_11'", [
    (1, [92, 5]), (2, [91, 6]), (3, [92, 5]), (5, [90, 7]), (6, [93, 4]),
    (7, [93, 4]), (8, [86, 11]), (9, [92, 5]), (10, [90, 7]), (11, [89, 8]),
    (12, [88, 9]), (13, [95, 2]), (14, [92, 5]), (15, [94, 3]), (16, [92, 5]),
])
FANOUT16_LAST = ("c3_12'", [(dest, [180, 12]) for dest in range(1, 17) if dest != 3])


def run_session(golden: Golden, tracer: Tracer):
    config = RandomSessionConfig(
        n_sites=golden.n_sites, ops_per_site=golden.ops_per_site, seed=SEED
    )
    if golden.topology == "star":
        session = StarSession(
            golden.n_sites,
            initial_state=config.initial_document,
            latency_factory=jitter_latency_factory(SEED),
            record_checks=True,  # check_records is one of the pinned values
            fault_plan=golden.fault_plan,
            tracer=tracer,
        )
        drive_star_session(session, config)
    else:
        session = MeshSession(
            golden.n_sites,
            initial_document=config.initial_document,
            latency_factory=jitter_latency_factory(SEED),
            tracer=tracer,
        )
        drive_mesh_session(session, config)
    session.run()
    return session


def holdback_high_water(session, topology: str) -> int:
    """The worst single reorder buffer: the star's sits in the
    reliability transport, the mesh's is the site's causal buffer."""
    if topology == "star":
        return max(e.transport.holdback_high_water() for e in session.participants())
    return max(site.hold_back.max_held for site in session.endpoints())


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda g: g.id)
def test_seeded_session_matches_golden_values(golden):
    tracer = Tracer()
    session = run_session(golden, tracer)
    latency = Histogram()
    for hist in latency_histograms(tracer.events).values():
        latency.merge(hist)

    assert session.converged(), session.documents()
    wire = session.wire_stats()
    assert wire.messages == golden.messages
    assert wire.total_bytes == golden.total_bytes
    assert wire.timestamp_bytes == golden.timestamp_bytes
    assert wire.payload_bytes == golden.payload_bytes
    assert (
        sum(e.clock_storage_ints() for e in session.endpoints())
        == golden.storage_ints
    )
    assert holdback_high_water(session, golden.topology) == golden.holdback_high_water
    assert latency.percentile(50) == golden.p50
    assert latency.percentile(95) == golden.p95
    assert latency.percentile(99) == golden.p99
    assert len(session.all_checks()) == golden.check_records
    assert max(len(getattr(e, "hb", ())) for e in session.participants()) == golden.hb_max


def test_fanout16_broadcast_copies_match_golden_values():
    """Formulas (1)-(2) per destination, at fan-out 15: which copies the
    notifier sent, in which order, each with which two integers -- and
    how much of ``HB_0`` the acknowledgements let it forget."""
    session = run_session(GOLDEN[-1], Tracer())
    log = session.notifier.broadcast_log
    assert len(log) == 2880  # 192 operations x 15 destinations
    for op_id, copies in (FANOUT16_MID, FANOUT16_LAST):
        assert [
            (dest, ts.as_paper_list()) for sent_id, dest, ts in log if sent_id == op_id
        ] == copies
    assert log[len(log) // 2][0] == FANOUT16_MID[0]
    assert log[-1][0] == FANOUT16_LAST[0]
    assert len(session.notifier.hb) == 89


def _exchange_schedule(n, rounds):
    """Per round, every site in turn stamps a message to a seeded peer."""
    rng = random.Random(SEED)
    for _ in range(rounds):
        for pid in range(n):
            dest = rng.randrange(n - 1)
            yield pid, dest + (dest >= pid)


def _vector_storage(n, rounds):
    clocks = [VectorClock.zero(n) for _ in range(n)]
    for pid, dest in _exchange_schedule(n, rounds):
        clocks[pid] = clocks[pid].tick(pid).tick(pid)  # a local event, then the send
        clocks[dest] = clocks[dest].merge(clocks[pid]).tick(dest)
    return sum(clock.storage_ints() for clock in clocks)


def _sk_storage(n, rounds):
    processes = [SKProcess(pid, n) for pid in range(n)]
    for pid, dest in _exchange_schedule(n, rounds):
        processes[pid].local_event()
        processes[dest].receive(processes[pid].prepare_send(dest))
    return sum(process.storage_ints() for process in processes)


def _compressed_storage(n, rounds):
    vectors = [ClientStateVector(pid + 1) for pid in range(n)]
    for pid, dest in _exchange_schedule(n, rounds):
        vectors[pid].record_local_execution()
        vectors[pid].record_local_execution()
        vectors[dest].record_remote_execution()
    return sum(vector.storage_ints() for vector in vectors)


@pytest.mark.parametrize(
    "family_name, storage_ints", [("vector", 64), ("sk", 192), ("compressed", 16)]
)
def test_clock_storage_after_exchange_matches_golden_values(family_name, storage_ints):
    """Eight sites, 50 rounds of tick / stamp / merge with a seeded
    random peer: resident integers summed over the sites stay at the
    family's N / 3N / 2 per site -- traffic must not grow them."""
    exchange = {"vector": _vector_storage, "sk": _sk_storage,
                "compressed": _compressed_storage}[family_name]
    assert exchange(8, 50) == storage_ints
