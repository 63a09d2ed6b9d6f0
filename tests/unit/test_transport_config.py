"""Transport wiring errors and the consolidated retransmit policy.

Satellites of ISSUE 7: a transport used before its I/O hooks are
attached must fail with a :class:`TransportError` naming the miswired
endpoint (not a bare ``RuntimeError``), and every retransmit knob lives
in one frozen :class:`RetransmitPolicy`, which is the only place
``ReliabilityConfig`` keeps them.
"""

from __future__ import annotations

import asyncio
import dataclasses

import pytest

from repro.net.reliability import (
    RawTransport,
    ReliabilityConfig,
    ReliableEndpoint,
    RetransmitPolicy,
    TransportError,
    build_transport,
)
from repro.net.scheduler import AsyncioScheduler
from repro.net.simulator import Simulator
from repro.net.transport import Envelope


def test_unwired_raw_transport_send_names_the_endpoint() -> None:
    transport = RawTransport(pid=3)
    with pytest.raises(TransportError, match=r"pid=3.*wire_send"):
        transport.send(0, None, kind="op")


def test_unwired_raw_transport_delivery_names_the_endpoint() -> None:
    transport = RawTransport(pid=2)
    envelope = Envelope(source=0, dest=2, payload=None,
                        timestamp_bytes=0, kind="op")
    with pytest.raises(TransportError, match=r"pid=2.*deliver"):
        transport.on_wire(envelope)


def test_unwired_reliable_endpoint_raises_transport_error() -> None:
    endpoint = ReliableEndpoint(Simulator(), 1, ReliabilityConfig())
    with pytest.raises(TransportError, match=r"pid=1"):
        endpoint.send(0, None, kind="op")


def test_transport_error_is_a_runtime_error() -> None:
    # Callers that caught RuntimeError before the rename keep working.
    assert issubclass(TransportError, RuntimeError)


def test_wired_transport_does_not_raise() -> None:
    sent: list[tuple[int, str]] = []
    transport = RawTransport(
        wire_send=lambda dest, payload, ts, kind: sent.append((dest, kind)),
        deliver=lambda envelope: None,
        pid=1,
    )
    transport.send(0, None, kind="op")
    assert sent == [(0, "op")]


# -- RetransmitPolicy ----------------------------------------------------------


def test_the_policy_is_the_only_view_of_the_retransmit_knobs() -> None:
    assert ReliabilityConfig().retransmit == RetransmitPolicy()
    assert [f.name for f in dataclasses.fields(ReliabilityConfig)] == [
        "retransmit", "probe_interval", "max_probes", "holdback_limit",
    ]
    for knob in ("base_rto", "max_rto", "backoff", "max_retries"):
        with pytest.raises(TypeError):
            ReliabilityConfig(**{knob: 1})


def test_replacing_the_policy_replaces_what_the_protocol_reads() -> None:
    # Regression: with mirrored scalars, dataclasses.replace() of one
    # view was silently overwritten by the other in __post_init__.
    config = ReliabilityConfig(retransmit=RetransmitPolicy(max_retries=4))
    faster = dataclasses.replace(config, retransmit=RetransmitPolicy(base_rto=0.1))
    assert faster.retransmit.base_rto == 0.1
    assert faster.retransmit.max_retries == RetransmitPolicy().max_retries
    assert dataclasses.replace(config, max_probes=2).retransmit.max_retries == 4


@pytest.mark.parametrize("make_scheduler", [Simulator, AsyncioScheduler])
def test_both_wires_arm_from_the_same_policy_object(make_scheduler) -> None:
    policy = RetransmitPolicy(base_rto=0.01, max_rto=0.02, max_retries=2)

    async def main() -> None:
        # Built inside a running loop, which drives the wall-clock one.
        scheduler = make_scheduler()
        endpoint = ReliableEndpoint(
            scheduler, 1, ReliabilityConfig(retransmit=policy),
            wire_send=lambda dest, payload, ts, kind: None,  # nothing is ever acked
            deliver=lambda envelope: None,
        )
        assert endpoint.reliability.retransmit is policy
        deaths: list[int] = []
        endpoint.on_peer_dead = deaths.append
        endpoint.send(9, "payload")
        if isinstance(scheduler, AsyncioScheduler):
            while scheduler.pending_events:
                await asyncio.sleep(0.005)
        else:
            scheduler.run()
        # 0.01 + 0.02 + 0.02: two resends, then the budget is spent.
        assert endpoint.stats.retransmits == 2 and deaths == [9]
        assert scheduler.now >= 0.05

    asyncio.run(main())


def test_reliable_endpoint_without_a_config_is_refused() -> None:
    with pytest.raises(TypeError, match="build_transport"):
        ReliableEndpoint(Simulator(), 1, None)
    raw = build_transport(Simulator(), 1, None,
                          wire_send=lambda dest, payload, ts, kind: None,
                          deliver=lambda envelope: None)
    assert isinstance(raw, RawTransport)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"base_rto": 0.0},
        {"base_rto": -1.0},
        {"max_rto": 0.1, "base_rto": 0.5},  # max below base
        {"backoff": 0.5},
        {"max_retries": 0},
    ],
)
def test_malformed_policy_rejected(kwargs) -> None:
    with pytest.raises(ValueError):
        RetransmitPolicy(**kwargs)
