"""Transport wiring errors and the retransmit timing both wires share.

A transport used before its I/O hooks are attached must fail with a
:class:`TransportError` naming the miswired endpoint (not a bare
``RuntimeError``), and the simulated and the wall-clock scheduler arm
the retransmit timer from the same module constant.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.reliability import (
    BACKOFF,
    BASE_RTO,
    RawTransport,
    ReliableEndpoint,
    TransportError,
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
    endpoint = ReliableEndpoint(Simulator(), 1)
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


# -- the retransmit constants ---------------------------------------------------


@pytest.mark.parametrize("make_scheduler", [Simulator, AsyncioScheduler])
def test_both_wires_arm_base_rto(make_scheduler) -> None:
    async def main() -> None:
        # Built inside a running loop, which drives the wall-clock one.
        scheduler = make_scheduler()
        endpoint = ReliableEndpoint(
            scheduler, 1,
            wire_send=lambda dest, payload, ts, kind: None,  # nothing is ever acked
            deliver=lambda envelope: None,
        )
        endpoint.send(9, "payload")
        if isinstance(scheduler, AsyncioScheduler):
            while not endpoint.stats.retransmits:
                await asyncio.sleep(0.005)
        else:
            scheduler.run(until=BASE_RTO)
        # The first resend fires one BASE_RTO after the send, on either clock.
        assert endpoint.stats.retransmits == 1
        assert BASE_RTO <= scheduler.now < BASE_RTO * BACKOFF
        endpoint.go_down()  # disarm the next round

    asyncio.run(main())
