"""The retransmit timing both wires share: the simulated and the
wall-clock scheduler arm the retransmit timer from the same module
constant.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.net.reliability import BACKOFF, BASE_RTO, ReliableEndpoint
from repro.net.scheduler import AsyncioScheduler
from repro.net.simulator import Simulator


@pytest.mark.parametrize("make_scheduler", [Simulator, AsyncioScheduler])
def test_both_wires_arm_base_rto(make_scheduler) -> None:
    async def main() -> None:
        # Built inside a running loop, which drives the wall-clock one.
        scheduler = make_scheduler()
        endpoint = ReliableEndpoint(
            scheduler, 1,
            wire_send=lambda dest, payload: None,  # nothing is ever acked
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
