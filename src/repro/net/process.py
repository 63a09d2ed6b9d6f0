"""Base class for simulated processes."""

from __future__ import annotations

from typing import Any

from repro.net.scheduler import Scheduler
from repro.net.transport import Envelope


class SimProcess:
    """A process attached to a scheduler with outgoing channels.

    Subclasses implement :meth:`on_message`; topology wiring (see
    :mod:`repro.net.topology`) installs the outgoing channel map.  The
    ``sim`` attribute is any :class:`~repro.net.scheduler.Scheduler` --
    the deterministic :class:`~repro.net.simulator.Simulator` in tests
    and experiments, the wall-clock
    :class:`~repro.net.scheduler.AsyncioScheduler` in cluster processes.
    The attribute keeps its historical name so editor code reads the
    same under both.
    """

    def __init__(self, sim: Scheduler, pid: int) -> None:
        self.sim = sim
        self.pid = pid
        self.out_channels: dict[int, Any] = {}  # dest pid -> FIFOChannel

    def attach_channel(self, dest: int, channel: Any) -> None:
        if dest in self.out_channels:
            raise ValueError(f"process {self.pid} already has a channel to {dest}")
        self.out_channels[dest] = channel

    def send(self, dest: int, payload: Any) -> None:
        """Send ``payload`` to ``dest`` over the attached FIFO channel."""
        try:
            channel = self.out_channels[dest]
        except KeyError:
            raise KeyError(
                f"process {self.pid} has no channel to {dest}; "
                f"known destinations: {sorted(self.out_channels)}"
            ) from None
        channel.send(Envelope(self.pid, dest, payload))

    def on_message(self, envelope: Envelope) -> None:
        """Handle a delivered message; override in subclasses."""
        raise NotImplementedError
