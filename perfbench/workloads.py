"""The four workloads, and why each is there.

All four edit one positional-text document with ``RandomSessionConfig``
defaults (70 % inserts, mean think time 0.4).  They differ in which
layers carry the load, so that an optimisation has one workload that
exercises its mechanism and at least one that bypasses it:

========== ===== ====== ===================================================
name       sites ops    layers under load
========== ===== ====== ===================================================
sim-fanout16  16 16x300 editor broadcast, ot, core compression, simulator,
                        channel accounting; no codec, wire, reliability
sim-lossy8     8 8x500  net.reliability, net.holdback, retransmit timers
wire-pair      2 2x7500 net.codec, net.wire, sockets, AsyncioScheduler;
                        fan-out 1, so broadcast cost is bypassed
sim-diag4      4 4x150  the formula-5/7 sweep over the whole HB per arrival
                        (``record_checks=True``, what serve/client run)
========== ===== ====== ===================================================

Sizes are fixed: ``ops_per_s`` on ``sim-diag4`` depends on run length by
construction (O(history) per arrival), and every other number here is
only comparable between two runs of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sim" (deterministic Simulator) or "wire" (TCP loopback rig)
    n_sites: int
    ops_per_site: int
    lossy: bool = False
    diagnostics: bool = False
    tracer_pass: bool = False  # also measure a pass with repro.obs.Tracer attached

    def ops(self, scale: float) -> int:
        """Ops per site at ``scale`` (1.0 = the published size)."""
        return max(10, round(self.ops_per_site * scale))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-fanout16",
            "16-site star on the fast path: every op is transformed and "
            "broadcast to 15 peers, so editor, ot, core and channel "
            "accounting do all the work",
            "sim", 16, 300, tracer_pass=True,
        ),
        Workload(
            "sim-lossy8",
            "8 sites over 5% loss and 2% duplication: the only workload "
            "where reliability, hold-back and retransmit timers carry the load",
            "sim", 8, 500, lossy=True,
        ),
        Workload(
            "wire-pair",
            "two clients and a notifier over real TCP loopback, closed loop: "
            "the only workload with codec, wire framing, sockets and asyncio "
            "on the path; fan-out 1 bypasses broadcast",
            "wire", 2, 7500, tracer_pass=True,
        ),
        Workload(
            "sim-diag4",
            "4 sites with record_checks=True (the serve/client default): the "
            "formula-5/7 sweep over the whole history per arrival, where "
            "unbounded history growth shows first",
            "sim", 4, 150, diagnostics=True,
        ),
    )
}
