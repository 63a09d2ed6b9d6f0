"""Discrete-event network simulation substrate.

The paper's system ran as Java applets talking TCP to a Web-server
notifier over the Internet.  The algorithm relies on exactly two
transport properties:

1. a **star topology** -- clients talk only to the notifier;
2. **FIFO channels** -- per-connection delivery order equals send order
   (the TCP property the paper leans on to simplify formulas 4->5 and
   6->7).

This subpackage provides a deterministic discrete-event simulator whose
channels guarantee those properties while letting experiments inject
arbitrary, per-channel, possibly random latency -- a strictly more
adversarial environment than a single live demo, and reproducible under
a seed.

When faults are injected (:mod:`repro.net.faults` can drop, duplicate,
or outage messages), the transport layer (:mod:`repro.net.reliability`)
rebuilds the two guarantees above on top of the damaged channels; the
shared :class:`~repro.net.holdback.HoldbackQueue` is its reorder buffer
and the mesh editor's causal-delivery buffer alike.
"""
