"""Multi-process cluster harness: the star session over real TCP.

Everything in this repo up to here runs inside one process under the
deterministic :class:`~repro.net.simulator.Simulator`.  This package
runs the *identical* editor classes -- :class:`StarNotifier`,
:class:`StarClient`, the reliability protocol, the tracer -- as separate
operating-system processes connected by real localhost TCP sockets,
driven by the wall-clock
:class:`~repro.net.scheduler.AsyncioScheduler` and the framed transport
of :mod:`repro.net.wire`.  It is the existence proof for the scheduler
abstraction: no editor code knows which world it is in.

Process topology (the paper's Fig. 1, as OS processes)::

    driver ──spawn──> serve  (site 0: StarNotifier, TCP accept)
       │                ▲ ▲ ▲
       ├──spawn──> client 1 │    each client dials the notifier,
       ├──spawn──> client 2─┘    sends a HELLO frame, then speaks
       └──spawn──> client 3──┘   the ordinary envelope protocol

Each process writes a result JSON and a trace JSONL; the driver merges
the per-process traces into one causally consistent stream and runs the
repo's standard verdicts over it: convergence, formula-(5)/(7) check
records vs trace concurrency, the holdback release audit, and a
vector-clock replay cross-check of the reconstructed happened-before
relation.
"""

from repro.cluster.harness import ClusterConfig
from repro.cluster.driver import run_cluster

__all__ = ["ClusterConfig", "run_cluster"]
