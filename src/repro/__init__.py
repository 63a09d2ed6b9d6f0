"""repro: compressed vector clocks for real-time group editors.

A production-quality reproduction of Sun & Cai, "Capturing Causality by
Compressed Vector Clock in Real-time Group Editors" (IPPS 2002).

Quickstart::

    from repro import StarSession, Insert, Delete

    session = StarSession(n_sites=2, initial_state="ABCDE")
    session.generate_at(1, Insert("12", 1), at=1.0)
    session.generate_at(2, Delete(3, 2), at=1.0)
    session.run()
    assert session.converged()

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` -- compressed state vectors, timestamps, the
  concurrency formulas (3)-(7), history buffers;
* :mod:`repro.ot` -- operational transformation (positional and
  component text operations, IT/ET, generic OT types);
* :mod:`repro.clocks` -- full vector clocks, Lamport clocks, and the
  Singhal-Kshemkalyani / Fowler-Zwaenepoel baselines;
* :mod:`repro.net` -- deterministic discrete-event simulation with FIFO
  channels (the paper's TCP/star substrate);
* :mod:`repro.editor` -- the star-topology editor (the paper's system)
  and the fully-distributed mesh baseline;
* :mod:`repro.analysis` -- causality ground-truth oracle and
  consistency checkers;
* :mod:`repro.workloads` -- scripted paper scenarios and random
  workloads;
* :mod:`repro.metrics` -- timestamp/memory overhead accounting;
* :mod:`repro.viz` -- ASCII renderings of the paper's figures.
"""

from repro.core.state_vector import ClientStateVector, NotifierStateVector
from repro.core.timestamp import CompressedTimestamp, FullTimestamp, OriginKind
from repro.core.concurrency import client_concurrent, notifier_concurrent
from repro.core.history import HistoryBuffer
from repro.ot.operations import Delete, Insert
from repro.ot.transform import transform_pair
from repro.ot.component import TextOperation
from repro.clocks.lamport import LamportClock
from repro.clocks.vector import VectorClock
from repro.editor.mesh import MeshSession
from repro.editor.star import StarSession
from repro.analysis.causality import CausalityOracle
from repro.analysis.consistency import check_divergence

__version__ = "1.0.0"

__all__ = [
    "ClientStateVector",
    "NotifierStateVector",
    "CompressedTimestamp",
    "FullTimestamp",
    "OriginKind",
    "HistoryBuffer",
    "client_concurrent",
    "notifier_concurrent",
    "Insert",
    "Delete",
    "TextOperation",
    "transform_pair",
    "VectorClock",
    "LamportClock",
    "StarSession",
    "MeshSession",
    "CausalityOracle",
    "check_divergence",
    "__version__",
]
