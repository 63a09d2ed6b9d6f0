"""The session layer of the editor protocol stack.

Shared machinery between the star and mesh editors, sitting above the
transport layer (:mod:`repro.net.reliability`) and below the concrete
integration logic (:mod:`repro.editor`):

* :class:`SessionBase` -- run / converged / quiescent / documents /
  wire_stats / all_checks, shared by every session kind;
* :class:`CheckRecord` / :class:`ConsistencyError` -- concurrency-check
  diagnostics and the verdict-vs-oracle failure;
* :class:`HoldbackQueue` -- the per-sender ordered-delivery buffer used
  by both the reliability transport and the mesh's causal broadcast;
* :class:`EditorEndpoint` -- a SimProcess that owns a transport by
  composition (the seam the integration layer builds on).
"""

from repro.net.holdback import HoldbackQueue
from repro.session.base import CheckRecord, ConsistencyError, SessionBase
from repro.session.endpoint import EditorEndpoint

__all__ = [
    "CheckRecord",
    "ConsistencyError",
    "SessionBase",
    "EditorEndpoint",
    "HoldbackQueue",
]
