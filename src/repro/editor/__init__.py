"""Group editors: the paper's star-topology system and the mesh baseline.

* :mod:`repro.editor.star` -- the Web-based REDUCE architecture of the
  paper: N client sites and a central notifier (site 0), compressed
  2-element timestamps on every message, transformation at both ends,
  concurrency detection via formulas (5) and (7).  The roles live in
  :mod:`repro.editor.star_client` / :mod:`repro.editor.star_notifier`,
  the wire formats in :mod:`repro.editor.messages`.
* :mod:`repro.editor.mesh` -- the fully-distributed baseline (the
  original REDUCE deployment): full N-element vector clocks, causal
  broadcast, and GOT-style transformation over a canonical total order.

Both editors edit text with the paper's positional operations; the
star is written against the :class:`repro.ot.types.OTType` contract, so
it also carries Section 6's counter.  Both record ground-truth event
logs and account every byte on the wire for the benchmarks.  They share the session layer
(:mod:`repro.session`) and the transport layer
(:mod:`repro.net.reliability`), whose names are imported from there.
"""

from repro.editor.mesh import MeshSession
from repro.editor.star import StarSession

__all__ = ["MeshSession", "StarSession"]
