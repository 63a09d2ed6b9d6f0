"""The paper's contribution: compressed vector clocks for star-topology OT.

* :mod:`repro.core.state_vector` -- the client's 2-element state vector
  and the notifier's full N-element state vector, including the
  compression formulas (1)-(2) of Section 3.3.
* :mod:`repro.core.timestamp` -- timestamp value types: compressed
  2-element timestamps carried on the wire and full timestamps used only
  inside the notifier's history buffer.
* :mod:`repro.core.concurrency` -- the concurrency-checking formulas
  (3)-(7) of Section 4, in both their general and FIFO-simplified forms.
* :mod:`repro.core.history` -- the History Buffer (HB) of executed,
  timestamped operations maintained at every site.
"""
