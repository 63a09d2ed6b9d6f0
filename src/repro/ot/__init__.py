"""Operational transformation substrate.

This subpackage implements the operational-transformation machinery that
the compressed-vector-clock scheme of Sun & Cai (IPPS 2002) depends on:

* :mod:`repro.ot.operations` -- the paper's positional string operations
  ``Insert[text, pos]`` and ``Delete[count, pos]`` (Section 2.2 of the
  paper), together with application semantics and an *intention* record.
* :mod:`repro.ot.transform` -- inclusion (IT) and exclusion (ET)
  transformation functions for the positional operations, in the style of
  Sun et al., TOCHI 1998.
* :mod:`repro.ot.component` -- a component-based text-operation type
  (retain / insert / delete runs) with ``compose`` and a ``transform``
  that satisfies transformation property TP1.  The group editors use this
  type internally because TP1 is exactly the property needed for
  convergence in a star topology.
* :mod:`repro.ot.types` -- a small registry of OT *types* (text, list,
  counter, last-writer-wins register) demonstrating the paper's Section 6
  claim that the compression scheme generalises to any replicated data
  object with a suitable transformation function.
"""
