"""Operational transformation substrate.

This subpackage implements the operational-transformation machinery that
the compressed-vector-clock scheme of Sun & Cai (IPPS 2002) depends on:

* :mod:`repro.ot.operations` -- the paper's positional string operations
  ``Insert[text, pos]`` and ``Delete[count, pos]`` (Section 2.2 of the
  paper), their groups, application semantics and ``compose``.  This is
  the one text model: both editors and the wire codec speak it.
* :mod:`repro.ot.transform` -- inclusion (IT) and exclusion (ET)
  transformation functions for the positional operations, in the style of
  Sun et al., TOCHI 1998.
* :mod:`repro.ot.types` -- the OT *type* contract and its two types:
  positional text, and a counter demonstrating the paper's Section 6
  claim that the compression scheme generalises to any replicated data
  object with a suitable transformation function.
"""
