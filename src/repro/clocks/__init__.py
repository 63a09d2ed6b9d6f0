"""Logical clocks: ground truth and baseline compression techniques.

The paper positions its constant-size-2 scheme against three families:

* full vector clocks (Fidge/Mattern) -- :mod:`repro.clocks.vector`;
* scalar Lamport clocks (insufficient for concurrency detection, shown
  for contrast) -- :mod:`repro.clocks.lamport`;
* dynamic differential compression (Singhal & Kshemkalyani, IPL 1992,
  the paper's reference [13]) -- :mod:`repro.clocks.sk`;
* offline scalar techniques (Fowler & Zwaenepoel, ICDCS 1990, reference
  [7]) that reconstruct vector time from a dependency graph --
  :mod:`repro.clocks.fz`.

These are real implementations, used both as correctness oracles (the
compressed scheme's concurrency verdicts must agree with full vector
clocks) and as baselines in the overhead benchmarks (CLAIM-OVH /
CLAIM-MEM in DESIGN.md).  :mod:`repro.clocks.dimension` makes the
Charron-Bost bound the paper cites executable (DIM in DESIGN.md).
"""
