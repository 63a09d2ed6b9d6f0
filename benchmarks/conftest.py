"""Shared helpers for the benchmark suite.

Every file regenerates one experiment from DESIGN.md's index (FIG1-3,
CLAIM-*).  Benchmarks both *measure* (pytest-benchmark timings) and
*assert the paper's shape claims* (who wins, by what factor), and print
the regenerated table/figure so ``pytest benchmarks/ --benchmark-only -s``
reproduces the paper's evaluation artefacts on the terminal.
"""

import sys


def emit(title: str, body: str) -> None:
    """Print a regenerated table/figure block (visible with -s)."""
    bar = "=" * len(title)
    sys.stdout.write(f"\n{title}\n{bar}\n{body}\n")
