"""Compare two perfbench result files: ``compare.py BASE.json NEW.json``.

For every (workload, end-to-end metric) prints base, new, the change,
the bound and a verdict:

``same``        the medians differ by no more than the bound
``better``      beyond the bound in the good direction
``worse``       beyond the bound in the bad direction
``unresolved``  the repeats of either file spread (q1..q3) wider than the
                bound and the two files' repeats overlap: run it again,
                claim nothing

Exact metrics (counts and virtual time from a seeded simulator) are
compared for equality: any difference is ``better`` or ``worse``.

Exit code 1 if any verdict is ``worse``, else 0.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Optional, Sequence

from metrics import END_TO_END, Metric, exact_on
from workloads import WORKLOADS


def verdict(metric: Metric, kind: str, base: dict[str, Any], new: dict[str, Any]
            ) -> tuple[str, float]:
    """``(verdict, worsening)``; worsening is the change as a share of the
    base, positive when ``new`` is worse."""
    sign = 1.0 if metric.better == "lower" else -1.0
    old, now = base["value"], new["value"]
    if old == now:
        return "same", 0.0
    worsening = (sign * (now - old) / abs(old) if old
                 else math.copysign(math.inf, sign * (now - old)))
    if exact_on(metric, kind):
        return ("worse" if worsening > 0 else "better"), worsening
    spread = max((entry["q3"] - entry["q1"]) / abs(entry["value"])
                 for entry in (base, new) if entry["value"])
    overlap = (min(base["repeats"]) <= max(new["repeats"])
               and min(new["repeats"]) <= max(base["repeats"]))
    if spread > metric.bound and overlap:
        return "unresolved", worsening
    if abs(worsening) <= metric.bound:
        return "same", worsening
    return ("worse" if worsening > 0 else "better"), worsening


def compare(base: dict[str, Any], new: dict[str, Any]) -> tuple[list[str], int]:
    lines = [f"{'workload':13s} {'metric':20s} {'base':>12s} {'new':>12s} "
             f"{'change':>8s} {'bound':>6s}  verdict"]
    worse = 0
    for name, workload in WORKLOADS.items():
        if name not in base["workloads"] or name not in new["workloads"]:
            lines.append(f"{name:13s} missing from one of the files")
            worse += 1
            continue
        old_metrics = base["workloads"][name]["end_to_end"]
        new_metrics = new["workloads"][name]["end_to_end"]
        for metric in END_TO_END:
            if metric.name not in old_metrics or metric.name not in new_metrics:
                continue
            result, worsening = verdict(
                metric, workload.kind, old_metrics[metric.name],
                new_metrics[metric.name])
            worse += result == "worse"
            bound = "exact" if exact_on(metric, workload.kind) else f"{metric.bound:.0%}"
            lines.append(
                f"{name:13s} {metric.name:20s} "
                f"{old_metrics[metric.name]['value']:12.4f} "
                f"{new_metrics[metric.name]['value']:12.4f} "
                f"{worsening:+8.1%} {bound:>6s}  {result}")
    return lines, worse


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    base, new = documents
    if (base["seed"], base["scale"]) != (new["seed"], new["scale"]):
        print(f"warning: comparing seed/scale {base['seed']}/{base['scale']} "
              f"with {new['seed']}/{new['scale']}: exact metrics will differ",
              file=sys.stderr)
    lines, worse = compare(base, new)
    print("\n".join(lines))
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
