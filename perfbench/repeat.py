"""One pass of one workload in a fresh process; prints one JSON object.

``run.py`` starts this file once per pass and never two at once, so
every pass has its own heap (``peak_rss_mb`` is the process high-water
mark) and its own warm-up.  Passes:

``timed``   tracing off: the end-to-end numbers.
``traced``  boundary spans on, then the layer stands on the captured
            traffic: the per-layer numbers and the budget table.
``tracer``  tracing off but a ``repro.obs.Tracer`` attached: what the
            program's own event model costs (ROADMAP aim 4).
``oracle``  the verification pass: every formula-5/7 verdict asserted
            against the vector-clock oracle (simulator workloads).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Optional, Sequence

from calibrate import Kernel
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
if (ROOT / "src").is_dir() and str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--pass", dest="pass_", required=True,
                        choices=("timed", "traced", "tracer", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--spans-out", default=None,
                        help="traced pass: write every span to this JSONL file")
    parser.add_argument("--sabotage", choices=("diverge", "drop-op"), default=None,
                        help="break the run on purpose (the self-test uses it)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    kernel = Kernel()
    entry_kernel_s = [kernel(), kernel()]
    started = perf_counter()
    # Imported here, not at the top: loading the program is part of setup_s,
    # and the kernel has to be sampled on both sides of it.
    from probe import TraceState
    from rig import run_wire
    from simrun import run_sim
    from summary import layer_report, summarise

    trace = TraceState() if args.pass_ == "traced" else None
    tracer = None
    if args.pass_ == "tracer":
        from repro.obs import Tracer

        tracer = Tracer()
    with trace.recorder.spanning_gc() if trace is not None else nullcontext():
        if workload.kind == "wire":
            record, final = run_wire(workload, args.seed, args.scale, started, kernel,
                                     trace=trace, tracer=tracer,
                                     sabotage=args.sabotage)
        else:
            record, final = run_sim(workload, args.seed, args.scale, started, kernel,
                                    trace=trace, tracer=tracer,
                                    oracle=args.pass_ == "oracle",
                                    sabotage=args.sabotage)
    out = summarise(record, entry_kernel_s)
    out["pass"] = args.pass_
    if trace is not None:
        out["span_count"] = len(trace.recorder)
        out["errors"] = out["errors"] + trace.recorder.problems()
        out.update(layer_report(workload, out, trace, final))
        if args.spans_out:
            trace.recorder.write_jsonl(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
