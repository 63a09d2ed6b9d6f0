"""perfbench: what an operation costs, end to end and layer by layer.

Two ways to run it.

The suite (what a person runs, and what ``results/baseline.json`` is)::

    python perfbench/run.py --seed 0 [--label NAME] [--quick]

ten rounds over the four workloads with tracing off (round-robin, one
fresh process per repeat, never two at once), then one traced pass per
workload; prints every metric by name with its unit, verifies the
outputs and writes ``perfbench/results/<label>.json`` and
``<label>.layers.md``.

One workload, for a fixed time (what the ``BENCHMARK.json`` driver runs)::

    python perfbench/run.py --workload sim-lossy8 --seed 3 --seconds 30 --trace 0

repeats the workload until the time is up and prints, as the last line,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``:
the gated end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.

Exit code 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import report  # noqa: E402
from metrics import GATED, PER_LAYER, TRACED_EXTRAS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

ROUNDS = 10
QUICK_ROUNDS = 2
QUICK_SCALE = 0.1
MIN_REPEATS = 3
SEED_STRIDE = 1000
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A pass could not be run at all (as opposed to: ran and was wrong)."""


def run_child(workload: Workload, pass_: str, seed: int, scale: float,
              extra: Sequence[str] = ()) -> dict[str, Any]:
    """One pass in a fresh process; its stderr goes straight to ours."""
    command = [sys.executable, str(HERE / "repeat.py"),
               "--workload", workload.name, "--pass", pass_,
               "--seed", str(seed), "--scale", str(scale), *extra]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, cwd=str(ROOT), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload.name} {pass_} pass timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(
            f"{workload.name} {pass_} pass exited {done.returncode} without a result")
    return json.loads(lines[-1])


def traced_result(workload: Workload, seed: int, scale: float,
                  reference_wall_s: float, spans_out: Optional[Path] = None
                  ) -> tuple[dict[str, Any], list[str]]:
    """The traced pass (and the Tracer pass where the workload has one),
    turned into per-layer metrics relative to an untraced wall time
    (calibrated, like the traced and Tracer passes' own)."""
    extra = ["--spans-out", str(spans_out)] if spans_out else []
    traced = run_child(workload, "traced", seed, scale, extra)
    errors = list(traced["errors"])
    layers = dict(traced["metrics"])
    layers["bench.trace_overhead_pct"] = (
        100.0 * (traced["calibrated_wall_s"] / reference_wall_s - 1.0))
    layers["obs.tracer_overhead_pct"] = 0.0
    if workload.tracer_pass:
        with_tracer = run_child(workload, "tracer", seed, scale)
        errors += with_tracer["errors"]
        layers["obs.tracer_overhead_pct"] = (
            100.0 * (with_tracer["calibrated_wall_s"] / reference_wall_s - 1.0))
    result = {
        "per_layer": layers,
        "budget": traced["budget"],
        "traced_per_op_us": traced["per_op_us"],
        "traced_speed_index": traced["speed_index"],
        "per_op_us": reference_wall_s / traced["ops"] * 1e6,
        "span_count": traced["span_count"],
    }
    return result, errors


def verify_with_oracle(workload: Workload, seed: int, scale: float) -> list[str]:
    """sim-diag4 only: one pass with every formula-5/7 verdict asserted
    against the vector-clock oracle."""
    if not workload.diagnostics:
        return []
    return list(run_child(workload, "oracle", seed, scale)["errors"])


# -- one workload for a fixed time (the BENCHMARK.json contract) -------------------


def timed_repeats(workload: Workload, seed: int, scale: float, seconds: float,
                  at_least: int, extra: Sequence[str] = ()) -> list[dict[str, Any]]:
    """Timed passes, one after the other, until the next would overrun.

    Each repeat draws its own inputs from ``seed``: a run then reports the
    median over several inputs, not one input's luck (on sim-lossy8 the
    latency tail differs two-fold between seeds).
    """
    started = time.monotonic()
    repeats: list[dict[str, Any]] = []
    while True:
        t0 = time.monotonic()
        repeats.append(run_child(
            workload, "timed", seed * SEED_STRIDE + len(repeats), scale, extra))
        took = time.monotonic() - t0
        if len(repeats) >= at_least and time.monotonic() - started + took > seconds:
            return repeats


def run_one(workload: Workload, seed: int, seconds: float, trace: bool,
            scale: float, sabotage: Optional[str]) -> int:
    errors = verify_with_oracle(workload, seed, scale)
    extra = ["--sabotage", sabotage] if sabotage else []
    # The traced run needs one untraced pass to be measured against.
    repeats = (timed_repeats(workload, seed, scale, 0.0, 1, extra) if trace
               else timed_repeats(workload, seed, scale, seconds, MIN_REPEATS, extra))
    for repeat in repeats:
        errors += repeat["errors"]
    if trace:
        result, trace_errors = traced_result(
            workload, seed * SEED_STRIDE, scale, repeats[0]["calibrated_wall_s"])
        errors += trace_errors
        shown = (*PER_LAYER, *TRACED_EXTRAS)
        values = {**result["per_layer"],
                  **{m.name: repeats[0][m.name] for m in TRACED_EXTRAS}}
    else:
        estimates = report.estimate(workload, repeats)
        shown = GATED
        values = {m.name: estimates[m.name]["value"] for m in shown}
    for error in errors:
        print(f"FAILED {workload.name}: {error}", file=sys.stderr)
    print(f"{workload.name} seed={seed}: {len(repeats)} timed repeats"
          + (", 1 traced pass" if trace else ""))
    for m in shown:
        print(f"  {m.name:32s} {values[m.name]:14.4f} {m.unit}")
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["ops"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in shown},
    }))
    return 1 if errors else 0


# -- the suite ---------------------------------------------------------------------


def spin_quantiles_ms(seconds: float = 2.0) -> dict[str, float]:
    """How fast this box runs a fixed pure-Python loop, and how steadily:
    lets a reader tell a slow box from a slow commit."""
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append((time.perf_counter() - t0) * 1e3)
    p25, p50, p75 = statistics.quantiles(samples, n=4)
    return {"min": min(samples), "p25": p25, "p50": p50, "p75": p75,
            "max": max(samples), "samples": len(samples)}


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=str(ROOT),
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_suite(seed: int, label: str, quick: bool, sabotage: Optional[str]) -> int:
    scale = QUICK_SCALE if quick else 1.0
    rounds = QUICK_ROUNDS if quick else ROUNDS
    started = time.monotonic()
    machine = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": git_rev(),
        "spin_ms_before": spin_quantiles_ms(0.5 if quick else 2.0),
    }
    errors: list[str] = []
    repeats: dict[str, list[dict[str, Any]]] = {name: [] for name in WORKLOADS}
    extra = ["--sabotage", sabotage] if sabotage else []
    for round_ in range(rounds):
        for name, workload in WORKLOADS.items():
            repeat = run_child(workload, "timed", seed, scale, extra)
            repeats[name].append(repeat)
            errors += [f"{name} round {round_}: {e}" for e in repeat["errors"]]
            print(f"round {round_ + 1}/{rounds} {name:13s} {repeat['wall_s']:6.2f} s "
                  f"at speed index {repeat['speed_index']:4.2f}: "
                  f"{repeat['ops_per_s']:8.0f} ops/s", flush=True)

    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    results: dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        errors += report.exactness_errors(workload, repeats[name])
        errors += [f"{name} oracle: {e}"
                   for e in verify_with_oracle(workload, seed, scale)]
        estimates = report.estimate(workload, repeats[name])
        reference_wall_s = repeats[name][0]["ops"] / estimates["ops_per_s"]["value"]
        spans_out = results_dir / f"{label}.{name}.spans.jsonl"
        traced, trace_errors = traced_result(
            workload, seed, scale, reference_wall_s, spans_out)
        errors += [f"{name} traced: {e}" for e in trace_errors]
        results[name] = {
            "why": workload.why,
            "ops": repeats[name][0]["ops"],
            "end_to_end": estimates,
            **traced,
        }
        print(f"traced {name}: {traced['span_count']} spans", flush=True)

    machine["spin_ms_after"] = spin_quantiles_ms(0.5 if quick else 2.0)
    machine["suite_seconds"] = time.monotonic() - started
    document = {
        "format": "perfbench/1",
        "label": label,
        "seed": seed,
        "scale": scale,
        "rounds": rounds,
        "machine": machine,
        "correct": not errors,
        "errors": errors,
        "workloads": results,
    }
    (results_dir / f"{label}.json").write_text(
        json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    layers_md = [f"# Per-layer budget: {label}", "",
                 f"seed {seed}, scale {scale}, git {machine['git_rev']}, "
                 f"python {machine['python']}, {machine['nproc']} cores, "
                 f"spin loop p50 {machine['spin_ms_before']['p50']:.2f} ms "
                 f"(min {machine['spin_ms_before']['min']:.2f})", ""]
    budget_tables = [line for name, result in results.items()
                     for line in (*report.budget_table(name, result), "")]
    (results_dir / f"{label}.layers.md").write_text(
        "\n".join(layers_md + budget_tables), encoding="utf-8")

    print()
    print("## End-to-end (tracing off)")
    print("\n".join(report.end_to_end_table(results)))
    print()
    print("## Per layer (traced pass)")
    print("\n".join(report.per_layer_table(results)))
    print()
    print("## Budget tables")
    print("\n".join(budget_tables))
    print(f"wrote {results_dir / (label + '.json')}  "
          f"({machine['suite_seconds']:.0f} s)")
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    return 1 if errors else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run this workload only, for --seconds")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="every workload at 1/10 size, two rounds")
    parser.add_argument("--label", default=None,
                        help="suite: results/<label>.json (default: local)")
    parser.add_argument("--sabotage", choices=("diverge", "drop-op"), default=None,
                        help="break the timed passes on purpose (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no src/repro beside perfbench/: nothing to measure",
              file=sys.stderr)
        return 2
    try:
        if args.workload is not None:
            return run_one(WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), QUICK_SCALE if args.quick else 1.0,
                           args.sabotage)
        label = args.label or ("quick" if args.quick else "local")
        return run_suite(args.seed, label, args.quick, args.sabotage)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
