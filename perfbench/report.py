"""From repeats to numbers: the estimator, and the tables run.py prints."""

from __future__ import annotations

import statistics
from typing import Any, Sequence

from metrics import END_TO_END, PER_LAYER, Metric, exact_on
from workloads import Workload


def _applies(metric: Metric, workload: Workload) -> bool:
    return metric.on in ("all", workload.kind)


def estimate(workload: Workload, repeats: Sequence[dict[str, Any]]
             ) -> dict[str, dict[str, Any]]:
    """Every end-to-end metric of one workload from its timed repeats.

    Each repeat's wall-clock numbers are already calibrated against the
    speed of the box at the time (calibrate.py), which leaves errors in
    both directions, so the estimate is the median of the repeats; the
    quartiles are kept beside it as dispersion.  An exact metric reads
    the same in every repeat of one seed.
    """
    out: dict[str, dict[str, Any]] = {}
    for metric in END_TO_END:
        if not _applies(metric, workload):
            continue
        values = [r[metric.name] for r in repeats]
        entry: dict[str, Any] = {"value": statistics.median(values),
                                 "unit": metric.unit, "repeats": values}
        raw = [r[f"raw_{metric.name}"] for r in repeats if f"raw_{metric.name}" in r]
        if raw:
            entry["raw_repeats"] = raw
        q1, _, q3 = _quartiles(values)
        entry.update(q1=q1, q3=q3)
        out[metric.name] = entry
    return out


def _quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def exactness_errors(workload: Workload, repeats: Sequence[dict[str, Any]]
                     ) -> list[str]:
    """Exact metrics that differ between repeats of one (workload, seed)."""
    errors = []
    for metric in END_TO_END:
        if _applies(metric, workload) and exact_on(metric, workload.kind):
            values = {r[metric.name] for r in repeats}
            if len(values) > 1:
                errors.append(f"{workload.name}: {metric.name} is not exact: "
                              f"{sorted(values)}")
    return errors


# -- tables ------------------------------------------------------------------------


def _number(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 10:
        return f"{value:.1f}"
    return f"{value:.3f}"


def end_to_end_table(results: dict[str, Any]) -> list[str]:
    lines = ["| workload | metric | value | unit | q1..q3 | repeats |",
             "|---|---|---|---|---|---|"]
    for name, result in results.items():
        for metric in END_TO_END:
            entry = result["end_to_end"].get(metric.name)
            if entry is None:
                continue
            spread = ("exact" if entry["q1"] == entry["q3"]
                      else f"{_number(entry['q1'])}..{_number(entry['q3'])}")
            lines.append(
                f"| {name} | {metric.name} | {_number(entry['value'])} | "
                f"{metric.unit} | {spread} | {len(entry['repeats'])} |")
    return lines


def per_layer_table(results: dict[str, Any]) -> list[str]:
    names = list(results)
    lines = ["| metric | unit | " + " | ".join(names) + " |",
             "|---|---|" + "---|" * len(names)]
    for metric in PER_LAYER:
        cells = [
            _number(results[name]["per_layer"][metric.name])
            if metric.name in results[name].get("per_layer", {}) else "-"
            for name in names
        ]
        lines.append(f"| {metric.name} | {metric.unit} | " + " | ".join(cells) + " |")
    return lines


def budget_table(name: str, result: dict[str, Any]) -> list[str]:
    """Where one op's time goes on one workload, under trace."""
    layers = result["per_layer"]
    lines = [
        f"### {name}",
        "",
        f"per-op time {result['per_op_us']:.1f} us untraced (calibrated); the "
        f"traced pass read {result['traced_per_op_us']:.1f} us on the clock at "
        f"speed index {result['traced_speed_index']:.2f}, "
        f"{layers['bench.trace_overhead_pct']:+.0f} % once calibrated.  Rows are "
        f"self time as the clock read it under trace; they leave "
        f"{layers['bench.unattributed_pct']:.1f} % of it unattributed.",
        "",
        "| layer | source | calls/op | self us/call | us/op | share % |",
        "|---|---|---|---|---|---|",
    ]
    for row in result["budget"]:
        lines.append(
            f"| {row['layer']} | {row['source']} | {row['calls_per_op']:.2f} | "
            f"{row['self_us']:.2f} | {row['us_per_op']:.1f} | {row['share_pct']:.1f} |")
    return lines
