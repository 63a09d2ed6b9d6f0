"""perfbench's self-test.  Run it explicitly::

    python -m pytest perfbench/test_perfbench.py -q

(tier-1's ``testpaths`` stays ``tests``).  It drives ``run.py --quick``
as a user would and takes a couple of minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
from metrics import END_TO_END, GATED, PER_LAYER, TRACED_EXTRAS, exact_on  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_py(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"
           ) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], cwd=str(cwd),
                          capture_output=True, text=True, timeout=300, check=False)


@pytest.fixture(scope="module")
def quick_runs():
    """Two quick suites of seed 0, back to back."""
    runs = []
    for label in ("selftest-a", "selftest-b"):
        done = run_py("--quick", "--seed", "0", "--label", label)
        document = json.loads((RESULTS / f"{label}.json").read_text())
        runs.append((done, document))
    yield runs
    for path in RESULTS.glob("selftest-*"):
        path.unlink()


def test_quick_suite_passes_quietly(quick_runs):
    for done, document in quick_runs:
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert document["correct"] and not document["errors"]
        assert document["machine"]["suite_seconds"] < 60


def test_every_named_metric_is_there_with_its_unit(quick_runs):
    done, document = quick_runs[0]
    for name, workload in WORKLOADS.items():
        result = document["workloads"][name]
        for metric in END_TO_END:
            if metric.on in ("all", workload.kind):
                assert result["end_to_end"][metric.name]["unit"] == metric.unit
            else:
                assert metric.name not in result["end_to_end"]
        for metric in PER_LAYER:
            assert metric.name in result["per_layer"], (name, metric.name)
        assert result["budget"], name
    for metric in (*END_TO_END, *PER_LAYER):
        assert metric.name in done.stdout
        assert metric.unit in done.stdout


def test_exact_metrics_repeat_across_runs(quick_runs):
    (_, first), (_, second) = quick_runs
    for name, workload in WORKLOADS.items():
        for metric in END_TO_END:
            if metric.on in ("all", workload.kind) and exact_on(metric, workload.kind):
                a = first["workloads"][name]["end_to_end"][metric.name]
                b = second["workloads"][name]["end_to_end"][metric.name]
                assert a["value"] == b["value"], (name, metric.name)
                assert len(set(a["repeats"])) == 1
    lines, worse = compare.compare(first, second)
    exact_rows = [line for line in lines if " exact " in line]
    assert exact_rows and all(line.endswith("same") for line in exact_rows)


def test_layers_sit_where_the_workloads_put_them(quick_runs):
    layers = {name: result["per_layer"]
              for name, result in quick_runs[0][1]["workloads"].items()}
    for name, values in layers.items():
        assert (values["core.checks_per_op"] > 0) == (name == "sim-diag4")
        assert (values["codec.encode_us"] > 0) == (name == "wire-pair")
        assert (values["wire.send_us"] > 0) == (name == "wire-pair")
        assert (values["rel.retransmits_per_op"] > 0) == (name == "sim-lossy8")
        assert values["bench.unattributed_pct"] <= 25
    assert layers["sim-diag4"]["core.checks_per_op"] == pytest.approx(
        layers["sim-diag4"]["editor.check_records_per_op"])

    def share(name: str, prefixes: tuple[str, ...]) -> float:
        budget = quick_runs[0][1]["workloads"][name]["budget"]
        return sum(row["share_pct"] for row in budget
                   if row["layer"].startswith(prefixes))

    assert share("sim-lossy8", ("rel.",)) > share("sim-fanout16", ("rel.",))


def test_span_tree_is_sane(quick_runs):
    for name in WORKLOADS:
        spans = [json.loads(line) for line in
                 (RESULTS / f"selftest-a.{name}.spans.jsonl").read_text().splitlines()]
        assert len(spans) > 100
        covered = [0.0] * len(spans)
        for index, (_, start, end, parent, _) in enumerate(spans):
            assert end >= start
            if parent >= 0:
                assert parent < index
                _, parent_start, parent_end, _, _ = spans[parent]
                assert parent_start <= start and end <= parent_end
                covered[parent] += end - start
        for (_, start, end, _, _), inside in zip(spans, covered):
            assert end - start - inside >= -1e-9
        assert any(op_id for *_, op_id in spans)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_driver_contract_output():
    done = run_py("--workload", "wire-pair", "--seed", "5", "--seconds", "1",
                  "--trace", "0", "--quick")
    assert done.returncode == 0 and done.stderr == ""
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in GATED]
    for metric in GATED:
        assert result["metrics"][metric.name]["unit"] == metric.unit
        assert result["metrics"][metric.name]["value"] > 0
    traced = run_py("--workload", "sim-diag4", "--seed", "5", "--seconds", "1",
                    "--trace", "1", "--quick")
    assert traced.returncode == 0 and traced.stderr == ""
    assert list(last_json(traced.stdout)["metrics"]) == [
        m.name for m in (*PER_LAYER, *TRACED_EXTRAS)]


@pytest.mark.parametrize("workload", ["sim-fanout16", "wire-pair"])
def test_a_diverged_replica_fails_the_run(workload):
    done = run_py("--workload", workload, "--seconds", "1", "--quick",
                  "--sabotage", "diverge")
    assert done.returncode != 0
    assert "different documents" in done.stderr
    assert last_json(done.stdout)["correct"] is False


@pytest.mark.parametrize("workload", ["sim-lossy8", "wire-pair"])
def test_a_lost_op_fails_the_run(workload):
    done = run_py("--workload", workload, "--seconds", "1", "--quick",
                  "--sabotage", "drop-op")
    assert done.returncode != 0
    result = last_json(done.stdout)
    assert result["correct"] is False and result["failed"] >= 1


def test_seed_1_passes_every_check():
    done = run_py("--quick", "--seed", "1", "--label", "selftest-seed1")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def listening_sockets() -> int:
    lines = Path("/proc/self/net/tcp").read_text().splitlines()[1:]
    return sum(1 for line in lines if line.split()[3] == "0A")


def test_rig_leaves_no_listening_socket():
    import time

    from calibrate import Kernel
    from rig import run_wire

    before = listening_sockets()
    record, _ = run_wire(WORKLOADS["wire-pair"], 0, 0.02, time.perf_counter(),
                         Kernel())
    assert not record["errors"]
    assert listening_sockets() == before


def test_benchmark_json_repeats_the_metric_table():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["command"] == ["python3", "perfbench/run.py"]
    assert contract["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert contract["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in GATED]
    assert contract["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in (*PER_LAYER, *TRACED_EXTRAS)]
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_py("--workload", "wire-pair", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
