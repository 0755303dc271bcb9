"""Smoke tests of the benchmark at tiny sizes, and checks that catch bad output.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb"}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_untraced_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in END_TO_END:
        assert name in proc.stdout.split("{")[0]


def traced(workload: str, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] is True
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_traced_counts_repeat_exactly_and_count_svds():
    first, second = traced("run_block"), traced("run_block")
    counts = [n for n in first if run.layer_unit(n) == "count"]
    assert counts and all(first[n] == second[n] for n in counts)
    assert first["matrix.svd_calls"] == 17
    assert first["cli.calls"] > 0 and first["popgap.calls"] == 0
    sweep = traced("sweep_topk")
    assert sweep["matrix.svd_calls_per_fit"] == 5
    certify = traced("certify")
    assert certify["learner.calls"] == 0 and certify["cli.calls"] == 0
    assert certify["collective.grid_points_per_infeasible"] in (0, 9999)


def test_every_per_layer_metric_of_benchmark_json_is_reported():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    reported = traced("sweep_topk")
    assert names == set(reported)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[n] == run.layer_unit(n) for n in names)


def test_seed_fixes_the_inputs(tmp_path):
    def docs(seed: int, name: str) -> list[str]:
        work = tmp_path / name
        workloads.build("sweep_topk", seed, work, tiny=True)
        return [p.read_text() for p in sorted(work.glob("*/scenario.json"))]

    assert docs(5, "a") == docs(5, "b")
    assert docs(5, "a") != docs(6, "c")
    assert len(docs(6, "c")) == workloads.TINY_POOL_SIZE["sweep_topk"]


def tamper_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def with_tampering(op, tamper):
    original = op.run

    def run_then_tamper():
        result = original()
        tamper()
        return result

    op.run = run_then_tamper
    return op


def test_tampered_run_report_fails_its_op(tmp_path):
    ops = workloads.build("run_block", 7, tmp_path, tiny=True)
    report = tmp_path / "rb00" / "out" / "rb00.report.json"

    def lower_a_collective_welfare(doc):
        doc["per_user"][0]["collective_welfare"] = -1.0

    with_tampering(ops[0], lambda: tamper_json(report, lower_a_collective_welfare))
    times, _, failures = worker.timed_passes(ops, seconds=0.0, min_passes=1)
    assert len(times) == 1 and len(times[0]) == len(ops)
    assert len(failures) == 1 and "rb00" in failures[0]


def test_tampered_sweep_and_certify_outputs_fail(tmp_path):
    sweep = workloads.build("sweep_topk", 7, tmp_path, tiny=True)
    report = tmp_path / "sw00" / "out" / "sw00.sweep.json"

    def shift_welfare(doc):
        doc["runs"][-1]["social_welfare"] += 1.0

    with_tampering(sweep[0], lambda: tamper_json(report, shift_welfare))
    _, _, failures = worker.timed_passes(sweep, seconds=0.0, min_passes=1)
    assert len(failures) == 1

    certify = workloads.build("certify", 7, tmp_path, tiny=True)
    original = certify[1].run

    def biased_estimate():
        result = original()
        result.mc_estimate += 0.2
        return result

    certify[1].run = biased_estimate
    _, _, failures = worker.timed_passes(certify, seconds=0.0, min_passes=1)
    assert len(failures) == 1 and "Monte Carlo" in failures[0]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "run_block", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_op_metrics_divide_out_the_probed_host_speed():
    ref = run.REFERENCE_PROBE_S
    slow, fast = [2.0 * t for t in range(1, 11)], [float(t) for t in range(1, 11)]
    three = run.op_metrics([slow, fast, slow], [[2 * ref] * 10, [ref] * 10, [2 * ref] * 10], 3)
    assert three["op_p50_s"] == pytest.approx(5.5)
    assert three["ops_per_s"] == pytest.approx(10 / 55)
    assert three["wall_op_p50_s"] == pytest.approx(8.25)
    assert three["samples"] == 30 and three["samples_beyond_tail"] == 10
    assert three["op_tail_s"] == pytest.approx(7.0)
    four = run.op_metrics([slow, fast, slow, fast], [[2 * ref] * 10, [ref] * 10] * 2, 3)
    assert four["tail_percentile"] == three["tail_percentile"]
    assert four["samples_beyond_tail"] >= 10
