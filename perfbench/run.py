"""rankgap benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload run_block --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each workload runs in worker processes of its own (``worker.py``), with BLAS
threads capped at the number of usable CPUs.  With ``--trace 0`` the
end-to-end metrics come from an untraced run; set-up is measured in that run
and in extra set-up-only processes, and ``setup_s`` is their median.  All
times are rescaled to a reference host speed (see ``op_metrics``).  With
``--trace 1`` a separate traced run on the same seed gives the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full run record
(versions, BLAS config, op times, failures) is written under
``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORK = HERE / ".work"
WORKLOADS = ("run_block", "sweep_topk", "certify")

SETUP_SAMPLES = 3  # set-up processes per untraced run; setup_s is their median
# Speed-probe time that defines the reference speed of all timings; about
# what the probe takes on the development host when it is not contended.
REFERENCE_PROBE_S = 0.0015
RUN_DEADLINE_S = 170.0  # a workload run must end within 180 s

# Times are seconds at the reference speed (see op_metrics); the same
# figures in plain wall time are printed and recorded as WALL_METRICS.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
WALL_METRICS = ("wall_setup_s", "wall_op_p50_s", "wall_op_tail_s", "wall_ops_per_s")


class BenchError(Exception):
    """A worker process crashed, timed out or printed no result."""


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith(".share") or name.endswith("overhead_frac"):
        return "frac"
    if name.endswith("us_per_row"):
        return "us"
    if name.endswith("svd_bytes"):
        return "bytes_computed"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def op_metrics(times: list[list[float]], probes: list[list[float]], min_passes: int) -> dict:
    """End-to-end op metrics from whole passes, ``times[pass][op]``.

    The host is shared, and its speed swings by up to 2x in phases from a
    second to minutes long, so each execution's wall time is rescaled to a
    reference speed: multiplied by ``REFERENCE_PROBE_S`` over the speed probe
    taken around it (``worker.SpeedProbe``).  An op's time is the mean of its
    rescaled executions (one per pass) without the slowest one, which is the
    one most likely to have met a slow phase the probes missed.  Every
    execution counts as a sample carrying its op's time.  The tail is the
    highest percentile with at least ten samples beyond it in a run of
    ``min_passes`` passes; that percentile is fixed by the pool size, so it
    stays put when a faster program makes more passes.  The same figures from plain wall time are
    returned with a ``wall_`` prefix.
    """
    scaled = [
        [t * REFERENCE_PROBE_S / p for t, p in zip(row, probe_row)]
        for row, probe_row in zip(times, probes)
    ]
    shortest = min_passes * len(times[0])
    samples = len(times) * len(times[0])
    rank = max(1, -(-samples * (shortest - 10) // shortest))  # ceiling
    out = {
        "tail_percentile": max(0.0, 100.0 * (shortest - 10) / shortest),
        "samples": samples,
        "samples_beyond_tail": samples - rank,
    }
    for prefix, table in (("", scaled), ("wall_", times)):
        per_op = [(sum(column) - max(column)) / (len(column) - 1) for column in zip(*table)]
        out[prefix + "op_p50_s"] = statistics.median(per_op)
        out[prefix + "op_tail_s"] = sorted(per_op * len(table))[rank - 1]
        out[prefix + "ops_per_s"] = len(per_op) / sum(per_op)
    return out


def spawn(args, mode: str, work: Path, deadline: float, spans: Path | None = None) -> dict:
    """Run one worker process to completion and return its result record."""
    cpus = str(usable_cpus())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=cpus, OMP_NUM_THREADS=cpus, MKL_NUM_THREADS=cpus)
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload_name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--work", str(work),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload_name} {mode} worker timed out") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload_name} {mode} worker exited {proc.returncode}")
    record = json.loads(lines[-1])
    record["wall_setup_s"] = record["ready_at"] - spawned
    record["setup_s"] = record["wall_setup_s"] * REFERENCE_PROBE_S / record["setup_probe"]
    return record


def run_workload(args) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, run record)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    tag = f"{args.workload_name}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": git_commit(),
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": usable_cpus(),
        "blas_threads": usable_cpus(),
    }
    if args.trace:
        spans = RESULTS / f"{tag}.spans.npz"
        main = spawn(args, "traced", work, deadline, spans)
        metrics = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in main["layer_metrics"].items()
        }
        record["spans_file"] = spans.name
    else:
        setups = [spawn(args, "setup", work, deadline) for _ in range(SETUP_SAMPLES - 1)]
        main = spawn(args, "timed", work, deadline)
        setups.append(main)
        values = op_metrics(main["op_times"], main["probe_times"], main["min_passes"])
        values.update(
            setup_s=statistics.median(s["setup_s"] for s in setups),
            wall_setup_s=statistics.median(s["wall_setup_s"] for s in setups),
            peak_rss_mb=main["peak_rss_mb"],
        )
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        record.update(
            setup_samples=[s["setup_s"] for s in setups],
            wall_setup_samples=[s["wall_setup_s"] for s in setups],
            passes=len(main["op_times"]),
            **{k: values[k] for k in ("tail_percentile", "samples", "samples_beyond_tail")},
            **{k: values[k] for k in WALL_METRICS},
        )
    record.update(
        {k: main[k] for k in ("ops_per_pass", "attempted", "failed", "failures", "peak_rss_mb")},
        fail_frac=main["failed"] / main["attempted"],
        numpy=main.get("numpy"),
        blas=main.get("blas"),
        lapack=main.get("lapack"),
        metrics=metrics,
    )
    for key in ("op_times", "probe_times", "untraced_op_times", "traced_op_times", "spans"):
        if key in main:
            record[key] = main[key]
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    line = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }
    return line, record


def print_summary(record: dict) -> None:
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:<11} {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"{record['workload']:<11} {'fail_frac':<46} {record['fail_frac']:>14.6g} "
        f"({record['failed']} of {record['attempted']} ops)"
    )
    if not record["trace"]:
        for name in WALL_METRICS:
            print(f"{record['workload']:<11} {name:<46} {record[name]:>14.6g} (unscaled)")
        print(
            f"{record['workload']:<11} op_tail_s is p{record['tail_percentile']:.4g} of "
            f"{record['samples']} op samples ({record['samples_beyond_tail']} beyond it), "
            f"{record['passes']} passes of {record['ops_per_pass']} ops"
        )
    for failure in record["failures"]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rankgap benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny pools, for smoke tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "rankgap" / "__init__.py").is_file():
        print(f"error: no rankgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    lines = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload_name = workload
        try:
            lines[workload], record = run_workload(args)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_summary(record)
    if args.workload == "all":
        result = {
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {
                f"{w}.{name}": metric for w, line in lines.items() for name, metric in line["metrics"].items()
            },
        }
    else:
        result = lines[args.workload]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
