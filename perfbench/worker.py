"""One workload in one process: set up, warm up, then a timed or a traced run.

Started by ``run.py``, never by hand.  The last line of standard output is a
JSON object with the raw measurements; ``run.py`` turns them into metrics.

Modes:

* ``setup``: build the inputs and run the warm-up op, then stop.  Only the
  moment the first timed op would have started is reported.
* ``timed``: set up, then run whole passes over the op pool: at least
  ``MIN_PASSES``, and more while another pass fits in ``--seconds``.  No
  tracing.
* ``traced``: set up, then one pass in which each op runs twice, untraced and
  traced (alternating which goes first), so the counts are exact for a seed
  and the tracing overhead is measured on the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import rankgap

    if SRC not in Path(rankgap.__file__).resolve().parents:
        raise SystemExit(f"error: imported rankgap from {rankgap.__file__}, not from {SRC}")
    return rankgap


class SpeedProbe:
    """Times a fixed calibration kernel, fastest of five back-to-back runs.

    The kernel is a slice of the interpreter-bound small-array work rankgap
    does per user (argsort, threshold, tuple of ints), written without
    rankgap.  The host is shared and its speed swings by up to 2x, in phases
    from a second to minutes long; probing right before and right after an
    op gives the speed the op ran at, and run.py divides it out.
    """

    def __init__(self) -> None:
        self.rows = np.random.default_rng(0).random((64, 12))

    def _kernel(self) -> int:
        acc = 0
        for i in range(200):
            row = self.rows[i & 63]
            order = np.argsort(-row, kind="stable")
            acc += np.flatnonzero(row > row[order[0]] - 0.5).size
            acc += len(tuple(int(j) for j in order[:3]))
        return acc

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best


def execute(op, tracer=None, op_id: int = -1) -> tuple[float, str | None]:
    """Run one op (timed) and check its output (untimed); returns (seconds, failure)."""
    op.prepare()
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    result = failure = None
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        failure = f"{op.label}: raised {exc!r}"
    finally:
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
    if failure is None:
        try:
            op.check(result)
        except Exception as exc:  # CheckFailed, or output that does not even parse
            failure = f"{op.label}: {type(exc).__name__}: {exc}"
    return elapsed, failure


MIN_PASSES = 3


def timed_passes(ops, seconds: float, min_passes: int = MIN_PASSES, probe=None):
    """Whole passes over ``ops``.

    Returns (times[pass][op], probes[pass][op], failures), where a probe is
    the mean calibration time just before and just after the op (None
    without a probe).
    """
    times: list[list[float]] = []
    probes: list[list[float | None]] = []
    failures: list[str] = []
    spent = last = 0.0
    while len(times) < min_passes or spent + last <= seconds:
        times.append([])
        probes.append([])
        for op in ops:
            before = probe() if probe else None
            elapsed, failure = execute(op)
            probes[-1].append(0.5 * (before + probe()) if probe else None)
            times[-1].append(elapsed)
            if failure:
                failures.append(failure)
        last = sum(times[-1])
        spent += last
    return times, probes, failures


def traced_pass(ops, tracer) -> tuple[list[float], dict[int, float], list[str]]:
    untraced: list[float] = []
    traced: dict[int, float] = {}
    failures: list[str] = []
    for i, op in enumerate(ops):
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            elapsed, failure = execute(op, tracer if with_trace else None, i)
            if with_trace:
                traced[i] = elapsed
            else:
                untraced.append(elapsed)
            if failure:
                failures.append(failure)
    return untraced, traced, failures


def _numpy_config() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 only prints
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        return {"numpy": np.__version__, "show_config": buf.getvalue()}
    deps = config.get("Build Dependencies", {})
    return {"numpy": np.__version__, "blas": deps.get("blas"), "lapack": deps.get("lapack")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    # Set-up is probed at each of its stages, so run.py can rescale it too.
    probe = SpeedProbe()
    _import_program()
    import workloads

    setup_probes = [probe()]
    ops = workloads.build(args.workload, args.seed, args.work, tiny=args.tiny)
    setup_probes.append(probe())
    warm_up = min(ops, key=lambda op: op.cost_hint)
    _, warm_failure = execute(warm_up)
    setup_probes.append(probe())
    ready_at = time.monotonic()
    record: dict = {
        "ready_at": ready_at,
        "setup_probe": statistics.fmean(setup_probes),
        "ops_per_pass": len(ops),
    }
    failures = [f"warm-up {warm_failure}"] if warm_failure else []
    attempted = 1

    if args.mode == "timed":
        times, probes, timed_failures = timed_passes(ops, args.seconds, probe=probe)
        failures += timed_failures
        attempted += sum(len(t) for t in times)
        record.update(op_times=times, probe_times=probes, min_passes=MIN_PASSES)
    elif args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        untraced, traced, traced_failures = traced_pass(ops, tracer)
        failures += traced_failures
        attempted += len(untraced) + len(traced)
        layers = tracer.layer_metrics(traced)
        base = statistics.median(untraced)
        layers["trace.overhead_frac"] = statistics.median(traced.values()) / base - 1.0
        if args.spans is not None:
            tracer.write(args.spans)
        record.update(
            layer_metrics=layers,
            untraced_op_times=untraced,
            traced_op_times=[traced[i] for i in sorted(traced)],
            spans=len(tracer.span_name),
        )

    record.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_numpy_config(),
    )
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
