"""Span tracing of rankgap from outside the package.

Every public function (``__all__``) of each rankgap layer module is wrapped,
and the wrapper is rebound in every rankgap module that holds the original,
so calls inside a module (``numeric_rank_of`` -> ``singular_values_of``) and
calls from ``cli`` are caught too.  Nothing under ``src/`` changes.

A span is (name, parent span, op id, start, end, self time, error flag, size).
Spans live in typed arrays in memory and are written out once, at the end of
the run.  Self time is the span's duration minus the durations of its direct
children, computed as each span closes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "matrix",
    "learner",
    "collective",
    "popgap",
    "completion",
    "generators",
    "reports",
    "cli",
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# Work sizes recorded on a span, for the layer metrics that need them.
SIZERS = {
    "matrix.spectral": lambda a, k, r: 8.0 * _first_arg(a, k, "R").entries.size,
    "matrix.singular_values_of": lambda a, k, r: 8.0 * np.asarray(_first_arg(a, k, "a")).size,
    "learner.recommend": lambda a, k, r: float(_first_arg(a, k, "R_hat").rows),
    "reports.canonical_json_bytes": lambda a, k, r: float(len(r)),
    "reports.per_user_csv_bytes": lambda a, k, r: float(len(r)),
}


class Tracer:
    """Wraps rankgap's public functions; ``install`` and ``remove`` swap them in and out."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_error = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.span_size = array("d")
        self.op_id = -1
        self._stack: list[list] = []  # [span index, child time]
        self._wrappers: dict = {}  # original function -> wrapper
        self._bindings: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = importlib.import_module(f"rankgap.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    qualname = f"{layer}.{attr}"
                    self._wrappers[fn] = self._wrap(qualname, fn, SIZERS.get(qualname))
        for name, module in list(sys.modules.items()):
            if name == "rankgap" or name.startswith("rankgap."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in self._wrappers:
                        self._bindings.append((module, attr, value))

    def _intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, qualname: str, fn, sizer):
        name_id = self._intern(qualname)
        stack = self._stack
        t = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(t.span_name)
            t.span_name.append(name_id)
            t.span_parent.append(stack[-1][0] if stack else -1)
            t.span_op.append(t.op_id)
            t.span_error.append(0)
            t.span_end.append(0.0)
            t.span_self.append(0.0)
            t.span_size.append(0.0)
            t.span_start.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = t.span_start[index] = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                t.span_error[index] = 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                t.span_end[index] = end
                t.span_self[index] = duration - frame[1]
                if sizer is not None and not t.span_error[index]:
                    t.span_size[index] = sizer(args, kwargs, result)

        return traced

    def install(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, self._wrappers[original])

    def remove(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """All spans, one array per field, plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            error=np.frombuffer(self.span_error, dtype=np.int8),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            self_time=np.frombuffer(self.span_self, dtype=np.float64),
            size=np.frombuffer(self.span_size, dtype=np.float64),
        )

    def layer_metrics(self, op_times: dict[int, float]) -> dict[str, float]:
        """Roll spans up into the per-layer metrics, given each traced op's wall time.

        Counts are means per op (exact for a fixed set of ops).  Times are
        medians, over the ops that made at least one such call, of the
        per-op total; a share is a layer's self time over its op's time.
        """
        ops = sorted(op_times)
        n_ops = len(ops)
        span_op = np.frombuffer(self.span_op, dtype=np.int32)
        lookup = np.full(max(ops + [int(span_op.max(initial=0))]) + 2, -1)
        lookup[ops] = np.arange(n_ops)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        op_index = lookup[span_op]
        keep = op_index >= 0
        name, op_index = name[keep], op_index[keep]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[keep]
        error = np.frombuffer(self.span_error, dtype=np.int8)[keep].astype(float)
        self_time = np.frombuffer(self.span_self, dtype=np.float64)[keep]
        size = np.frombuffer(self.span_size, dtype=np.float64)[keep]
        all_names = np.frombuffer(self.span_name, dtype=np.int32)
        op_wall = np.array([op_times[o] for o in ops])

        def per_op(mask: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
            w = None if weights is None else weights[mask]
            return np.bincount(op_index[mask], weights=w, minlength=n_ops)

        def ids(*names: str) -> list[int]:
            return [self.name_ids[n] for n in names if n in self.name_ids]

        def named(*names: str) -> np.ndarray:
            return np.isin(name, ids(*names))

        def median_over_callers(mask: np.ndarray, values: np.ndarray) -> float:
            called = per_op(mask) > 0
            return float(statistics.median(values[called])) if called.any() else 0.0

        out: dict[str, float] = {}
        layer_of = np.array([n.split(".", 1)[0] for n in self.names])
        for layer in LAYERS:
            mask = np.isin(name, np.flatnonzero(layer_of == layer))
            self_s = per_op(mask, self_time)
            out[f"{layer}.calls"] = mask.sum() / n_ops
            out[f"{layer}.self_s"] = median_over_callers(mask, self_s)
            out[f"{layer}.share"] = median_over_callers(mask, self_s / op_wall)
            out[f"{layer}.errors"] = float(error[mask].sum()) / n_ops

        def self_of(qualname: str) -> float:
            mask = named(qualname)
            return median_over_callers(mask, per_op(mask, self_time))

        def calls_of(qualname: str) -> float:
            return float(named(qualname).sum()) / n_ops

        svd = named("matrix.spectral", "matrix.singular_values_of")
        fits = float(named("learner.fit_learner").sum())
        out["matrix.svd_calls"] = svd.sum() / n_ops
        out["matrix.svd_calls_per_fit"] = float(svd.sum()) / fits if fits else 0.0
        out["matrix.svd_bytes"] = float(size[svd].sum()) / n_ops
        out["matrix.spectral.self_s"] = self_of("matrix.spectral")
        out["matrix.load_ratings_csv.self_s"] = self_of("matrix.load_ratings_csv")

        rec = named("learner.recommend")
        rec_self, rec_rows = per_op(rec, self_time), per_op(rec, size)
        out["learner.recommend.self_s"] = median_over_callers(rec, rec_self)
        out["learner.recommend.us_per_row"] = median_over_callers(
            rec, 1e6 * rec_self / np.maximum(rec_rows, 1.0)
        )
        out["learner.fit_learner.self_s"] = self_of("learner.fit_learner")
        out["learner.social_welfare.self_s"] = self_of("learner.social_welfare")

        out["collective.find_eta.calls"] = calls_of("collective.find_eta")
        out["collective.check_sufficient_conditions.calls"] = calls_of(
            "collective.check_sufficient_conditions"
        )
        grid_ids = ids("collective.grid_feasible_eta")
        in_grid = named("collective.check_sufficient_conditions") & np.isin(
            np.where(parent >= 0, all_names[np.maximum(parent, 0)], -1), grid_ids
        )
        grids = float(named("collective.grid_feasible_eta").sum())
        out["collective.grid_points_per_infeasible"] = float(in_grid.sum()) / grids if grids else 0.0
        out["collective.grid_feasible_eta.self_s"] = self_of("collective.grid_feasible_eta")

        out["popgap.classify_users.calls"] = calls_of("popgap.classify_users")
        for fn in ("classify_users", "class_membership", "check_general_sufficiency"):
            out[f"popgap.{fn}.self_s"] = self_of(f"popgap.{fn}")
        for fn in ("general_strategy_instance", "stratified_collective"):
            out[f"generators.{fn}.self_s"] = self_of(f"generators.{fn}")
        out["completion.miss_probability_mc.self_s"] = self_of("completion.miss_probability_mc")
        out["reports.canonical_json_bytes.self_s"] = self_of("reports.canonical_json_bytes")
        out["reports.per_user_csv_bytes.self_s"] = self_of("reports.per_user_csv_bytes")
        emitted = named("reports.canonical_json_bytes", "reports.per_user_csv_bytes")
        out["reports.bytes_out"] = float(size[emitted].sum()) / n_ops
        out["cli.run.self_s"] = self_of("cli.run")
        out["cli.sweep.self_s"] = self_of("cli.sweep")
        return {k: float(v) for k, v in out.items()}
