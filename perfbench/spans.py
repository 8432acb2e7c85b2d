"""Span recording around nleig's layer boundaries, and the per-layer metrics
computed from the recorded spans.

Recording runs inside the CLI process (see launch.py).  The program is not
modified: each wrapped function is replaced by a recording wrapper in every
nleig module namespace that binds it, because modules import each other's
functions with ``from .x import name`` and patching only the defining module
would miss those calls.  Methods are wrapped once on their class.

A span is (id, parent, thread, name, start_ns, end_ns, size).  Each thread
keeps its own stack of open spans; work submitted to the solver's thread
pool takes the submitting thread's open span as its parent.  ``size`` is a
per-layer quantity: points per convolution, iterations per solve, bytes per
CSV file, workers per sweep.
"""

from __future__ import annotations

import csv
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

SPAN_FIELDS = ("id", "parent", "thread", "name", "start_ns", "end_ns", "size")


def _sweep_workers(args, kwargs) -> int:
    # sweep_K runs sequentially under warm_start; otherwise one worker per K
    # value, up to max_workers
    if kwargs.get("warm_start"):
        return 1
    return min(int(kwargs.get("max_workers", 1)), len(args[0]))


# (span name, module, attribute, size of the call or None).  Each size
# function receives (args, kwargs, result).
FUNCTION_LAYERS = (
    ("cli.main", "nleig.cli", "main", None),
    ("cli.gate", "nleig.cli", "validate_kernel", None),
    ("cli.emit_plot_data", "nleig.cli", "emit_plot_data", None),
    ("solver.solve", "nleig.solver", "solve", lambda a, k, r: r.iterations),
    ("solver.sweep_K", "nleig.solver", "sweep_K", lambda a, k, r: _sweep_workers(a, k)),
    ("solver.save_solution", "nleig.solver", "save_solution", None),
    ("asymptotics.kdv_experiment", "nleig.asymptotics", "kdv_experiment", None),
    ("asymptotics.high_energy_experiment", "nleig.asymptotics",
     "high_energy_experiment", None),
    ("asymptotics.decay_report", "nleig.asymptotics", "decay_report", None),
    ("grid.inner_product", "nleig.grid", "inner_product", None),
    ("grid.cone_check", "nleig.grid", "cone_check", None),
    ("grid.write_profile_csv", "nleig.grid", "write_profile_csv",
     lambda a, k, r: os.path.getsize(k["path"] if "path" in k else a[1])),
    ("functionals.eval_K", "nleig.functionals", "eval_K", None),
)

METHOD_LAYERS = (
    ("kernels.convolve", "nleig.kernels", "Kernel", "convolve",
     lambda a, k, r: a[1].grid.point_count),
    ("kernels.build", "nleig.kernels", "KernelSpec", "build", None),
    ("nonlinearity.f", "nleig.nonlinearity", "Nonlinearity", "f", None),
    ("nonlinearity.F", "nleig.nonlinearity", "Nonlinearity", "F", None),
    ("grid.profile", "nleig.grid", "Profile", "__post_init__", None),
)

LAYER_NAMES = frozenset(
    [layer[0] for layer in FUNCTION_LAYERS] + [layer[0] for layer in METHOD_LAYERS]
)

SLOW_CALL_NS = 1_000_000  # an inner product slower than 1 ms is a stall


class Recorder:
    """Holds the spans of one process in memory until they are written."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    def wrap(self, name, fn, size_of=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter_ns, threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            size = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if size_of is not None:
                    size = size_of(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, ident(), name, start, end, size))

        traced.__wrapped__ = fn
        return traced

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's span."""
        recorder = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = recorder.current()

                def run_under_parent():
                    stack = recorder._stack()
                    saved = stack[:]
                    stack[:] = [parent]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        stack[:] = saved

                return super().submit(run_under_parent)

        return TracedPool

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SPAN_FIELDS)
            writer.writerows(sorted(self.spans))


def span_cost_ns(calls: int = 20000) -> float:
    """Measured cost of recording one span: a wrapped no-op against a bare one."""
    def noop():
        return None

    wrapped = Recorder().wrap("calibration", noop)
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock()
    for _ in range(calls):
        wrapped()
    end = clock()
    return ((end - bare) - (bare - start)) / calls


def rebind(original, replacement) -> None:
    """Replace every binding of ``original`` in the loaded nleig modules."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "nleig" or mod_name.startswith("nleig.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary of the loaded nleig package."""
    for name, mod_name, attr, size_of in FUNCTION_LAYERS:
        original = getattr(sys.modules[mod_name], attr)
        rebind(original, recorder.wrap(name, original, size_of))
    for name, mod_name, cls_name, attr, size_of in METHOD_LAYERS:
        cls = getattr(sys.modules[mod_name], cls_name)
        setattr(cls, attr, recorder.wrap(name, cls.__dict__[attr], size_of))
    solver = sys.modules["nleig.solver"]
    solver.ThreadPoolExecutor = recorder.pool_class()


# --------------------------------------------------------------------------
# analysis (runs in the benchmark process, on a written span file)


def read_spans(path) -> list[tuple]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != SPAN_FIELDS:
            raise ValueError(f"unexpected span file header {header!r}")
        return [
            (int(r[0]), int(r[1]), int(r[2]), r[3], int(r[4]), int(r[5]), int(r[6]))
            for r in reader
        ]


def _covered_ns(start: int, end: int, children) -> int:
    """Length of [start, end] covered by the union of the child intervals."""
    covered = 0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return covered


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced process: {metric: value}."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
        if span[1]:
            children[span[1]].append((span[4], span[5]))

    def calls(name):
        return len(by_name[name])

    def seconds(name):
        return sum(s[5] - s[4] for s in by_name[name]) / 1e9

    def self_seconds(name):
        total = 0
        for s in by_name[name]:
            total += (s[5] - s[4]) - _covered_ns(s[4], s[5], children[s[0]])
        return total / 1e9

    def size(name):
        return sum(s[6] for s in by_name[name])

    m = {}
    for name in ("kernels.convolve", "nonlinearity.f", "nonlinearity.F",
                 "solver.solve", "grid.profile", "grid.inner_product",
                 "grid.cone_check", "functionals.eval_K",
                 "grid.write_profile_csv", "kernels.build"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = seconds(name)
    points = size("kernels.convolve")
    m["kernels.convolve.ns_per_point"] = (
        seconds("kernels.convolve") * 1e9 / points if points else 0.0
    )
    m["solver.solve.self_s"] = self_seconds("solver.solve")
    iterations = size("solver.solve")
    m["solver.us_per_iter"] = (
        seconds("solver.solve") * 1e6 / iterations if iterations else 0.0
    )
    m["grid.inner_product.slow_calls"] = sum(
        1 for s in by_name["grid.inner_product"] if s[5] - s[4] > SLOW_CALL_NS
    )
    m["grid.write_profile_csv.bytes"] = size("grid.write_profile_csv")
    for name in ("solver.save_solution", "cli.emit_plot_data", "cli.gate",
                 "solver.sweep_K", "asymptotics.kdv_experiment",
                 "asymptotics.high_energy_experiment", "asymptotics.decay_report"):
        m[f"{name}.s"] = seconds(name)
    m["cli.main.self_s"] = self_seconds("cli.main")

    busy = span_ns = 0
    for sweep in by_name["solver.sweep_K"]:
        solves = [s for s in by_name["solver.solve"] if s[1] == sweep[0]]
        busy += sum(s[5] - s[4] for s in solves)
        span_ns += (sweep[5] - sweep[4]) * max(sweep[6], 1)
    m["solver.sweep_K.parallel_eff"] = busy / span_ns if span_ns else 0.0
    return m
