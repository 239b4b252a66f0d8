"""Spans around the program's layer boundaries, for the traced run.

The tracer wraps the public functions of each layer at every module
binding the program calls them through (``fracperim.approx.perimeter``
as well as ``fracperim.functional.perimeter``), so nested calls get
their own spans.  No program file changes: the wrappers are installed
into the imported modules and removed again by ``uninstall``.

A span is (name, start, end, parent, job), kept in memory.  A layer's
self time is the time of its spans minus the time of their child spans,
so the self times of every span, the benchmark's own spans included, add
up to the wall time of the root span.

The tracing overhead is measured in process: the time of installing the
wrappers, the counters' hooks (each in a ``bench.trace`` span of its
own) and, for every wrapped call, the cost of a wrapped no-op over a
bare one, timed when the wrappers are installed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (defining module, attribute, span name); a dotted attribute is a method
TARGETS = (
    ("fracperim.kernel", "build_table", "kernel.build_table"),
    ("fracperim.grid", "signed_distance", "grid.signed_distance"),
    ("fracperim.grid", "CellSet.occupancy_on", "grid.occupancy"),
    ("fracperim.grid", "ScalarField.values_on", "grid.occupancy"),
    ("fracperim.functional", "perimeter", "functional.perimeter"),
    ("fracperim.functional", "interaction", "functional.interaction"),
    ("fracperim.functional", "relaxed_energy", "functional.relaxed_energy"),
    ("fracperim.functional", "decomposition_check", "functional.identity"),
    ("fracperim.functional", "coarea_check", "functional.identity"),
    ("fracperim.approx", "mollify", "approx.mollify"),
    ("fracperim.approx", "approximate_set", "approx.ladder"),
    ("fracperim.approx", "approximate_set_lipschitz", "approx.ladder"),
    ("fracperim.minimize", "solve_and_threshold", "minimize.solve"),
    ("fracperim.minimize", "solve_relaxed", "minimize.solve"),
    ("fracperim.minimize", "threshold_minimizer", "minimize.solve"),
    ("fracperim.minimize", "solve_locally_minimal", "minimize.solve"),
    ("fracperim.minimize", "brute_force_minimum", "minimize.oracle"),
    ("fracperim.minimize", "check_minimality_equivalence", "minimize.equivalence"),
    ("fracperim.cylinder", "nonlocal_divergence_scan", "cylinder.divergence_scan"),
    ("fracperim.cylinder", "sector_divergence_scan", "cylinder.divergence_scan"),
    ("fracperim.cylinder", "graph_area_asymptotics", "cylinder.graph_area"),
)

CLI_COMMANDS = ("compute", "strip_scan", "cylinder_scan", "davila_scan", "minimize")

# every per-layer metric: name -> unit
LAYER_METRICS = {
    "cli.import_s": "s",
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "kernel.build_table_s": "s",
    "kernel.first_build_s": "s",
    "kernel.build_table_calls": "count",
    "kernel.probe_builds": "count",
    "kernel.table_weights": "count",
    "grid.signed_distance_s": "s",
    "grid.signed_distance_calls": "count",
    "grid.signed_distance_cells": "count",
    "grid.occupancy_s": "s",
    "functional.perimeter_s": "s",
    "functional.perimeter_calls": "count",
    "functional.universe_cells": "count",
    "functional.relaxed_energy_s": "s",
    "functional.identity_s": "s",
    "functional.interaction_s": "s",
    "approx.mollify_s": "s",
    "approx.ladder_s": "s",
    "approx.perimeter_calls": "count",
    "minimize.solve_s": "s",
    "minimize.oracle_s": "s",
    "minimize.equivalence_s": "s",
    "minimize.solver_iterations": "count",
    "minimize.free_cells": "count",
    "cylinder.divergence_scan_s": "s",
    "cylinder.graph_area_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
}

# time metrics outside the partition of the root span's wall time: the
# wall time per command, the first table builds (part of build_table_s)
# and the root itself
INCLUSIVE = {*(f"cli.{c}_s" for c in CLI_COMMANDS), "kernel.first_build_s",
             "trace.wall_s"}

# spans whose self time is the CLI's own: the child process around a
# command (named after the command) and the click dispatch inside it
_CLI_SELF = {"cli.main", *(f"cli.{c}" for c in CLI_COMMANDS)}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._built: set = set()
        self.wrapped_calls = 0
        self.call_cost_s = 0.0  # of one wrapped call, beyond the call itself
        self.overhead_s = 0.0  # install, hooks, and work outside the spans

    # -- spans -------------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        t = time.monotonic() if start is None else start
        self.spans.append([name, t, t, parent, self.job])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        self.spans[idx][2] = time.monotonic() if end is None else end
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def graft(self, record: dict, parent: int) -> None:
        """Adopt the spans and counts a child process dumped, under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _ in record["spans"]:
            self.spans.append([name, start, end,
                               parent if par < 0 else base + par, self.job])
        self.counts.update(record["counts"])
        self.overhead_s += record["overhead_s"]

    def inside(self, idx: int, name: str) -> bool:
        """Whether span ``idx`` has an ancestor called ``name``."""
        p = self.spans[idx][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.wrapped_calls += 1
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                with tracer.span("bench.trace") as h:
                    hook(tracer, idx, args, kwargs, out)
                tracer.overhead_s += tracer.spans[h][2] - tracer.spans[h][1]
            return out

        return wrapper

    def _calibrate(self, n: int = 2000, repeats: int = 5) -> float:
        """Cost of one wrapped call beyond the call: a wrapped no-op against
        a bare one, the median of ``repeats`` batches of ``n``."""
        def noop():
            return None

        wrapped = Tracer()._wrap(noop, "calibrate")
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(n):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(n):
                noop()
            t2 = time.perf_counter()
            costs.append(((t1 - t0) - (t2 - t1)) / n)
        return max(statistics.median(costs), 0.0)

    def install(self) -> None:
        """Wrap every target at every fracperim module binding."""
        start = time.monotonic()
        self.call_cost_s = self._calibrate()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "fracperim" or n.startswith("fracperim.")) and m]
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(orig, name)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapper)
        self.overhead_s += time.monotonic() - start

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def overhead(self) -> float:
        """Seconds the tracing added: measured work plus wrapped calls."""
        return self.overhead_s + self.wrapped_calls * self.call_cost_s

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = Counter()
        for (name, start, end, _, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return dict(out)

    def layer_metrics(self, root: int) -> dict[str, float]:
        """Every per-layer metric; ``root`` spans the whole traced part."""
        values = {k: 0.0 for k in LAYER_METRICS}
        for name, t in self.self_times().items():
            if name in _CLI_SELF:
                values["cli.self_s"] += t
            elif name.startswith("bench."):
                values["bench.self_s"] += t
            else:
                values[f"{name}_s"] += t
        for name, start, end, _, _ in self.spans:
            if name in _CLI_SELF and name != "cli.main":
                values[f"{name}_s"] += end - start  # wall time per command
        for key, n in self.counts.items():
            values[key] += n
        _, start, end, _, _ = self.spans[root]
        values["trace.wall_s"] = end - start
        cost = self.overhead()
        values["trace.overhead_pct"] = 100.0 * cost / (end - start - cost)
        return {k: int(v) if LAYER_METRICS[k] == "count" else v
                for k, v in values.items()}

    def dump(self, path, extra_s: float = 0.0) -> None:
        """Write spans, counts and overhead; ``extra_s`` is overhead the
        caller measured outside the tracer (a launcher's own work)."""
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "overhead_s": self.overhead() + extra_s}, f)


def load(path) -> dict:
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Counters recorded at the same boundaries as the spans.
# ---------------------------------------------------------------------------


def _count_build(tracer: Tracer, idx: int, args, kwargs, table) -> None:
    tracer.counts["kernel.build_table_calls"] += 1
    tracer.counts["kernel.table_weights"] += int(table.weights.size)
    if table.max_offset == 1:
        tracer.counts["kernel.probe_builds"] += 1
    key = (table.params.dim, table.params.s, table.params.near_field_order)
    if table.params.dim > 1 and key not in tracer._built:
        tracer._built.add(key)
        _, start, end, _, _ = tracer.spans[idx]
        tracer.counts["kernel.first_build_s"] += end - start


def _count_signed_distance(tracer: Tracer, idx: int, args, kwargs, out) -> None:
    tracer.counts["grid.signed_distance_calls"] += 1
    tracer.counts["grid.signed_distance_cells"] += int(out.spec.n_cells)


def _count_perimeter(tracer: Tracer, idx: int, args, kwargs, out) -> None:
    from fracperim.functional import PairEngine

    bound = dict(zip(("E", "window", "table", "engine"), args), **kwargs)
    eng = bound.get("engine")
    if eng is None:
        window = bound["window"]
        eng = PairEngine(window.spec, window.complement_policy, bound["table"])
    tracer.counts["functional.perimeter_calls"] += 1
    tracer.counts["functional.universe_cells"] += int(eng.padded_spec.n_cells)
    if tracer.inside(idx, "approx.ladder"):
        tracer.counts["approx.perimeter_calls"] += 1


def _count_solve(tracer: Tracer, idx: int, args, kwargs, out) -> None:
    # solve_and_threshold, solve_relaxed and threshold_minimizer share the
    # span name; only solve_and_threshold maps a problem to a report
    problem = args[0] if args else kwargs.get("p")
    if hasattr(out, "iterations") and hasattr(problem, "n_free"):
        tracer.counts["minimize.solver_iterations"] += int(out.iterations)
        tracer.counts["minimize.free_cells"] += int(problem.n_free)


_HOOKS = {
    "kernel.build_table": _count_build,
    "grid.signed_distance": _count_signed_distance,
    "functional.perimeter": _count_perimeter,
    "minimize.solve": _count_solve,
}
