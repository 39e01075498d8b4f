"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` replaces functions and methods of ``qpanet`` with
timing wrappers, at the names their callers look up: a module attribute
that another module reads through ``module.name`` or through its own
globals, or a class attribute.  The sources are not edited.  A hook whose
target is missing is recorded as absent, and every metric that needs it
is then reported as absent rather than as a number.

Each wrapped call records a span: name, start, end, parent span,
operation id and thread.  A span opened on a pool thread with nothing
open on that thread takes as parent the innermost span open on the
thread that installed the tracer, which is the one waiting on the pool.
Spans are kept in memory and written out by ``write``.

Self time is a span's duration minus the union of its children's
intervals.  A layer's ``busy_s`` is the sum of its spans' self time,
divided by the number of operations traced.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

import numpy as np


def _size_of_arg0(args, kwargs, out):
    return int(np.size(args[0]))


def _rows_of_arg0(args, kwargs, out):
    return int(args[0].shape[0])


def _rows_of_result(args, kwargs, out):
    return int(out.probs.shape[0])


def _edges_of_arg1(args, kwargs, out):
    return int(len(args[1]))


def _theta_max_of_arg0(args, kwargs, out):
    return int(args[0].quality.theta_max)


def _advance_cells(args, kwargs, out):
    # both j-sum tables are advanced over every (pair, ell) cell
    march = args[0]
    return 2 * int(march.n_pairs) * int(march.n_ell)


def _level_cells(args, kwargs, out):
    march = args[0]
    return int(march.n_pairs) * int(march.n_ell)


# (span name, module, attribute path, counter)
HOOKS = [
    ("numerics.ln_gamma", "qpanet._engine", "_ln_gamma_raw", _size_of_arg0),
    ("numerics.ln_gamma", "qpanet.analytic", "_ln_gamma_raw", _size_of_arg0),
    ("numerics.ln_gamma", "qpanet.numerics", "_ln_gamma_raw", _size_of_arg0),
    ("numerics.adaptive_series", "qpanet.analytic", "adaptive_series", None),
    ("quality.sample_quality", "qpanet.simulate", "sample_quality", None),
    ("analytic.build_joint_table", "qpanet.analytic", "build_joint_table", _rows_of_result),
    ("analytic.joint_cache", "qpanet.analytic", "_cached_joint", None),
    ("analytic.degree_profile", "qpanet.analytic", "DegreeProfile.add_level", None),
    ("analytic.degree_profile", "qpanet.analytic", "DegreeProfile._degree_row", None),
    ("analytic.quality_aggregate", "qpanet.analytic", "QualityAggregate.__init__", None),
    ("analytic.quality_aggregate", "qpanet.analytic", "QualityAggregate.dist", None),
    ("analytic.quality_aggregate", "qpanet.analytic", "quality_q_level", None),
    ("analytic.nn_probability", "qpanet.analytic", "nn_probability", None),
    ("analytic.neighbor_degree_dist", "qpanet.analytic", "neighbor_degree_dist", None),
    ("analytic.neighbor_quality_dist", "qpanet.analytic", "neighbor_quality_dist", None),
    ("analytic.write_nn_table", "qpanet.analytic", "write_nn_table", None),
    ("engine.march_init", "qpanet._engine", "NeighborMarch.__init__", None),
    ("engine.advance", "qpanet._engine", "NeighborMarch.advance", _advance_cells),
    ("engine.level", "qpanet._engine", "NeighborMarch._make_level", _level_cells),
    ("engine.power_tail_fit", "qpanet._engine", "power_tail_fit", _rows_of_arg0),
    ("engine.power_tail_fit", "qpanet.analytic", "power_tail_fit", _rows_of_arg0),
    ("measures.critical_values", "qpanet.measures", "critical_values", _theta_max_of_arg0),
    ("measures.run_paradox_march", "qpanet.measures", "_run_paradox_march", None),
    ("measures.sweep", "qpanet.measures", "sweep", None),
    ("measures.sweep_point", "qpanet.measures", "_sweep_point", None),
    ("simulate.grow", "qpanet.simulate", "grow_qpa", None),
    ("simulate.csr", "qpanet.simulate", "_csr_from_edges", _edges_of_arg1),
    ("simulate.report", "qpanet.simulate", "empirical_report", None),
    ("simulate.neighbor_stats", "qpanet.simulate", "_neighbor_stats", None),
    ("simulate.joint_histogram", "qpanet.simulate", "joint_histogram", None),
    ("cli.main", "qpanet.cli", "main", None),
]

# bytes each cell touches, counted from array sizes (8-byte floats), not
# measured: advance reads and writes its running value; level assembly
# reads both tables' values and writes the log prefactor and probability
ADVANCE_BYTES_PER_CELL = 16
LEVEL_BYTES_PER_CELL = 32


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "thread", "count")

    def __init__(self, sid, name, start, end, parent, op, thread, count):
        self.sid, self.name, self.start, self.end = sid, name, start, end
        self.parent, self.op, self.thread, self.count = parent, op, thread, count


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.op = None
        self.absent: set[str] = set()
        self.count_failed: set[str] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            count = None
            if counter is not None:
                try:
                    count = counter(args, kwargs, out)
                except (AttributeError, TypeError, IndexError):
                    self.count_failed.add(name)
            self.spans.append(
                Span(sid, name, start, end, parent, self.op, threading.get_ident(), count)
            )
            return out

        return wrapper

    def install(self) -> None:
        for name, module_name, path, counter in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            setattr(owner, attr, self.wrap(name, target, counter))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op", "thread", "count"],
                    "absent_hooks": sorted(self.absent),
                    "spans": [
                        [s.sid, s.name, s.start, s.end, s.parent, s.op, s.thread, s.count]
                        for s in self.spans
                    ],
                },
                fh,
            )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


# per-layer metric -> span names it needs
BUSY = {
    "numerics.ln_gamma.busy_s": "numerics.ln_gamma",
    "numerics.adaptive_series.busy_s": "numerics.adaptive_series",
    "quality.sample_quality.busy_s": "quality.sample_quality",
    "analytic.build_joint_table.busy_s": "analytic.build_joint_table",
    "analytic.degree_profile.busy_s": "analytic.degree_profile",
    "analytic.quality_aggregate.busy_s": "analytic.quality_aggregate",
    "engine.march_init.busy_s": "engine.march_init",
    "engine.advance.busy_s": "engine.advance",
    "engine.level.busy_s": "engine.level",
    "engine.power_tail_fit.busy_s": "engine.power_tail_fit",
    "simulate.grow.busy_s": "simulate.grow",
    "simulate.csr.busy_s": "simulate.csr",
    "simulate.report.busy_s": "simulate.report",
    "simulate.neighbor_stats.busy_s": "simulate.neighbor_stats",
    "simulate.joint_histogram.busy_s": "simulate.joint_histogram",
}
COUNT = {
    "numerics.ln_gamma.elements": "numerics.ln_gamma",
    "analytic.build_joint_table.rows": "analytic.build_joint_table",
    "engine.advance.cells": "engine.advance",
    "engine.level.cells": "engine.level",
    "engine.power_tail_fit.rows": "engine.power_tail_fit",
}
CALLS = {
    "engine.march_init.calls": "engine.march_init",
    "engine.advance.levels": "engine.advance",
}
P50 = {
    "analytic.neighbor_degree_dist.s_p50": "analytic.neighbor_degree_dist",
    "analytic.neighbor_quality_dist.s_p50": "analytic.neighbor_quality_dist",
    "analytic.write_nn_table.s_p50": "analytic.write_nn_table",
    "analytic.nn_probability.s_p50": "analytic.nn_probability",
}
CRITICAL_THETA_MAXES = (4, 16, 24)


def layer_metrics(tracer: Tracer, ops: int, extra: dict) -> dict:
    """Per-layer metrics, each ``{"value": v, "unit": u}``.

    ``ops`` is the number of operations traced (grid points, queries,
    replicas or files); per-op metrics divide by it.  ``extra`` carries
    metrics measured outside the spans, such as the thread speed-up.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    ops = max(ops, 1)
    out: dict = {}

    def put(metric, value, unit, needs):
        if any(n in tracer.absent or n in tracer.count_failed for n in needs):
            out[metric] = {"value": None, "unit": unit, "absent": True}
        else:
            out[metric] = {"value": value, "unit": unit}

    def busy(name):
        return sum(own[s.sid] for s in by_name[name])

    def counted(name):
        return sum(s.count or 0 for s in by_name[name])

    def p50(durations):
        return statistics.median(durations) if durations else 0.0

    for metric, name in BUSY.items():
        put(metric, busy(name) / ops, "s/op", [name])
    for metric, name in COUNT.items():
        put(metric, counted(name) / ops, "count/op", [name])
    for metric, name in CALLS.items():
        put(metric, len(by_name[name]) / ops, "count/op", [name])
    for metric, name in P50.items():
        put(metric, p50([s.end - s.start for s in by_name[name]]), "s", [name])

    lookups = by_name["analytic.joint_cache"]
    builds_under = {s.parent for s in by_name["analytic.build_joint_table"]}
    hits = sum(1 for s in lookups if s.sid not in builds_under)
    put(
        "analytic.joint_cache.hit_ratio",
        hits / len(lookups) if lookups else 0.0,
        "ratio",
        ["analytic.joint_cache", "analytic.build_joint_table"],
    )

    adv_cells = counted("engine.advance")
    put(
        "engine.advance.ns_per_cell",
        busy("engine.advance") / adv_cells * 1e9 if adv_cells else 0.0,
        "ns",
        ["engine.advance"],
    )
    put(
        "engine.bytes_computed",
        (ADVANCE_BYTES_PER_CELL * adv_cells + LEVEL_BYTES_PER_CELL * counted("engine.level"))
        / ops,
        "bytes/op",
        ["engine.advance", "engine.level"],
    )

    crit = by_name["measures.critical_values"]
    for tm in CRITICAL_THETA_MAXES:
        put(
            f"measures.critical_values.s_p50.tm{tm}",
            p50([s.end - s.start for s in crit if s.count == tm]),
            "s",
            ["measures.critical_values"],
        )
    runs = by_name["measures.run_paradox_march"]
    put(
        "measures.march_runs_per_call",
        len(runs) / len(crit) if crit else 0.0,
        "ratio",
        ["measures.critical_values", "measures.run_paradox_march"],
    )
    parent_of = {s.sid: s.parent for s in spans}
    run_ids = {s.sid for s in runs}

    def under_run(sid):
        while sid is not None:
            if sid in run_ids:
                return True
            sid = parent_of.get(sid)
        return False

    levels = sum(1 for s in by_name["engine.level"] if under_run(s.parent))
    put(
        "measures.march_levels_per_call",
        levels / len(crit) if crit else 0.0,
        "count",
        ["measures.critical_values", "measures.run_paradox_march", "engine.level"],
    )

    edges = counted("simulate.csr")
    put(
        "simulate.csr.ns_per_edge",
        busy("simulate.csr") / edges * 1e9 if edges else 0.0,
        "ns",
        ["simulate.csr"],
    )
    commands = by_name["cli.main"]
    put(
        "cli.sweep.overhead_s",
        busy("cli.main") / len(commands) if commands else 0.0,
        "s",
        ["cli.main", "measures.sweep"],
    )
    for metric, (value, unit) in extra.items():
        out[metric] = {"value": value, "unit": unit}
    return out
