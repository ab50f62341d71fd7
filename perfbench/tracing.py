"""Spans and counters recorded from outside the program.

:class:`Tracer` wraps public functions of the pellip modules in every
module namespace that binds them (including names bound by
``from .x import y``), records a span per call (name, start, end,
parent span, job id and job class, plus process CPU time) and keeps the
spans in memory.  Self time is a span's duration minus the durations of
its child spans.

Work counters are computed at the layer boundary from arguments and
return values ("computed" counters: nothing inside the program counts
them).  Their own cost is recorded as a ``trace.counters`` child span,
so it is not charged to the layer that called the wrapped function.
``scipy.optimize.minimize`` is wrapped too, without a span: each call is
attributed to the module of the innermost open span as
``<module>.optimize.{calls,nfev,success}``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time

import numpy as np

# module -> public functions that get a span
TARGETS = {
    "cli": ["main", "load_spec", "emit_report"],
    "field": ["semigroup_apply", "discretize_operator", "heat_flow_experiment",
              "counterexample_section7", "identity_checks",
              "dissipativity_functional"],
    "bellman": ["convexity_verify", "hessian_q", "violation_search",
                "bellman_value"],
    "heatnorm": ["gaussian_oracle"],
    "ellipticity": ["accretivity_bounds", "delta_p", "mu", "script_w_p"],
    "realform": ["realify"],
}


def _count_cells(args, kwargs, result):
    """Cells and distinct cells of an ellipticity argument (a matrix, a
    stack of matrices or a field with ``mats``)."""
    mats = np.asarray(getattr(args[0], "mats", args[0]), dtype=complex)
    rows = np.ascontiguousarray(mats.reshape(-1, mats.shape[-1] * mats.shape[-2]))
    rows = rows.view(float)  # np.unique(axis=0) wants real rows
    return {"cells": rows.shape[0],
            "distinct_cells": np.unique(rows, axis=0).shape[0]}


def _count_operator(args, kwargs, result):
    """N, stored bytes, stored entries and nonzeros of the operator, for
    dense arrays and scipy.sparse matrices alike."""
    M = getattr(result, "matrix", result)
    if isinstance(M, np.ndarray):
        stored, nbytes = M.size, M.nbytes
        nnz = int(np.count_nonzero(M))
    else:  # scipy.sparse: data plus index arrays
        stored = int(M.nnz)
        nbytes = sum(getattr(M, a).nbytes for a in
                     ("data", "indices", "indptr", "row", "col", "offsets")
                     if hasattr(M, a))
        nnz = int(M.count_nonzero())
    return {"n": M.shape[0], "bytes": nbytes, "stored": stored, "nnz": nnz}


def _count_points(args, kwargs, result):
    return {"points": np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size}


COUNTERS = {
    "ellipticity.accretivity_bounds": _count_cells,
    "field.discretize_operator": _count_operator,
    "bellman.hessian_q": _count_points,
}


class Tracer:
    """In-memory span recorder; :meth:`install` patches, :meth:`uninstall`
    restores."""

    def __init__(self):
        self.spans = []          # (id, parent, name, t0, t1, cpu0, cpu1, job, cls)
        self.self_s = collections.defaultdict(float)
        self.cpu_s = collections.defaultdict(float)
        self.calls = collections.Counter()
        self.counts = collections.Counter()
        self._stack = []         # [id, name, t0, cpu0, child_seconds]
        self._next_id = 0
        self._patches = []
        self.job = (-1, "")

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(),
                            time.process_time(), 0.0])

    def _close(self):
        t1, c1 = time.perf_counter(), time.process_time()
        sid, name, t0, c0, child = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = t1 - t0
        if parent is not None:
            parent[4] += dur
        self.self_s[name] += dur - child
        self.cpu_s[name] += c1 - c0
        self.calls[name] += 1
        self.spans.append((sid, parent[0] if parent else 0, name, t0, t1,
                           c0, c1) + self.job)

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if counter is not None:
                tracer._open("trace.counters")
                try:
                    for key, val in counter(args, kwargs, result).items():
                        tracer.counts[f"{name}.{key}"] += val
                except (AttributeError, IndexError, TypeError, ValueError):
                    # a changed signature or return type loses the
                    # counter, never the job
                    tracer.counts["trace.counter_errors"] += 1
                finally:
                    tracer._close()
            return result
        return wrapper

    def _wrap_minimize(self, fn):
        tracer = self

        @functools.wraps(fn)
        def minimize(*args, **kwargs):
            res = fn(*args, **kwargs)
            layer = tracer._stack[-1][1].split(".")[0] if tracer._stack else "run"
            tracer.counts[f"{layer}.optimize.calls"] += 1
            tracer.counts[f"{layer}.optimize.nfev"] += int(res.nfev)
            tracer.counts[f"{layer}.optimize.success"] += bool(res.success)
            return res
        return minimize

    # -- patching --------------------------------------------------------

    def _patch(self, namespaces, orig, wrapper):
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is orig:
                    self._patches.append((ns, attr, orig))
                    setattr(ns, attr, wrapper)

    def install(self):
        import scipy.optimize
        modules = [importlib.import_module(f"pellip.{m}") for m in TARGETS]
        for mod_name, names in TARGETS.items():
            mod = importlib.import_module(f"pellip.{mod_name}")
            for fname in names:
                name = f"{mod_name}.{fname}"
                orig = getattr(mod, fname, None)
                if orig is None:  # removed from the program: reads as 0
                    continue
                self._patch(modules, orig,
                            self._wrap(name, orig, COUNTERS.get(name)))
        orig = scipy.optimize.minimize
        self._patch(modules + [scipy.optimize], orig, self._wrap_minimize(orig))

    def uninstall(self):
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "cpu_start", "cpu_end",
                "job", "cls")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, jobs: int, job_wall_s: float, *,
                  overhead_frac: float, os_threads: int,
                  report_bytes: int) -> dict:
    """Per-layer metrics of a traced phase of ``jobs`` jobs.

    Returns name -> (value, unit, better).  Times and counts are per
    traced job; ``.s`` is self time.  Layers that did not run read 0.
    """
    per = 1.0 / jobs
    c = tr.counts
    out = {}

    def span(name, *fields):
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = (tr.calls[name] * per, "count/job", "lower")
            elif f == "s":
                out[f"{name}.s"] = (tr.self_s[name] * per, "s/job", "lower")
            elif f == "cpu_s":
                out[f"{name}.cpu_s"] = (tr.cpu_s[name] * per, "s/job", "lower")
            else:
                out[f"{name}.{f}"] = (c[f"{name}.{f}"] * per, "count/job", "lower")

    def optimize(layer):
        calls = c[f"{layer}.optimize.calls"]
        out[f"{layer}.optimize.calls"] = (calls * per, "count/job", "lower")
        out[f"{layer}.optimize.nfev"] = (c[f"{layer}.optimize.nfev"] * per,
                                         "count/job", "lower")
        out[f"{layer}.optimize.success_frac"] = (
            _frac(c[f"{layer}.optimize.success"], calls), "frac", "higher")

    span("field.semigroup_apply", "calls", "s", "cpu_s")
    span("field.discretize_operator", "calls", "s")
    ops = tr.calls["field.discretize_operator"]
    out["field.discretize_operator.bytes"] = (
        _frac(c["field.discretize_operator.bytes"], ops), "bytes", "lower")
    out["field.discretize_operator.nnz_frac"] = (
        _frac(c["field.discretize_operator.nnz"], c["field.discretize_operator.stored"]),
        "frac", "higher")
    span("field.heat_flow_experiment", "s")
    span("field.counterexample_section7", "calls", "s")
    span("field.identity_checks", "s")
    span("field.dissipativity_functional", "s")
    span("bellman.convexity_verify", "calls", "s")
    span("bellman.hessian_q", "calls", "points", "s")
    span("bellman.violation_search", "s")
    span("bellman.bellman_value", "s")
    optimize("bellman")
    span("heatnorm.gaussian_oracle", "calls", "s")
    optimize("heatnorm")
    span("ellipticity.accretivity_bounds", "calls", "s", "cells", "distinct_cells")
    span("ellipticity.delta_p", "calls", "s")
    span("ellipticity.mu", "s")
    span("ellipticity.script_w_p", "s")
    optimize("ellipticity")
    span("cli.main", "s")
    span("cli.load_spec", "s")
    span("cli.emit_report", "s")
    out["cli.report_bytes"] = (report_bytes * per, "bytes/job", "lower")
    span("realform.realify", "calls", "s")
    span("trace.counters", "s")
    out["trace.overhead_frac"] = (overhead_frac, "frac", "lower")
    out["trace.accounted_frac"] = (_frac(sum(tr.self_s.values()), job_wall_s),
                                   "frac", "higher")
    out["os_threads"] = (os_threads, "count", "lower")
    return out
