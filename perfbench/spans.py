"""In-memory spans around herdcluster's public functions.

`Tracer.install` replaces every public function of every `herdcluster.*`
module, at every module attribute that points to it, with a wrapper that
records a span: name, start, end, parent span and op id.  That covers
the names `pipeline` and `cli` import (`kmeans_fit`, `elbow_scan`, ...)
and the module-global calls inside a layer (`elbow_scan` ->
`kmeans_fit`, `tukey_hsd` -> `studentized_range_cdf`).  A few boundaries
also record a count (cells parsed, correlation pairs, the identity of a
k-means fit, SVG bytes).  `per_layer` turns the spans into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _cells(args, kwargs, table):
    supplied = sum(1 for p in table.provenance.values() if p == "supplied")
    return {"cells": table.n_animals * supplied}


def _pairs(args, kwargs, corr):
    d = len(corr.keys)
    return {"pairs": d * (d - 1) // 2}


def _fit_key(args, kwargs, model):
    z, cfg = args[0], args[1] if len(args) > 1 else kwargs["cfg"]
    points = np.ascontiguousarray(getattr(z, "z", z), dtype=float)
    digest = hashlib.sha1(points.tobytes()).hexdigest()
    return {"fit": (digest, cfg.k, cfg.seed, cfg.n_restarts, cfg.max_iter, cfg.tol, cfg.init)}


def _svg_bytes(args, kwargs, _):
    return {"bytes": os.path.getsize(kwargs.get("path", args[-1]))}


_COUNTERS = {
    "dataset.load_table": _cells,
    "stats.correlation_matrix": _pairs,
    "clustering.kmeans_fit": _fit_key,
    "charts.emit_elbow_svg": _svg_bytes,
    "charts.emit_scatter_svg": _svg_bytes,
    "charts.emit_boxplot_svg": _svg_bytes,
}


class Tracer:
    """Records spans while installed; `op` tags the spans of the op that
    is running."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.counts: dict[int, dict] = {}
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name.split(".")[0] != "herdcluster" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if not value.__module__.startswith("herdcluster."):
                    continue
                if id(value) not in wrappers:
                    name = f"{value.__module__.rsplit('.', 1)[-1]}.{value.__name__}"
                    wrappers[id(value)] = self._wrap(name, value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counts[index] = counter(args, kwargs, result)
            return result

        return traced

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans,
                       "counts": {str(i): c for i, c in self.counts.items()}}, fh)


def _mean(xs) -> float:
    return float(np.mean(xs))


def per_layer(tracer: Tracer, op_ids: list[str], probe_ids: list[str],
              checker, restart_fits: list[tuple[float, int, int]],
              assign_seconds: list[float], overhead_ms: float) -> tuple[dict, dict]:
    """The per-layer metrics of a traced run, and where each came from.

    A function's metrics come from the spans of the workload's own ops;
    when those ops never call it, from the probe ops instead.
    `restart_fits` holds (seconds, iterations, max_iter) of single-restart
    fits and `assign_seconds` the times of full-size `assign` passes."""
    own = tracer.self_seconds()
    by_name: dict[tuple[str, bool], list[int]] = defaultdict(list)
    op_set, probe_set = set(op_ids), set(probe_ids)
    for i, s in enumerate(tracer.spans):
        if s[4] in op_set:
            by_name[(s[0], False)].append(i)
        elif s[4] in probe_set:
            by_name[(s[0], True)].append(i)

    metrics, source = {}, {}

    def spans_of(*names):
        """Spans of the named functions: from the ops if any op called
        one of them, else from the probes; plus how many ops made them."""
        idx = [i for n in names for i in by_name[(n, False)]]
        origin = "ops" if idx else "probe"
        idx = idx or [i for n in names for i in by_name[(n, True)]]
        return idx, len({tracer.spans[i][4] for i in idx}), origin

    def put(metric, value, origin, unit):
        metrics[metric] = {"value": float(value), "unit": unit}
        source[metric] = origin

    def checked(by_op):
        """Values the checker found on the ops' outputs, else on the probes'."""
        values = [v for op in op_ids for v in by_op.get(op, ())]
        if values:
            return values, "ops"
        return [v for op in probe_ids for v in by_op.get(op, ())], "probe"

    def duration(i):
        return tracer.spans[i][2] - tracer.spans[i][1]

    def per_call_ms(metric, *names):
        idx, _, origin = spans_of(*names)
        put(metric, 1e3 * _mean([duration(i) for i in idx]), origin, "ms")

    per_call_ms("dataset.load_table_ms", "dataset.load_table")
    idx, _, origin = spans_of("dataset.load_table")
    put("dataset.cells_per_s", sum(tracer.counts[i]["cells"] for i in idx)
        / sum(duration(i) for i in idx), origin, "1/s")
    per_call_ms("dataset.describe_all_ms", "dataset.describe_all")

    per_call_ms("stats.correlation_matrix_ms", "stats.correlation_matrix")
    idx, _, origin = spans_of("stats.correlation_matrix")
    put("stats.corr_pairs_per_s", sum(tracer.counts[i]["pairs"] for i in idx)
        / sum(duration(i) for i in idx), origin, "1/s")
    per_call_ms("stats.zscore_ms", "stats.zscore")

    per_call_ms("clustering.elbow_scan_ms", "clustering.elbow_scan")
    per_call_ms("clustering.kmeans_fit_ms", "clustering.kmeans_fit")
    idx, n_ops, origin = spans_of("clustering.kmeans_fit")
    put("clustering.kmeans_fit_calls", len(idx) / n_ops, origin, "count")
    fits_by_op = defaultdict(list)
    for i in idx:
        fits_by_op[tracer.spans[i][4]].append(tracer.counts[i]["fit"])
    distinct = sum(len(set(fits)) for fits in fits_by_op.values())
    put("clustering.fit_reuse_ratio", distinct / len(idx), origin, "ratio")
    seconds, iters, caps = zip(*restart_fits)
    put("clustering.iters_per_restart", _mean(iters), "probe", "count")
    put("clustering.ms_per_iter", 1e3 * sum(seconds) / sum(iters), "probe", "ms")
    put("clustering.capped_restart_frac",
        sum(1 for it, cap in zip(iters, caps) if it >= cap) / len(iters), "probe", "ratio")
    put("clustering.assign_ms", 1e3 * _mean(assign_seconds), "probe", "ms")

    per_call_ms("inference.tukey_hsd_ms", "inference.tukey_hsd")
    per_call_ms("inference.one_way_anova_ms", "inference.one_way_anova")
    idx, n_ops, origin = spans_of("inference.studentized_range_cdf")
    put("inference.srange_cdf_calls", len(idx) / n_ops, origin, "count")
    put("inference.srange_cdf_us", 1e6 * _mean([duration(i) for i in idx]), origin, "us")
    idx, _, origin = spans_of("inference.f_cdf")
    put("inference.f_cdf_us", 1e6 * _mean([duration(i) for i in idx]), origin, "us")
    for metric, unit, errors in (("inference.p_abs_err_max", "prob", checker.p_abs_err),
                                 ("inference.tail_rel_err_max", "ratio", checker.tail_rel_err)):
        values, origin = checked(errors)
        put(metric, max(values), origin, unit)

    svg = ("charts.emit_elbow_svg", "charts.emit_scatter_svg", "charts.emit_boxplot_svg")
    per_call_ms("charts.svg_ms", *svg)
    idx, _, origin = spans_of(*svg)
    put("charts.svg_bytes", _mean([tracer.counts[i]["bytes"] for i in idx]), origin, "bytes")

    per_call_ms("pipeline.run_pipeline_ms", "pipeline.run_pipeline")
    for layer in ("pipeline", "cli"):
        idx, n_ops, origin = spans_of(*{n for n, _ in by_name if n.startswith(layer + ".")})
        put(f"{layer}.self_ms", 1e3 * sum(own[i] for i in idx) / n_ops, origin, "ms")
    values, origin = checked({op: [b] for op, b in checker.artifact_bytes.items()})
    put("pipeline.artifact_bytes", _mean(values), origin, "bytes")

    put("bench.trace_overhead_ms", overhead_ms, "ops", "ms")
    return metrics, source
