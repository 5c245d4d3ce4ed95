"""Per-layer spans for the benchmark's traced run.

Every layer function returns a lazy DataFrame, so a span around the bare
call would time only plan construction. Each wrapper therefore persists
and counts the layer's output inside its span; the next layer then reads
that cache, so a span holds one layer's own work. The wrappers replace
the functions in the namespaces that ``World`` and the video processor
call them from, so the program's real control flow runs unchanged.

Rows entering a layer are counted outside its span (most inputs are the
previous layer's counted output and cost nothing). Spark jobs are
attributed through a job group set for each span.
"""
from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.query_engine import combination_count

# Plan.operators entry -> the layer whose span it must produce.
OPERATOR_LAYER = {
    "decode": "decoder",
    "rvp": "road_visibility",
    "detect": "detector",
    "otp": "type_pruner",
    "loc3d_geometry": "geom3d",
    "loc3d_depth": "depth",
    "efs": "exit_frame_sampler",
}
TRACKER_PREFIX = "track_"

# S-Flow stages every workflow passes through, whatever its plan.
STAGE_LAYERS = (
    "sflow.integrate",
    "query_engine.movable_objects",
    "query_engine.compile_filter",
    "output",
)

LAYERS = (
    "sflow.integrate",
    "decoder",
    "road_visibility",
    "detector",
    "type_pruner",
    "geom3d",
    "depth",
    "exit_frame_sampler",
    "tracker",
    "query_engine.movable_objects",
    "query_engine.compile_filter",
    "output",
)

# (ratio metric, layer, numerator, denominator): the denominator is the
# ratio's base and is itself reported as a per-layer metric.
RATIOS = (
    ("road_visibility.keep_ratio", "road_visibility", "rows_out", "rows_in"),
    ("type_pruner.keep_ratio", "type_pruner", "rows_out", "rows_in"),
    ("exit_frame_sampler.keep_ratio", "exit_frame_sampler", "rows_out", "rows_in"),
    ("geom3d.fallback_ratio", "geom3d", "fallback_rows", "rows_out"),
    ("query_engine.compile_filter.match_ratio", "query_engine.compile_filter", "rows_out", "rows_in"),
)


def required_layers(operators: list[str]) -> set[str]:
    """Layers that must produce a span for a plan with these operators."""
    need = set(STAGE_LAYERS)
    for op in operators:
        need.add("tracker" if op.startswith(TRACKER_PREFIX) else OPERATOR_LAYER[op])
    return need


@dataclass
class Span:
    layer: str
    self_ms: float
    rows_in: int
    rows_out: int
    jobs: int
    fallback_rows: int = 0


class Tracer:
    """Records one span per call into a layer while installed."""

    def __init__(self, spark: SparkSession, integrate_rows_in: int):
        self.sc = spark.sparkContext
        self.integrate_rows_in = integrate_rows_in
        self.spans: list[Span] = []
        self._counted: dict[int, tuple[DataFrame, int]] = {}
        self._child_ms: list[float] = []
        self._n = 0

    # ------------------------------------------------------------ counting
    def rows(self, df: DataFrame) -> int:
        """Row count of ``df``, counted once per DataFrame object."""
        hit = self._counted.get(id(df))
        if hit is not None and hit[0] is df:
            return hit[1]
        n = df.count()
        self._counted[id(df)] = (df, n)
        return n

    def _force(self, df: DataFrame) -> int:
        df.persist()
        return self.rows(df)

    def reset(self) -> None:
        """Drop spans and counted DataFrames (call between passes)."""
        self.spans.clear()
        self._counted.clear()

    # ------------------------------------------------------------ spans
    def _span(self, layer: str, call: Callable, force: Callable) -> tuple[object, int, float, int]:
        """Run ``call`` and ``force`` under the span's own job group, which
        replaces the workflow's group for the span's duration."""
        prev_group = self.sc.getLocalProperty("spark.jobGroup.id")
        prev_desc = self.sc.getLocalProperty("spark.job.description")
        gid = f"{prev_group}/{layer}/{self._n}"
        self._n += 1
        self._child_ms.append(0.0)
        self.sc.setJobGroup(gid, layer)
        t0 = perf_counter()
        try:
            out = call()
            rows_out = force(out)
        finally:
            ms = (perf_counter() - t0) * 1000.0
            child = self._child_ms.pop()
            if self._child_ms:
                self._child_ms[-1] += ms
            self.sc.setJobGroup(prev_group, prev_desc or "")
        jobs = len(self.sc.statusTracker().getJobIdsForGroup(gid))
        return out, rows_out, ms - child, jobs

    def _df_layer(self, layer: str, fn: Callable, rows_in: Callable | None = None) -> Callable:
        def traced(*args, **kw):
            n_in = rows_in(*args, **kw) if rows_in else self.rows(args[0])
            out, n_out, self_ms, jobs = self._span(layer, lambda: fn(*args, **kw), self._force)
            span = Span(layer, self_ms, n_in, n_out, jobs)
            if layer == "geom3d":
                span.fallback_rows = out.filter(F.col("est_src") == "depth_fallback").count()
            self.spans.append(span)
            return out

        return traced

    def _integrate(self, fn: Callable) -> Callable:
        def traced(world):
            tables, n_out, self_ms, jobs = self._span(
                "sflow.integrate", lambda: fn(world), lambda ts: sum(self._force(t) for t in ts)
            )
            self.spans.append(Span("sflow.integrate", self_ms, self.integrate_rows_in, n_out, jobs))
            return tables

        return traced

    def _efs_rows_in(self, dets3d: DataFrame, *args, **kw) -> int:
        return dets3d.select("video_id", "frame_idx").distinct().count()

    @staticmethod
    def _combinations(objects: DataFrame, cameras, road, pred) -> int:
        return combination_count(objects, pred)

    # ------------------------------------------------------------ install
    @contextlib.contextmanager
    def installed(self):
        """Replace the layer functions where the program calls them."""
        targets = [
            ("repro.core.pipeline", "decode", lambda f: self._df_layer("decoder", f)),
            ("repro.core.pipeline", "prune_frames", lambda f: self._df_layer("road_visibility", f)),
            ("repro.core.pipeline", "detect", lambda f: self._df_layer("detector", f)),
            ("repro.core.pipeline", "prune_types", lambda f: self._df_layer("type_pruner", f)),
            ("repro.core.pipeline", "estimate_3d_geometry", lambda f: self._df_layer("geom3d", f)),
            ("repro.core.pipeline", "estimate_3d_depth", lambda f: self._df_layer("depth", f)),
            ("repro.core.pipeline", "sample_frames",
             lambda f: self._df_layer("exit_frame_sampler", f, self._efs_rows_in)),
            ("repro.core.pipeline", "track_objects", lambda f: self._df_layer("tracker", f)),
            ("repro.core.sflow", "movable_objects",
             lambda f: self._df_layer("query_engine.movable_objects", f)),
            ("repro.core.sflow", "compile_filter",
             lambda f: self._df_layer("query_engine.compile_filter", f, self._combinations)),
            ("repro.core.sflow", "get_objects", lambda f: self._df_layer("output", f)),
            ("repro.core.sflow", "save_videos", lambda f: self._df_layer("output", f)),
        ]
        with contextlib.ExitStack() as stack:
            for module, name, wrap in targets:
                mod = importlib.import_module(module)
                stack.enter_context(_patched(mod, name, wrap(getattr(mod, name))))
            world = importlib.import_module("repro.core.sflow").World
            stack.enter_context(_patched(world, "_tables", self._integrate(world._tables)))
            yield self

    # ------------------------------------------------------------ metrics
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over the recorded spans, plus the ratios."""
        tot = {
            layer: {"self_ms": 0.0, "rows_in": 0, "rows_out": 0, "jobs": 0, "fallback_rows": 0}
            for layer in LAYERS
        }
        for s in self.spans:
            t = tot[s.layer]
            t["self_ms"] += s.self_ms
            t["rows_in"] += s.rows_in
            t["rows_out"] += s.rows_out
            t["jobs"] += s.jobs
            t["fallback_rows"] += s.fallback_rows
        out: dict[str, tuple[float, str]] = {}
        for layer, t in tot.items():
            out[f"{layer}.ms"] = (t["self_ms"], "ms")
            out[f"{layer}.rows_in"] = (t["rows_in"], "count")
            out[f"{layer}.rows_out"] = (t["rows_out"], "count")
            out[f"{layer}.jobs"] = (t["jobs"], "count")
        for name, layer, num, base in RATIOS:
            b = tot[layer][base]
            out[name] = (tot[layer][num] / b if b else 0.0, "ratio")
        return out


@contextlib.contextmanager
def _patched(owner, name: str, value):
    original = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, original)
