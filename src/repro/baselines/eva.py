"""EVA baseline (§7.1.1) — frame-by-frame VDBMS with UDF materialization.

What the paper credits/blames EVA for, reproduced here:

* evaluates queries frame-by-frame — no tracks, no object directions;
* always runs the full detector + Monodepth2 on every frame (no road
  pruning, no type pruning, no geometric shortcut);
* *materializes* UDF outputs: when queries run in series (Q5→Q6→Q7→Q8
  without resetting), later queries reuse the cached detector+depth
  results and pay only per-frame predicate evaluation;
* per-frame Python UDF plumbing cost for every query;
* Q8 semantics: returns frames with >= 3 cars (no self-join) — the
  asymmetry §7.1.1 notes.

The detections themselves come from the same synthetic detector (same
"models"), so only the execution strategy differs — which is exactly
what the comparison measures. The materialized plan is Spatialyze's
unoptimized decode → detect → depth operators, run once per session by
the video processor's executor.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pipeline import DECODE, LOC3D_DEPTH, VPResult, detector, execute
from repro.core.predicates import Predicate
from repro.core.query_engine import compile_filter, movable_objects
from repro.video.costmodel import C, CostReport

__all__ = ["EvaSession"]


@dataclass
class EvaSession:
    """An EVA server session with its materialized-UDF cache."""

    cameras: DataFrame
    gt: DataFrame
    road: DataFrame
    _cache: VPResult | None = None

    def _materialized(self, cost: CostReport) -> DataFrame:
        """Detector + depth over every frame; cached across queries. Every
        query decodes again, so every query is charged the decoder."""
        first = self._cache is None
        if first:
            self._cache = execute([DECODE, detector(self.gt), LOC3D_DEPTH], self.cameras)
        for op, (n, ms) in self._cache.cost.entries.items():
            if first or op == "decode":
                cost.add(op, n, ms)
        return self._cache.objects

    def run_query(self, pred: Predicate, *, min_count: int | None = None,
                  count_type: str = "car") -> tuple[DataFrame, CostReport]:
        """Execute one query frame-by-frame.

        ``min_count`` switches to EVA's Q8-style semantics: frames with
        at least that many detections of ``count_type``.
        """
        cost = CostReport()
        d3 = self._materialized(cost)
        n_dets = d3.count()
        # Per-frame, per-query Python UDF predicate evaluation.
        n_frames = self._cache.counts["frames_total"]
        cost.add("eva_udf", n_frames, n_frames * C.EVA_UDF_FRAME + n_dets * C.EVA_UDF_OBJ)
        if min_count is not None:
            result = (
                d3.filter(F.col("otype") == count_type)
                .groupBy("video_id", "frame_idx")
                .count()
                .filter(F.col("count") >= min_count)
                .select("video_id", "frame_idx")
            )
            return result, cost
        # EVA evaluates predicates frame-by-frame inside its UDF plumbing
        # (charged above) — there is no metadata-store join stage. The
        # result set is computed with our engine only to have comparable
        # outputs.
        objects = d3.withColumn("track_id", F.col("det_id"))
        obj_table = movable_objects(objects, fps=12.0)
        result = compile_filter(obj_table, self.cameras, self.road, pred)
        return result, cost
