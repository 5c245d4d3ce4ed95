"""S-Flow's World — the build-filter-observe facade (§3, §4.2.4).

    w = World(spark)
    w.add_geog_constructs(road_network)
    w.add_video(GeospatialVideo(cameras_pdf, content_pdf, fps))
    w.filter(type_in(o, 'car', 'truck'))
    w.filter(contains(geo_construct('intersection'), o))
    manifest, cost = w.save_videos()

Execution is deferred (§5): nothing runs until an observer
(``get_objects`` / ``save_videos``) is called; the planner then analyses
the conjunction of all filters, builds the optimized video-processing
plan, runs it, streams the Movable Objects into the query engine, and
composes the output — accumulating the modeled cost of all four stages
(§5.2: Data Integrator, Video Processor, Movable Objects Query Engine,
Output Composer).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.output import get_objects, save_videos
from repro.core.pipeline import Operator, VPResult, execute, video_processor
from repro.core.planner import ALL_OPTIMIZATIONS, Plan, plan_workflow
from repro.core.predicates import And, Predicate, object_refs
from repro.core.query_engine import compile_filter, movable_objects, query_engine_charge
from repro.video.costmodel import C, CostReport
from repro.world.datasets import CAMERA_SCHEMA, GT_SCHEMA, Dataset, local_table, road_table
from repro.world.roadnetwork import RoadNetwork

__all__ = ["GeospatialVideo", "World", "movable_objects_step"]


def movable_objects_step(fps: float, k: int) -> Operator:
    """③ The Movable Objects Query Engine as the executor step after the
    video processor, charged by ``query_engine_charge(k)``: the ordered
    object tuples a k-object query's self-join evaluates. It calls
    ``movable_objects`` through this module's globals, where
    ``perfbench/tracing.py`` wraps it."""
    return Operator("movable_objects", lambda run, tracked: movable_objects(tracked, fps=fps),
                    query_engine_charge(k))


@dataclass
class GeospatialVideo:
    """A video bound to its camera (§4.2.2): per-frame camera configs +
    the video's visual content (here: the ground-truth state table the
    synthetic detector renders from)."""

    cameras: pd.DataFrame
    content: pd.DataFrame
    fps: float


class World:
    """A geospatial virtual environment (§4.1.1)."""

    def __init__(
        self,
        spark: SparkSession,
        *,
        optimizations: frozenset[str] | set[str] = ALL_OPTIMIZATIONS,
        tracker_variant: str = "strongsort",
        seed: int = 0,
    ):
        self.spark = spark
        self.optimizations = frozenset(optimizations)
        self.tracker_variant = tracker_variant
        self.seed = seed
        self._road: RoadNetwork | None = None
        self._videos: list[GeospatialVideo] = []
        self._preds: list[Predicate] = []
        self._vp: VPResult | None = None

    # ------------------------------------------------------------ build
    def add_geog_constructs(self, road: RoadNetwork) -> "World":
        self._road = road
        return self

    def add_video(self, video: GeospatialVideo) -> "World":
        if self._videos and self._videos[0].fps != video.fps:
            raise ValueError("all videos in a World must share fps")
        self._videos.append(video)
        self._vp = None
        return self

    @classmethod
    def from_dataset(cls, spark: SparkSession, ds: Dataset, **kw) -> "World":
        w = cls(spark, **kw)
        w.add_geog_constructs(ds.road)
        w.add_video(GeospatialVideo(ds.cameras, ds.gt, ds.fps))
        return w

    # ------------------------------------------------------------ filter
    def filter(self, pred: Predicate) -> "World":
        self._preds.append(pred)
        self._vp = None
        return self

    @property
    def predicate(self) -> Predicate:
        if not self._preds:
            raise ValueError("filter() the World before observing it")
        return self._preds[0] if len(self._preds) == 1 else And(tuple(self._preds))

    @property
    def fps(self) -> float:
        return self._videos[0].fps

    # ------------------------------------------------------------ internals
    def _tables(self) -> tuple[DataFrame, DataFrame, DataFrame]:
        cams = pd.concat([v.cameras for v in self._videos], ignore_index=True)
        gt = pd.concat([v.content for v in self._videos], ignore_index=True)
        assert self._road is not None, "add_geog_constructs() first"
        spark = self.spark
        return (local_table(spark, cams, CAMERA_SCHEMA), local_table(spark, gt, GT_SCHEMA),
                road_table(spark, self._road))

    def _observe(
        self, compose: Callable[[DataFrame], DataFrame]
    ) -> tuple[pd.DataFrame, CostReport]:
        """Run all four stages and collect ``compose(result)``; the video
        processor and the Movable Objects step run in one executor scope."""
        pred, plan = self.predicate, self.plan
        cams, gt, road = self._tables()
        cost = CostReport()
        # ① Data Integrator: road tables + frame-by-frame video x camera join.
        n_constructs = len(self._road.df)
        n_frames = len(pd.concat([v.cameras for v in self._videos]))
        cost.add("integrate", n_constructs + n_frames,
                 n_constructs * C.INTEGRATE_CONSTRUCT + n_frames * C.INTEGRATE_FRAME)
        # ② Video Processor, then ③ the Movable Objects Query Engine, one plan.
        ops = [*video_processor(plan, gt, road, fps=self.fps, seed=self.seed),
               movable_objects_step(self.fps, len(object_refs(pred)))]
        with execute(ops, cams) as run:
            out = compose(compile_filter(run.objects, cams, road, pred)).toPandas()
        self._vp = run
        return out, cost.merge(run.cost)

    # ------------------------------------------------------------ observe
    def get_objects(self) -> tuple[pd.DataFrame, CostReport]:
        out, cost = self._observe(lambda result: get_objects(result, self.predicate))
        cost.add("compose", len(out), len(out) * C.COMPOSE_FRAME)
        return out, cost

    def save_videos(self, path: str | None = None) -> tuple[pd.DataFrame, CostReport]:
        manifest, cost = self._observe(lambda result: save_videos(result, path))
        n_frames_out = int(manifest["n_frames"].sum()) if len(manifest) else 0
        cost.add("compose", n_frames_out, n_frames_out * C.COMPOSE_FRAME)
        return manifest, cost

    @property
    def plan(self) -> Plan:
        """The plan for the conjunction of every filter so far."""
        return plan_workflow(
            self.predicate, optimizations=self.optimizations, tracker_variant=self.tracker_variant
        )

    @property
    def vp_result(self) -> VPResult:
        """The last observation's executor run: every plan operator's
        output plus ``movable_objects``, and the charges of both stages."""
        assert self._vp is not None, "observe the World first"
        return self._vp
