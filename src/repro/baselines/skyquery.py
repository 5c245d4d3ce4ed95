"""SkyQuery baseline (§7.1.5) — aerial drone video sensing pipeline.

SkyQuery detects (customized YOLOv3), ground-projects (homography from
the drone's GPS+altitude — trivial for a top-down camera) and tracks
(plain SORT) every frame. §7.1.5's comparison keeps the *same* three ML
functions on both sides and lets Spatialyze add only the Road Visibility
Pruner; the measured speedup is therefore exactly the RVP's frame
pruning. Both sides are operator plans run by the video processor's
executor: ``run_skyquery`` is decode → detect → 3D → SORT charged at
SkyQuery's model costs; ``run_spatialyze_with_skyquery_models`` is the
same plan with Spatialyze's RVP inserted after the decoder.
"""
from __future__ import annotations

from dataclasses import replace

from pyspark.sql import DataFrame

from repro.core.pipeline import (
    DECODE, LOC3D_GEOMETRY, detector, execute, frames_in, per, road_visibility, rows_in, tracker,
)
from repro.core.predicates import DEFAULT_VIEW_DISTANCE
from repro.video.costmodel import C, CostReport

__all__ = ["run_skyquery", "run_spatialyze_with_skyquery_models"]


def _run(cameras: DataFrame, gt: DataFrame, pruners: list) -> tuple[DataFrame, CostReport]:
    vp = execute(
        [
            DECODE,
            *pruners,
            replace(detector(gt), charge=per(frames_in, "yolov3", C.YOLOV3)),
            # Homography ground projection: the geometry path (top-down
            # camera rays hit z=0), charged at SkyQuery's per-object cost.
            replace(LOC3D_GEOMETRY, charge=per(rows_in, "sky3d", C.SKYQUERY_3D_OBJ)),
            tracker("sort"),
        ],
        cameras,
    )
    return vp.objects, vp.cost


def run_skyquery(cameras: DataFrame, gt: DataFrame) -> tuple[DataFrame, CostReport]:
    """The SkyQuery pipeline: every frame, no pruning."""
    return _run(cameras, gt, [])


def run_spatialyze_with_skyquery_models(
    cameras: DataFrame, gt: DataFrame, road: DataFrame
) -> tuple[DataFrame, CostReport]:
    """Spatialyze's video processor with SkyQuery's ML functions: only
    the Road Visibility Pruner differs (§7.1.5). It keeps the frames with
    a bike lane within the default view distance, as Q10 asks."""
    return _run(cameras, gt, [road_visibility(road, {"bikeLane"}, DEFAULT_VIEW_DISTANCE)])
