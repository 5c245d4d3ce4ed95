"""Video Processor execution (§5.2.2): one executor for every operator plan.

A plan is an ordered list of :class:`Operator`s, run by :func:`execute`.
Each operator applies one DataFrame→DataFrame step, then charges the
calibrated cost model with the row counts it takes — pruning
effectiveness is observed, never assumed. Spatialyze's plans (Listing 2
+ §6 placements, :func:`run_video_processor`) and the comparison
systems' plans in ``repro.baselines`` differ only in which operators
they list and what each charges. The paper's O(1)-frames streaming
property maps to Spark's pipelined execution within a stage.

Operators call the layer functions (``decode``, ``detect``, ...) through
this module's globals when they run, so a wrapper installed here sees
every plan's calls; ``perfbench/tracing.py`` relies on that.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.exit_frame_sampler import sample_frames
from repro.core.geom3d import estimate_3d_geometry
from repro.core.planner import Plan
from repro.core.road_visibility import frame_view_hulls, prune_frames
from repro.core.type_pruner import prune_types
from repro.video.costmodel import C, CostReport, tracker_cost
from repro.video.decoder import decode
from repro.video.depth import estimate_3d_depth
from repro.video.detector import detect
from repro.video.tracker import track_objects

__all__ = [
    "DECODE", "LOC3D_DEPTH", "LOC3D_GEOMETRY", "Operator", "VPResult", "detector", "execute",
    "proxy_gated_detector", "road_visibility", "run_video_processor", "tracker",
]

FRAME_KEY = ["video_id", "frame_idx"]


@dataclass
class VPResult:
    """Tracked, 3D-located detections + modeled cost + stage counts.

    ``outputs`` maps each operator's name to its output DataFrame.
    """

    objects: DataFrame
    cost: CostReport
    counts: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, DataFrame] = field(default_factory=dict)

    def charge_per(self, op: str, key: str, ms: float) -> None:
        """Charge ``ms`` to ``op`` per unit of the count ``counts[key]``."""
        n = self.counts[key]
        self.cost.add(op, n, n * ms)


@dataclass(frozen=True)
class Operator:
    """One plan step. ``apply(run, df)`` maps the previous step's output
    to this step's; ``charge(run, df, out)`` then adds the step's modeled
    cost to ``run.cost`` and its counts to ``run.counts``."""

    name: str
    apply: Callable[[VPResult, DataFrame], DataFrame]
    charge: Callable[[VPResult, DataFrame, DataFrame], None]


def execute(operators: list[Operator], source: DataFrame) -> VPResult:
    """Run ``operators`` in order over ``source``; ``objects`` is the last
    operator's output."""
    run = VPResult(source, CostReport())
    for op in operators:
        out = op.apply(run, run.objects)
        op.charge(run, run.objects, out)
        run.objects = run.outputs[op.name] = out
    return run


def _count_frames(df: DataFrame) -> int:
    return df.select(*FRAME_KEY).distinct().count()


def _charge_decode(run, cameras, frames) -> None:
    run.counts["frames_total"] = run.counts["frames_after_rvp"] = frames.count()
    run.charge_per("decode", "frames_total", C.DECODE)


def _charge_rvp(run, frames, kept) -> None:
    run.counts["frames_after_rvp"] = kept.count()
    run.charge_per("rvp", "frames_total", C.RVP_FRAME)


def _charge_detect(run, frames, dets) -> None:
    run.counts["detections"] = run.counts["detections_after_otp"] = dets.count()
    run.charge_per("yolo", "frames_after_rvp", C.YOLO)


def _charge_otp(run, dets, kept) -> None:
    run.counts["detections_after_otp"] = kept.count()
    run.charge_per("otp", "detections", C.OTP_OBJ)


def _charge_geometry(run, dets, dets3) -> None:
    run.charge_per("geom3d", "detections_after_otp", C.GEOM3D_OBJ)
    fallback = dets3.filter(F.col("est_src") == "depth_fallback")
    run.counts["depth_fallback_frames"] = _count_frames(fallback)
    if run.counts["depth_fallback_frames"]:
        run.charge_per("depth", "depth_fallback_frames", C.DEPTH)


def _charge_depth(run, dets, dets3) -> None:
    run.counts["frames_with_dets"] = _count_frames(dets3)
    run.charge_per("depth", "frames_with_dets", C.DEPTH)


def _charge_efs(run, dets3, sampled) -> None:
    run.counts["frames_into_efs"] = _count_frames(dets3)
    run.charge_per("efs", "frames_into_efs", C.EFS_FRAME)


DECODE = Operator("decode", lambda run, cameras: decode(cameras), _charge_decode)
LOC3D_GEOMETRY = Operator(
    "loc3d_geometry", lambda run, dets: estimate_3d_geometry(dets).persist(), _charge_geometry
)
LOC3D_DEPTH = Operator(
    "loc3d_depth", lambda run, dets: estimate_3d_depth(dets).persist(), _charge_depth
)


def road_visibility(road: DataFrame, types, distance: float) -> Operator:
    """§6.1 RVP after the decoder: keeps frames where every type is visible."""
    return Operator(
        "rvp", lambda run, f: prune_frames(f, road, types, distance).persist(), _charge_rvp
    )


def detector(gt: DataFrame, seed: int = 0) -> Operator:
    """The object detector, charged per frame it is given."""
    return Operator(
        "detect", lambda run, frames: detect(frames, gt, seed=seed).persist(), _charge_detect
    )


def proxy_gated_detector(gt: DataFrame, proxy: str, proxy_ms: float, ms: float) -> Operator:
    """The detector behind a cheap proxy model (OTIF, VIVA): the proxy,
    charged ``proxy_ms`` as ``proxy``, sees every frame it is given; the
    detector, charged ``ms``, runs only on the frames the proxy flags —
    the frames with objects."""

    def charge(run, frames, dets) -> None:
        run.counts["frames_with_dets"] = _count_frames(dets)
        run.charge_per(proxy, "frames_after_rvp", proxy_ms)
        run.charge_per("yolo", "frames_with_dets", ms)

    return replace(detector(gt), charge=charge)


def tracker(variant: str) -> Operator:
    """The object tracker, charged by ``costmodel.tracker_cost`` over the
    per-frame detection counts of its output."""

    def charge(run, dets, tracked) -> None:
        agg = tracked.groupBy(*FRAME_KEY).count().agg(
            F.count("*").alias("nf"),
            F.sum("count").alias("sn"),
            F.sum(F.pow("count", 3)).alias("sn3"),
        ).first()
        nf, sn, sn3 = (agg["nf"] or 0, float(agg["sn"] or 0), float(agg["sn3"] or 0))
        run.counts["frames_tracked"] = nf
        run.counts["dets_tracked"] = sn
        run.cost.add("track", nf, tracker_cost(nf, sn, sn3, variant))

    return Operator(
        f"track_{variant}", lambda run, dets: track_objects(dets, variant=variant).persist(), charge
    )


def run_video_processor(
    cameras: DataFrame,
    gt: DataFrame,
    road: DataFrame,
    plan: Plan,
    *,
    fps: float,
    road_pdf=None,
    seed: int = 0,
    efs_max_skip: int | None = None,
) -> VPResult:
    """Execute ``plan`` over one dataset's frames; returns objects+cost.

    ``road_pdf`` (the pandas road table) is needed only when the Exit
    Frame Sampler is in the plan (its per-video algorithm carries the
    lane polygons as a broadcast-sized list). ``objects`` always has the
    Movable Objects columns, whichever operators the plan left out.
    """

    def sample_exit_frames(run, dets3):
        if road_pdf is None:
            raise ValueError("Exit Frame Sampler needs road_pdf for lane polygons")
        rows = road_pdf[road_pdf["type"] == "lane"]
        lanes = [(np.array(p), float(h)) for p, h in zip(rows["poly"], rows["heading"])]
        # View hulls of the frames the detector saw: after the RVP, if any.
        frames = run.outputs.get("rvp", run.outputs["decode"])
        hulls = frame_view_hulls(frames, plan.rvp_distance)
        sampled = sample_frames(dets3, hulls, lanes, fps=fps, max_skip=efs_max_skip)
        return dets3.join(sampled, on=FRAME_KEY, how="leftsemi").persist()

    catalog = (
        DECODE,
        road_visibility(road, plan.rvp_types, plan.rvp_distance),
        detector(gt, seed),
        Operator("otp", lambda run, dets: prune_types(dets, plan.otp_types).persist(), _charge_otp),
        LOC3D_GEOMETRY,
        LOC3D_DEPTH,
        Operator("efs", sample_exit_frames, _charge_efs),
        tracker(plan.tracker_variant),
    )
    by_name = {op.name: op for op in catalog}
    vp = execute([by_name[name] for name in plan.operators], cameras)
    if not plan.include_detector:
        empty = detect(vp.objects.limit(0), gt.limit(0), seed=seed)
        vp.objects = empty.withColumn("track_id", F.lit(-1).cast("long"))
        return vp
    if not plan.include_loc3d:
        unknown = F.lit(None).cast("double")
        vp.objects = vp.objects.withColumns(
            {"wx": unknown, "wy": unknown, "wz": unknown, "est_src": F.lit("none")}
        )
    if not plan.include_tracker:
        # Per-frame objects: each detection is its own Movable Object.
        vp.objects = vp.objects.withColumn("track_id", F.col("det_id"))
    return vp
