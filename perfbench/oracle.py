"""Perfect-perception answer oracle and answer scoring.

The oracle replaces everything the video processor estimates with ground
truth: each detection's ``gt_oid`` is joined to the object's true
position, type and identity in ``Dataset.gt``. That table goes through
the same ``movable_objects`` and ``compile_filter`` as the system, so the
frames it matches are what a query returns under perfect perception.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.query_engine import compile_filter, movable_objects
from repro.video.decoder import FRAME_COLS
from repro.video.detector import project_detections
from repro.world.datasets import Dataset

Frame = tuple[str, int]


def perfect_perception(ds: Dataset, detector_seed: int) -> pd.DataFrame:
    """Video-processor-shaped table holding the true state of every detection."""
    joined = ds.cameras[FRAME_COLS].merge(
        ds.gt.drop(columns="ts"), on=["video_id", "frame_idx"], how="inner"
    )
    dets = project_detections(joined, seed=detector_seed)
    truth = dets[["video_id", "frame_idx", "ts", "gt_oid"]].merge(
        ds.gt[["video_id", "frame_idx", "oid", "otype", "x", "y", "z"]],
        left_on=["video_id", "frame_idx", "gt_oid"],
        right_on=["video_id", "frame_idx", "oid"],
    )
    return pd.DataFrame(
        {
            "video_id": truth["video_id"].astype(str),
            "frame_idx": truth["frame_idx"].astype("int64"),
            "ts": truth["ts"].astype("float64"),
            "track_id": truth["oid"].astype("int64"),
            "otype": truth["otype"].astype(str),
            "wx": truth["x"].astype("float64"),
            "wy": truth["y"].astype("float64"),
            "wz": truth["z"].astype("float64"),
        }
    )


def oracle_frames(
    spark: SparkSession, ds: Dataset, preds: dict, detector_seed: int
) -> dict[str, set[Frame]]:
    """Matched (video_id, frame_idx) set per query name under perfect perception."""
    objects = movable_objects(
        spark.createDataFrame(perfect_perception(ds, detector_seed)), fps=ds.fps
    ).persist()
    cams, road = ds.cameras_sdf(spark), ds.road_sdf(spark)
    try:
        out = {}
        for name, pred in preds.items():
            rows = compile_filter(objects, cams, road, pred).select("video_id", "frame_idx")
            out[name] = {(r.video_id, int(r.frame_idx)) for r in rows.distinct().collect()}
        return out
    finally:
        objects.unpersist()


def manifest_frames(manifest: pd.DataFrame) -> set[Frame]:
    """Expand a ``save_videos`` snippet manifest to its matched frame set."""
    return {
        (str(v), f)
        for v, s, e in zip(manifest["video_id"], manifest["start_frame"], manifest["end_frame"])
        for f in range(int(s), int(e) + 1)
    }


def f1(got: set, want: set) -> float:
    """F1 of a matched set against the reference; two empty sets agree fully."""
    if not got and not want:
        return 1.0
    return 2.0 * len(got & want) / (len(got) + len(want))
