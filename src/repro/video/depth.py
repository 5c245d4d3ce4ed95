"""Monodepth2 simulation — the ML-based 3D Location Estimator (§5.2.2).

Per *frame* (not per object — that is the point §6.3 exploits) it
computes a coarse whole-image depth map by ray-casting a pixel grid
against the ground plane — real vectorized work proportional to frames
processed — and charges the calibrated Monodepth2 cost. Each detection's
depth is the object's true camera depth perturbed by ~5 % noise
(simulating monocular-depth accuracy), and its 3D world location follows
from Eq. 5 via the bbox bottom-center pixel.

Runs as one narrow ``mapInPandas`` over the detections, with no
grouping and no shuffle. Each Arrow chunk computes the depth map once per
distinct (video_id, frame_idx) in it, regardless of the number of
detections — the same cost structure as the real network — then locates
all of the chunk's detections in one vectorized call. A frame whose
detections straddle two chunks (a partition or Arrow batch boundary) is
mapped once in each.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.geo.camera import intrinsic_matrix, pixel_to_world, ray_ground_intersection
from repro.video.detector import pseudo_uniform

__all__ = [
    "bbox_rays", "depth_map", "depth_points", "estimate_3d_depth", "with_loc3d_schema",
    "DEPTH_GRID",
]

DEPTH_GRID = (48, 27)  # depth-map resolution (w, h): the per-frame workload
FAR_M = 200.0
NOISE_FRAC = 0.05

LOC3D_FIELDS = [
    T.StructField("wx", T.DoubleType()),
    T.StructField("wy", T.DoubleType()),
    T.StructField("wz", T.DoubleType()),
    T.StructField("est_src", T.StringType()),
]


def with_loc3d_schema(schema: T.StructType) -> T.StructType:
    """Input schema + the 3D-location columns appended by an estimator."""
    return T.StructType(list(schema.fields) + LOC3D_FIELDS)


def depth_map(cam_row: pd.Series) -> np.ndarray:
    """Coarse ground-plane depth map for one frame's camera (h, w) meters."""
    gw, gh = DEPTH_GRID
    xs = (np.arange(gw) + 0.5) * cam_row["img_w"] / gw
    ys = (np.arange(gh) + 0.5) * cam_row["img_h"] / gh
    px, py = np.meshgrid(xs, ys)
    n = gw * gh
    t = np.tile(cam_row[["cam_x", "cam_y", "cam_z"]].to_numpy(dtype=np.float64), (n, 1))
    q = np.tile(cam_row[["qw", "qx", "qy", "qz"]].to_numpy(dtype=np.float64), (n, 1))
    k = np.tile(
        intrinsic_matrix(
            [cam_row["fx"]], [cam_row["fy"]], [cam_row["sk"]], [cam_row["x0"]], [cam_row["y0"]]
        ),
        (n, 1, 1),
    )
    _, d = ray_ground_intersection(px.ravel(), py.ravel(), t, q, k)
    d = np.where(d > 0, np.minimum(d, FAR_M), FAR_M)
    return d.reshape(gh, gw)


def bbox_rays(pdf: pd.DataFrame) -> tuple[np.ndarray, ...]:
    """Per detection: its bbox bottom-centre pixel ``xp, yp`` and its
    frame's camera translation ``t``, rotation ``q`` and intrinsics ``k``."""
    xp = (pdf["x1"].to_numpy(np.float64) + pdf["x2"].to_numpy(np.float64)) / 2
    yp = pdf["y2"].to_numpy(np.float64)  # bbox bottom edge
    t = pdf[["cam_x", "cam_y", "cam_z"]].to_numpy(np.float64)
    q = pdf[["qw", "qx", "qy", "qz"]].to_numpy(np.float64)
    k = intrinsic_matrix(
        pdf["fx"].to_numpy(), pdf["fy"].to_numpy(), pdf["sk"].to_numpy(),
        pdf["x0"].to_numpy(), pdf["y0"].to_numpy(),
    )
    return xp, yp, t, q, k


def depth_points(pdf: pd.DataFrame, xp, yp, t, q, k) -> np.ndarray:
    """World points (n, 3) of the pixels ``xp, yp`` at the depth network's
    estimate: each object's true camera depth with ~``NOISE_FRAC``
    deterministic noise, floored at 0.5 m, back-projected by Eq. 5."""
    noise = 1.0 + NOISE_FRAC * 2.0 * (
        pseudo_uniform(
            pdf["gt_oid"].to_numpy(np.int64), pdf["frame_idx"].to_numpy(np.int64), salt=7
        )
        - 0.5
    )
    zc = np.maximum(pdf["gt_zcam"].to_numpy(np.float64) * noise, 0.5)
    return pixel_to_world(xp, yp, zc, t, q, k)


def _estimate_chunk(pdf: pd.DataFrame) -> pd.DataFrame:
    """Depth-estimate all detections of one chunk of rows."""
    for _, cam in pdf.drop_duplicates(["video_id", "frame_idx"]).iterrows():
        depth_map(cam)  # the expensive whole-image pass (workload model)
    w = depth_points(pdf, *bbox_rays(pdf))
    out = pdf.copy()
    out["wx"], out["wy"], out["wz"] = w[:, 0], w[:, 1], np.maximum(w[:, 2], 0.0)
    out["est_src"] = "depth"
    return out


def estimate_3d_depth(dets: DataFrame) -> DataFrame:
    """ML-based Loc3DEstm operator: one depth-map pass per frame."""

    def run(chunks: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in chunks:
            if len(pdf):
                yield _estimate_chunk(pdf)

    return dets.mapInPandas(run, schema=with_loc3d_schema(dets.schema))
