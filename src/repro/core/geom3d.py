"""§6.3 Geometry-Based 3D Location Estimator.

Replaces the per-frame depth network with closed-form geometry: the
middle of the 2D box's bottom edge is where the object touches the
ground, so its world location is the intersection of that pixel's ray
(Eq. 7) with the plane z=0. If the ray hits the ground *behind* the
camera (d <= 0 — the object does not touch the ground), the paper falls
back to Monodepth2 for that frame; we fall back to the depth simulation
for those rows and tag them ``est_src='depth_fallback'`` so the cost
model can charge the depth network for the affected frames.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.geo.camera import ray_ground_intersection
from repro.video.depth import bbox_rays, depth_points, with_loc3d_schema

__all__ = ["estimate_3d_geometry", "geometry_pandas"]


def geometry_pandas(pdf: pd.DataFrame) -> pd.DataFrame:
    """Vectorized Eq. 7 over a chunk of detections."""
    out = pdf.copy()
    if not len(pdf):
        out["wx"] = out["wy"] = out["wz"] = pd.Series(dtype="float64")
        out["est_src"] = pd.Series(dtype="object")
        return out
    rays = bbox_rays(pdf)
    pts, d = ray_ground_intersection(*rays)
    ok = d > 0
    # Fallback for rays behind the camera: the depth-network estimate,
    # as §6.3's escape hatch.
    if (~ok).any():
        pts = np.where(ok[:, None], pts, depth_points(pdf, *rays))
    out["wx"], out["wy"] = pts[:, 0], pts[:, 1]
    out["wz"] = np.where(ok, 0.0, np.maximum(pts[:, 2], 0.0))
    out["est_src"] = np.where(ok, "geometry", "depth_fallback")
    return out


def estimate_3d_geometry(dets: DataFrame) -> DataFrame:
    """Geometry-based Loc3DEstm operator (per-detection, no depth pass)."""
    schema = with_loc3d_schema(dets.schema)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if len(pdf):
                yield geometry_pandas(pdf)

    return dets.mapInPandas(run, schema=schema)
