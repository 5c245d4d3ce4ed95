"""§6.1 Road Visibility Pruner.

Per frame: (1) compute the camera's 3D viewable pyramid at the pruning
distance d (Eq. 6) and project it to the z=0 plane; (2) take the convex
hull of apex + 4 corners — the 2D viewable area; (3) test the viewable
area against the Geographic Constructs of the types named in the
filter's ``contains`` predicates; (4) keep the frame only if every such
type is visible.

Spark shape: one narrow ``mapInPandas`` over the frames stream, with no
join or shuffle. The constructs of the requested types are collected once
on the driver into a :class:`ConstructIndex` that rides in the closure.
Per Arrow batch, a vectorized frames x constructs bbox overlap picks
candidates and the exact convex SAT test decides them. A road network
holds tens to hundreds of constructs, so a partitioned grid equi-join
(GeoSpark/Sedona style) would only add shuffles and a dedup.

The same index is the only way any stage tests points against road
polygons: :func:`containing` (bbox pre-filter, then point-in-polygon)
binds the query engine's ``contains`` and the Exit Frame Sampler's lanes.
The EFS also computes its view hulls with :func:`hulls_pandas`, inside
its own per-video pass.
"""
from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.geo.camera import intrinsic_matrix, view_hull_points
from repro.geo.polygon import as_poly_array, convex_hull, convex_intersects, points_in_polygon

__all__ = ["ConstructIndex", "construct_index", "containing", "prune_frames"]


def hulls_pandas(pdf: pd.DataFrame, distance: float) -> pd.DataFrame:
    """Per-frame 2D viewable-area hulls for a chunk of frames."""
    n = len(pdf)
    t = pdf[["cam_x", "cam_y", "cam_z"]].to_numpy(np.float64)
    q = pdf[["qw", "qx", "qy", "qz"]].to_numpy(np.float64)
    k = intrinsic_matrix(
        pdf["fx"].to_numpy(), pdf["fy"].to_numpy(), pdf["sk"].to_numpy(),
        pdf["x0"].to_numpy(), pdf["y0"].to_numpy(),
    )
    pts = view_hull_points(t, q, k, pdf["img_w"].to_numpy(), pdf["img_h"].to_numpy(), distance)
    hulls = [convex_hull(pts[i]) for i in range(n)]
    return pd.DataFrame(
        {
            "video_id": pdf["video_id"].to_numpy(),
            "frame_idx": pdf["frame_idx"].to_numpy(np.int64),
            "hull": [h.tolist() for h in hulls],
            "hxmin": [p[:, 0].min() for p in pts],
            "hymin": [p[:, 1].min() for p in pts],
            "hxmax": [p[:, 0].max() for p in pts],
            "hymax": [p[:, 1].max() for p in pts],
        }
    )


class ConstructIndex(NamedTuple):
    """The road constructs of some types, in ``cid`` order: the sorted type
    names and, per construct, its type's position, cid, heading (NaN if
    none), polygon and bbox."""

    types: list[str]
    tix: np.ndarray
    cid: np.ndarray
    heading: np.ndarray
    polys: list[np.ndarray]
    bbox: np.ndarray


def construct_index(road: DataFrame, geo_types) -> ConstructIndex:
    """Collect the constructs of ``geo_types`` from ``road`` to the driver."""
    types = sorted(str(t) for t in geo_types)
    # Rows are tuples with the unique cid first: sorting orders them by cid.
    rows = sorted(road.filter(F.col("type").isin(*types)).select(
        "cid", "type", "heading", "poly", "xmin", "ymin", "xmax", "ymax").collect())
    return ConstructIndex(
        types,
        np.array([types.index(r["type"]) for r in rows], dtype=np.int64),
        np.array([r["cid"] for r in rows], dtype=np.int64),
        np.array([r["heading"] for r in rows], dtype=np.float64),
        [as_poly_array(r["poly"]) for r in rows],
        np.array([r[4:] for r in rows], dtype=np.float64).reshape(-1, 4),
    )


def containing(index: ConstructIndex, xs, ys) -> np.ndarray:
    """(point, construct) containment matrix: an inclusive bbox pre-filter
    picks the candidates, ``points_in_polygon`` decides them."""
    x = np.asarray(xs, dtype=np.float64)[:, None]
    y = np.asarray(ys, dtype=np.float64)[:, None]
    b = index.bbox
    hit = (x >= b[:, 0]) & (x <= b[:, 2]) & (y >= b[:, 1]) & (y <= b[:, 3])
    for j in np.nonzero(hit.any(axis=0))[0]:
        i = np.nonzero(hit[:, j])[0]
        hit[i, j] = points_in_polygon(x[i, 0], y[i, 0], index.polys[j])
    return hit


def visible_pandas(pdf: pd.DataFrame, index: ConstructIndex, distance: float) -> np.ndarray:
    """(frame, type) visibility matrix for a chunk of frames: bbox overlap
    picks the candidate constructs, the convex SAT test decides them."""
    bbox, tix = index.bbox, index.tix
    h = hulls_pandas(pdf, distance)
    hb = h[["hxmin", "hymin", "hxmax", "hymax"]].to_numpy(np.float64)
    cand = (
        (hb[:, None, 0] <= bbox[None, :, 2]) & (hb[:, None, 2] >= bbox[None, :, 0])
        & (hb[:, None, 1] <= bbox[None, :, 3]) & (hb[:, None, 3] >= bbox[None, :, 1])
    )
    hulls = [np.asarray(x, dtype=np.float64) for x in h["hull"]]
    vis = np.zeros((len(pdf), len(index.types)), dtype=bool)
    for i, j in zip(*np.nonzero(cand)):
        if not vis[i, tix[j]]:
            vis[i, tix[j]] = convex_intersects(hulls[i], index.polys[j])
    return vis


def prune_frames(
    frames: DataFrame, road: DataFrame, geo_types: set[str], distance: float
) -> DataFrame:
    """Keep only frames where *every* construct type of interest is
    visible (the transformed top-level conjunction of §6.1.2)."""
    if not geo_types:
        return frames
    index = construct_index(road, geo_types)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if len(pdf):
                yield pdf[visible_pandas(pdf, index, distance).all(axis=1)]

    return frames.mapInPandas(run, schema=frames.schema)
