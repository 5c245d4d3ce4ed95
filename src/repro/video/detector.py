"""Synthetic object detector — the YOLOv5 substitute.

Projects ground-truth 3D boxes through the *real* camera model (Eq. 1)
to produce per-frame typed 2D pixel boxes, with deterministic
hash-seeded detection noise:

* misses: detection probability decays with distance;
* class confusion: car<->truck, person<->bicycle, ~4 %;
* bbox jitter ~1 % of box size;
* appearance features f0..f3: a per-object pseudo re-ID embedding with
  per-frame noise — what StrongSORT/DeepSORT's appearance branch sees.

Runs as a Spark join (frames x ground-truth states on video_id and
frame_idx) followed by a vectorized ``mapInPandas`` projection, so the
work is genuinely per-(frame, object) and pruned frames genuinely skip
it. ``gt_oid`` / ``gt_otype`` / ``gt_zcam`` are carried along for
metrics and for the depth-network simulation; no pipeline *algorithm*
reads them for decisions a real system could not make.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.geo.camera import intrinsic_matrix, world_to_pixel
from repro.geo.quaternion import quat_to_matrix

__all__ = ["pseudo_uniform", "project_detections", "detect", "DET_SCHEMA", "CAMERA_COLS"]

MAX_RANGE_M = 80.0
MIN_BOX_PX = 4.0
MIN_VISIBLE_FRAC = 0.25
CONFUSION = {"car": "truck", "truck": "car", "person": "bicycle", "bicycle": "person"}

CAMERA_COLS = [
    "cam_x", "cam_y", "cam_z", "qw", "qx", "qy", "qz",
    "fx", "fy", "sk", "x0", "y0", "img_w", "img_h", "cam_heading",
]

DET_SCHEMA = T.StructType(
    [
        T.StructField("video_id", T.StringType()),
        T.StructField("frame_idx", T.LongType()),
        T.StructField("ts", T.DoubleType()),
        T.StructField("det_id", T.LongType()),
        T.StructField("gt_oid", T.LongType()),
        T.StructField("gt_otype", T.StringType()),
        T.StructField("gt_zcam", T.DoubleType()),
        T.StructField("otype", T.StringType()),
        T.StructField("conf", T.DoubleType()),
        T.StructField("x1", T.DoubleType()),
        T.StructField("y1", T.DoubleType()),
        T.StructField("x2", T.DoubleType()),
        T.StructField("y2", T.DoubleType()),
        T.StructField("f0", T.DoubleType()),
        T.StructField("f1", T.DoubleType()),
        T.StructField("f2", T.DoubleType()),
        T.StructField("f3", T.DoubleType()),
    ]
    + [T.StructField(c, T.DoubleType()) for c in CAMERA_COLS]
)


def pseudo_uniform(*keys: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic uniform [0,1) from integer key arrays (splitmix64)."""
    init = np.uint64((salt + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF)
    h = np.full(np.asarray(keys[0]).shape, init, dtype=np.uint64)
    for k in keys:
        h = h ^ (np.asarray(k, dtype=np.int64).view(np.uint64) * np.uint64(0xBF58476D1CE4E5B9))
        h = h ^ (h >> np.uint64(27))
        h = h * np.uint64(0x94D049BB133111EB)
        h = h ^ (h >> np.uint64(31))
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _box_corners(pdf: pd.DataFrame) -> np.ndarray:
    """(n, 8, 3) world corners of each object's oriented 3D box."""
    n = len(pdf)
    l = pdf["dim_l"].to_numpy() / 2
    w = pdf["dim_w"].to_numpy() / 2
    h = pdf["dim_h"].to_numpy() / 2
    hd = np.deg2rad(pdf["heading"].to_numpy())
    cos, sin = np.cos(hd), np.sin(hd)
    sx = np.array([1, 1, 1, 1, -1, -1, -1, -1])
    sy = np.array([1, 1, -1, -1, 1, 1, -1, -1])
    sz = np.array([1, -1, 1, -1, 1, -1, 1, -1])
    lx = sx[None, :] * l[:, None]
    ly = sy[None, :] * w[:, None]
    lz = sz[None, :] * h[:, None]
    wx = pdf["x"].to_numpy()[:, None] + lx * cos[:, None] - ly * sin[:, None]
    wy = pdf["y"].to_numpy()[:, None] + lx * sin[:, None] + ly * cos[:, None]
    wz = pdf["z"].to_numpy()[:, None] + lz
    return np.stack([wx, wy, wz], axis=-1)


def project_detections(pdf: pd.DataFrame, seed: int = 0) -> pd.DataFrame:
    """Vectorized projection of joined (frame x gt-object) rows to detections."""
    if len(pdf) == 0:
        return pd.DataFrame({f.name: pd.Series(dtype="object") for f in DET_SCHEMA})
    n = len(pdf)
    t = pdf[["cam_x", "cam_y", "cam_z"]].to_numpy(dtype=np.float64)
    q = pdf[["qw", "qx", "qy", "qz"]].to_numpy(dtype=np.float64)
    k = intrinsic_matrix(
        pdf["fx"].to_numpy(), pdf["fy"].to_numpy(), pdf["sk"].to_numpy(),
        pdf["x0"].to_numpy(), pdf["y0"].to_numpy(),
    )
    corners = _box_corners(pdf).reshape(n * 8, 3)
    rep = np.repeat(np.arange(n), 8)
    pix, zc = world_to_pixel(corners, t[rep], q[rep], k[rep])
    pix = pix.reshape(n, 8, 2)
    zc = zc.reshape(n, 8)
    front = zc.min(axis=1) > 0.3

    x1 = pix[:, :, 0].min(axis=1)
    x2 = pix[:, :, 0].max(axis=1)
    y1 = pix[:, :, 1].min(axis=1)
    y2 = pix[:, :, 1].max(axis=1)
    img_w = pdf["img_w"].to_numpy()
    img_h = pdf["img_h"].to_numpy()
    cx1, cx2 = np.clip(x1, 0, img_w), np.clip(x2, 0, img_w)
    cy1, cy2 = np.clip(y1, 0, img_h), np.clip(y2, 0, img_h)
    raw_area = np.maximum(x2 - x1, 1e-9) * np.maximum(y2 - y1, 1e-9)
    clip_area = np.maximum(cx2 - cx1, 0) * np.maximum(cy2 - cy1, 0)
    vis_frac = clip_area / raw_area
    big_enough = ((cx2 - cx1) >= MIN_BOX_PX) & ((cy2 - cy1) >= MIN_BOX_PX)

    # True camera-frame depth of the object center (also carried for the
    # depth-network simulation).
    center = pdf[["x", "y", "z"]].to_numpy(dtype=np.float64)
    _, zcam = world_to_pixel(center, t, q, k)
    dist = np.hypot(center[:, 0] - t[:, 0], center[:, 1] - t[:, 1])

    oid = pdf["oid"].to_numpy(dtype=np.int64)
    fidx = pdf["frame_idx"].to_numpy(dtype=np.int64)
    p_detect = np.clip(0.995 - np.maximum(dist - 25.0, 0) * (0.295 / 55.0), 0.0, 1.0)
    detected = pseudo_uniform(oid, fidx, salt=seed) < p_detect

    keep = front & big_enough & (vis_frac >= MIN_VISIBLE_FRAC) & (dist <= MAX_RANGE_M) & detected
    sub = pdf[keep]
    ki = np.flatnonzero(keep)
    if len(ki) == 0:
        return pd.DataFrame({f.name: pd.Series(dtype="object") for f in DET_SCHEMA})

    # Class confusion and bbox jitter, hash-seeded.
    otype = sub["otype"].to_numpy().copy()
    confuse = pseudo_uniform(oid[ki], fidx[ki], salt=seed + 1) < 0.04
    otype = np.array(
        [CONFUSION.get(o, o) if c else o for o, c in zip(otype, confuse)], dtype=object
    )
    bw = (cx2 - cx1)[ki]
    bh = (cy2 - cy1)[ki]
    jx = (pseudo_uniform(oid[ki], fidx[ki], salt=seed + 2) - 0.5) * 0.006 * bw
    jy = (pseudo_uniform(oid[ki], fidx[ki], salt=seed + 3) - 0.5) * 0.006 * bh
    conf = 0.55 + 0.45 * vis_frac[ki] * np.clip(1.0 - dist[ki] / 160.0, 0.0, 1.0)

    # Pseudo re-ID embedding: per-object direction + per-frame noise.
    feat = np.stack(
        [pseudo_uniform(oid[ki], salt=100 + i) - 0.5 for i in range(4)], axis=1
    )
    feat /= np.linalg.norm(feat, axis=1, keepdims=True)
    noise = np.stack(
        [pseudo_uniform(oid[ki], fidx[ki], salt=200 + i) - 0.5 for i in range(4)], axis=1
    ) * 0.35
    feat = feat + noise
    feat /= np.linalg.norm(feat, axis=1, keepdims=True)

    out = pd.DataFrame(
        {
            "video_id": sub["video_id"].to_numpy(),
            "frame_idx": fidx[ki],
            "ts": sub["ts"].to_numpy(dtype=np.float64),
            "det_id": oid[ki] * 1_000_000 + fidx[ki],
            "gt_oid": oid[ki],
            "gt_otype": sub["otype"].to_numpy(),
            "gt_zcam": zcam[ki],
            "otype": otype,
            "conf": conf,
            "x1": cx1[ki] + jx,
            "y1": cy1[ki] + jy,
            "x2": cx2[ki] + jx,
            "y2": cy2[ki] + jy,
            "f0": feat[:, 0],
            "f1": feat[:, 1],
            "f2": feat[:, 2],
            "f3": feat[:, 3],
        }
    )
    for c in CAMERA_COLS:
        out[c] = sub[c].to_numpy(dtype=np.float64)
    return out


def detect(frames: DataFrame, gt: DataFrame) -> DataFrame:
    """ObjectDetector operator: frames x ground truth → typed 2D boxes."""
    joined = frames.join(gt.drop("ts"), on=["video_id", "frame_idx"], how="inner")

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            out = project_detections(pdf)
            if len(out):
                yield out.astype(
                    {f.name: "float64" for f in DET_SCHEMA if isinstance(f.dataType, T.DoubleType)}
                )

    return joined.mapInPandas(run, schema=DET_SCHEMA)
