"""SORT-family multi-object tracker (§5.2.2's ObjectTracker operator).

Real tracking-by-detection, from scratch:

* constant-velocity motion prediction in pixel space (gap-aware: a
  skipped stretch of frames multiplies the predicted displacement — this
  is where the Exit Frame Sampler's accuracy cost comes from);
* cost matrix blending IoU and appearance-embedding cosine distance
  (StrongSORT/DeepSORT) or IoU alone (SORT);
* Hungarian assignment (our own implementation) with gating;
* track management: new track per unmatched detection, tracks die after
  ``MAX_AGE`` consecutive unmatched *processed* frames (matching how
  reduced-rate trackers age their tracks); a match costing
  ``COST_THRESHOLD`` or more is rejected.

Runs as ``applyInPandas`` grouped by video — the tracker is the paper's
one stateful streaming operator (§5.2.2).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.video.hungarian import hungarian

__all__ = ["track_pandas", "track_objects", "VARIANTS", "MAX_AGE", "COST_THRESHOLD"]

# Appearance weight lambda per variant; SORT has no appearance branch.
VARIANTS = {"strongsort": 0.5, "deepsort": 0.4, "sort": 0.0}
FEATS = ["f0", "f1", "f2", "f3"]
MAX_AGE = 3  # unmatched processed frames a track survives
COST_THRESHOLD = 0.55  # assignments costing this much or more start a new track


def _iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU between box sets a (n,4) and b (m,4), boxes as x1,y1,x2,y2."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return np.zeros((n, m))
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    inter = np.maximum(ix2 - ix1, 0) * np.maximum(iy2 - iy1, 0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0, inter / union, 0.0)


class _Track:
    __slots__ = ("tid", "box", "vel", "feat", "last_frame", "misses")

    def __init__(self, tid: int, box: np.ndarray, feat: np.ndarray, frame: int):
        self.tid = tid
        self.box = box
        self.vel = np.zeros(2)
        self.feat = feat
        self.last_frame = frame
        self.misses = 0

    def predict(self, frame: int) -> np.ndarray:
        dt = frame - self.last_frame
        shift = np.tile(self.vel * dt, 2)
        return self.box + shift


def track_pandas(pdf: pd.DataFrame, *, variant: str = "strongsort") -> pd.DataFrame:
    """Track one video's detections; returns the input + ``track_id``,
    numbered from 0 in order of each track's first detection."""
    lam = VARIANTS[variant]
    next_tid = 0
    pdf = pdf.sort_values(["frame_idx", "det_id"]).reset_index(drop=True)
    track_ids = np.full(len(pdf), -1, dtype=np.int64)
    tracks: list[_Track] = []
    for frame, idx in pdf.groupby("frame_idx", sort=True).indices.items():
        frame = int(frame)
        boxes = pdf.loc[idx, ["x1", "y1", "x2", "y2"]].to_numpy(np.float64)
        feats = pdf.loc[idx, FEATS].to_numpy(np.float64)
        live = [t for t in tracks if t.misses <= MAX_AGE]
        preds = np.array([t.predict(frame) for t in live]).reshape(len(live), 4)
        iou = _iou_matrix(preds, boxes)
        cost = (1 - lam) * (1.0 - iou)
        if lam > 0 and len(live):
            tfeat = np.array([t.feat for t in live])
            app = 0.5 * (1.0 - tfeat @ feats.T)
            cost = cost + lam * app
        # Gating: no overlap AND centers far apart -> forbidden.
        if len(live):
            pc = (preds[:, :2] + preds[:, 2:]) / 2
            dc = (boxes[:, :2] + boxes[:, 2:]) / 2
            dists = np.linalg.norm(pc[:, None] - dc[None, :], axis=2)
            gaps = np.array([frame - t.last_frame for t in live])
            gate = 150.0 + 40.0 * gaps
            cost = np.where((iou <= 0.0) & (dists > gate[:, None]), 1e6, cost)
        matched_tracks, matched_dets = set(), set()
        for r, c in hungarian(cost) if len(live) else []:
            if cost[r, c] < COST_THRESHOLD:
                t = live[r]
                dt = frame - t.last_frame
                new_box = boxes[c]
                c_new = (new_box[:2] + new_box[2:]) / 2
                c_old = (t.box[:2] + t.box[2:]) / 2
                t.vel = (c_new - c_old) / max(dt, 1)
                t.box = new_box
                t.feat = t.feat * 0.8 + feats[c] * 0.2
                n = np.linalg.norm(t.feat)
                if n > 0:
                    t.feat = t.feat / n
                t.last_frame = frame
                t.misses = 0
                track_ids[idx[c]] = t.tid
                matched_tracks.add(id(t))
                matched_dets.add(c)
        for t in live:
            if id(t) not in matched_tracks:
                t.misses += 1
        for c in range(len(boxes)):
            if c not in matched_dets:
                t = _Track(next_tid, boxes[c], feats[c], frame)
                next_tid += 1
                tracks.append(t)
                track_ids[idx[c]] = t.tid
        tracks = [t for t in tracks if t.misses <= MAX_AGE]
    out = pdf.copy()
    out["track_id"] = track_ids
    return out


def track_objects(dets: DataFrame, *, variant: str = "strongsort") -> DataFrame:
    """ObjectTracker operator: per-video stateful tracking."""
    schema = T.StructType(list(dets.schema.fields) + [T.StructField("track_id", T.LongType())])

    def run(pdf: pd.DataFrame) -> pd.DataFrame:
        return track_pandas(pdf, variant=variant)

    return dets.groupBy("video_id").applyInPandas(run, schema=schema)
