"""Skip-distance F1 for the Exit Frame Sampler (Fig. 4c).

"Prediction refers to whether an object at frame f is correctly tracked
at frame (f + skip distance) as predicted by the Exit Frame Sampler."

For every consecutive pair of *sampled* frames (f1, f2) with skip
distance f2 - f1 - 1, and every ground-truth object present in the
tracker's output at both frames:

* TP  — the tracker kept the same track id across the gap;
* FN  — the object got a new track id (identity broken by the skip);
* FP  — a track id that spans the gap but links two different
  ground-truth objects (identity stolen).

The per-skip runtime ratio mirrors §6.4.3: (sampler cost over the
skipped stretch + one tracker step) / (tracker steps for every frame).
"""
from __future__ import annotations

from collections import defaultdict

import pandas as pd

from repro.video.costmodel import C, tracker_frame_cost

__all__ = ["skip_f1", "skip_runtime_ratio"]


def skip_f1(tracked: pd.DataFrame) -> pd.DataFrame:
    """Per-skip-distance F1 from a tracker output with ``gt_oid``.

    ``tracked`` needs video_id, frame_idx, gt_oid, track_id (the frames
    present are the sampled frames). Returns a DataFrame with columns
    skip, tp, fp, fn, f1 (one row per observed skip distance).
    """
    stats: dict[int, list[int]] = defaultdict(lambda: [0, 0, 0])  # tp, fp, fn
    for _, vid_df in tracked.groupby("video_id"):
        frames = sorted(vid_df["frame_idx"].unique())
        by_frame = {f: g for f, g in vid_df.groupby("frame_idx")}
        for f1, f2 in zip(frames, frames[1:]):
            skip = int(f2 - f1 - 1)
            a, b = by_frame[f1], by_frame[f2]
            oid_tid_a = dict(zip(a["gt_oid"], a["track_id"]))
            oid_tid_b = dict(zip(b["gt_oid"], b["track_id"]))
            tid_oid_b = dict(zip(b["track_id"], b["gt_oid"]))
            for oid, tid in oid_tid_a.items():
                if oid not in oid_tid_b:
                    continue  # object truly left: not a prediction case
                if oid_tid_b[oid] == tid:
                    stats[skip][0] += 1
                else:
                    stats[skip][2] += 1
                    # Did that tid get re-used for a different object?
                    if tid in tid_oid_b and tid_oid_b[tid] != oid:
                        stats[skip][1] += 1
    rows = []
    for skip in sorted(stats):
        tp, fp, fn = stats[skip]
        denom = 2 * tp + fp + fn
        rows.append(
            {"skip": skip, "tp": tp, "fp": fp, "fn": fn,
             "f1": (2 * tp / denom) if denom else 0.0}
        )
    return pd.DataFrame(rows)


def skip_runtime_ratio(skip: int, n_objects: float = 8.0) -> float:
    """Modeled per-frame StrongSORT runtime with a skip of ``skip``
    frames, relative to tracking every frame (§6.4.3's metric; < 1 is a
    saving)."""
    full = tracker_frame_cost(n_objects) * (skip + 1)
    with_efs = C.EFS_FRAME * (skip + 1) + tracker_frame_cost(n_objects)
    return with_efs / full
