"""HOTA Association Accuracy (AssA) — the §7.2.2 accuracy metric.

Implements the association half of HOTA (Luiten et al., IJCV 2021) at a
single localization threshold α=0.5:

* per frame, match ground-truth and predicted boxes with Hungarian
  maximizing IoU, gated at IoU >= α — these are the TPs;
* for a TP c matching gt id g with pred id p:
  ``A(c) = TPA(c) / (TPA(c) + FNA(c) + FPA(c))`` where TPA is the number
  of TPs pairing (g, p), FNA the remaining detections of g and FPA the
  remaining detections of p;
* AssA = mean of A(c) over all TPs.

In the ablation (§7.2.2), the ground truth is the (SB) baseline's
tracking output and detections on frames pruned by the Road Visibility
Pruner are excluded from the ground truth ("this pruning is a part of
users' predicates").
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

from repro.video.hungarian import hungarian
from repro.video.tracker import _iou_matrix

__all__ = ["ALPHA", "assa", "frame_matches"]

REQUIRED = ["video_id", "frame_idx", "tid", "x1", "y1", "x2", "y2"]
ALPHA = 0.5  # the localization threshold: a TP needs IoU >= ALPHA


def frame_matches(gt: pd.DataFrame, pred: pd.DataFrame) -> list[tuple]:
    """Per-frame Hungarian TP matching; returns (video, frame, gid, pid)."""
    for df in (gt, pred):
        missing = [c for c in REQUIRED if c not in df.columns]
        if missing:
            raise ValueError(f"missing columns {missing}")
    out = []
    pred_by = {k: v for k, v in pred.groupby(["video_id", "frame_idx"])}
    for key, g in gt.groupby(["video_id", "frame_idx"]):
        p = pred_by.get(key)
        if p is None or not len(p):
            continue
        gb = g[["x1", "y1", "x2", "y2"]].to_numpy(np.float64)
        pb = p[["x1", "y1", "x2", "y2"]].to_numpy(np.float64)
        iou = _iou_matrix(gb, pb)
        for r, c in hungarian(1.0 - iou):
            if iou[r, c] >= ALPHA:
                out.append((key[0], key[1], g.iloc[r]["tid"], p.iloc[c]["tid"]))
    return out


def assa(gt: pd.DataFrame, pred: pd.DataFrame) -> float:
    """Association accuracy of ``pred`` tracks against ``gt`` tracks.

    Returns 1.0 for two empty inputs, 0.0 if nothing matches.
    """
    if not len(gt) and not len(pred):
        return 1.0
    if not len(gt) or not len(pred):
        return 0.0
    matches = frame_matches(gt, pred)
    if not matches:
        return 0.0
    tpa = Counter(((v, g), (v, p)) for v, _, g, p in matches)
    # FNA/FPA also count unmatched detections of g / p.
    gt_total = gt.groupby(["video_id", "tid"]).size()
    pr_total = pred.groupby(["video_id", "tid"]).size()
    score = 0.0
    for v, _, g, p in matches:
        t = tpa[((v, g), (v, p))]
        fna = int(gt_total.get((v, g), t)) - t
        fpa = int(pr_total.get((v, p), t)) - t
        score += t / (t + fna + fpa)
    return score / len(matches)
