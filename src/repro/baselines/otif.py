"""OTIF baseline (§7.1.4) — tracker pre-processing with proxy gating.

The two OTIF mechanisms the paper describes:

* a *segmentation proxy model* runs on every frame and decides whether
  the (expensive) detector must run — frames with no objects skip it;
* *recurrent reduced-rate tracking*: the tracker runs at a fixed reduced
  frame rate (every k-th frame) regardless of content.

Both are operators in a plan run by the video processor's executor:
decode → proxy-gated detector → reduced-rate filter →
StrongSORT. OTIF is tracker *pre-processing*: it tracks in 2D, with no
3D stage. OTIF also needs a per-dataset training phase (61m37s in the
paper); we model it as a reported constant that is excluded from the FPS
numbers, exactly as §7.1.4 does. The comparison metric is frames
processed per second of modeled runtime.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.pipeline import DECODE, Operator, execute, proxy_gated_detector, tracker
from repro.video.costmodel import C, CostReport

__all__ = ["run_otif", "OTIF_TRAINING_MS", "TRACK_EVERY"]

OTIF_TRAINING_MS = (61 * 60 + 37) * 1000.0  # reported, not counted
TRACK_EVERY = 2  # the reduced tracking rate: every k-th frame


def run_otif(cameras: DataFrame, gt: DataFrame) -> tuple[DataFrame, CostReport]:
    """OTIF-style tracking over a dataset; returns (tracks, cost)."""
    vp = execute(
        [
            DECODE,
            proxy_gated_detector(gt, "otif_proxy", C.OTIF_SEG_PROXY, C.YOLO),
            Operator(
                "reduced_rate",
                lambda run, dets: dets.filter(F.col("frame_idx") % TRACK_EVERY == 0),
                lambda cost, *_: None,
            ),
            tracker("strongsort"),
        ],
        cameras,
    )
    return vp.objects, vp.cost
