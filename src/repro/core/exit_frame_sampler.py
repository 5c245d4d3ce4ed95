"""§6.4 Exit Frame Sampler.

Uses the two inherited physical behaviors of vehicles — they follow
their lane's direction and travel at the assumed speed limit (25 mph) —
to skip tracker frames until the earliest of the three sampleEvents of
Listing 3:

  (i)  exitsLane:   the car's motion ray leaves its lane polygon;
  (ii) exitsCamera: the car's extrapolated position leaves the camera's
       per-frame viewable area (from §6.1's hulls);
  (iii) newCar:     a later frame has more detections than the current.

A detection's lane comes from the shared construct index
(``road_visibility.containing``); on a shared lane edge the lane with
the lowest ``cid`` wins. A car already inside an intersection (no
containing lane) cannot be extrapolated, so no frame is skipped. The
skip is capped at ``MAX_SKIP`` = 13 frames — the accuracy/runtime knee
of Fig. 4(c).

Runs as one cogrouped ``applyInArrow`` per video: the detections (with
3D locations) on one side, the frames the detector saw on the other. The
pass computes the video's per-frame viewable hulls itself
(``road_visibility.hulls_pandas`` at the RVP's pruning distance), picks
the frames, and returns the input Arrow rows on them — exact values, the
input's schema, no join back. The lane index rides along in the closure.
"""
from __future__ import annotations

import bisect

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

from repro.core.road_visibility import ConstructIndex, containing, hulls_pandas
from repro.geo.polygon import as_poly_array, point_in_polygon, ray_exit_distance
from repro.world.agents import SPEED_LIMIT_MPS

__all__ = ["MAX_SKIP", "sample_frames_pandas", "sample_frames"]

MAX_SKIP = 13


def sample_frames_pandas(
    dets: pd.DataFrame,
    hulls: pd.DataFrame,
    lanes: ConstructIndex,
    *,
    fps: float,
    max_skip: int = MAX_SKIP,
) -> list[int]:
    """Run the sampling algorithm for one video over the ``lanes``
    construct index; returns sampled frames."""
    if not len(dets):
        return []
    # Each detection's lane: the first (lowest-cid) containing one, or -1.
    hit = containing(lanes, dets["wx"], dets["wy"])
    dets = dets.assign(lane=np.where(hit.any(axis=1), hit.argmax(axis=1), -1))
    by_frame = {int(f): g for f, g in dets.groupby("frame_idx")}
    frames = sorted(by_frame)
    hull_by_frame = {
        int(f): as_poly_array(h) for f, h in zip(hulls["frame_idx"], hulls["hull"])
    }
    counts = {f: len(g) for f, g in by_frame.items()}

    sampled: list[int] = []
    i = 0
    while i < len(frames):
        f = frames[i]
        sampled.append(f)
        g = by_frame[f]
        limit = f + max_skip
        next_f = limit
        # (iii) newCar: earliest later frame with more detections.
        for cand in frames[i + 1 :]:
            if cand > limit:
                break
            if counts[cand] > counts[f]:
                next_f = min(next_f, cand)
                break
        # Per-car events (i) and (ii).
        for x, y, j in zip(g["wx"], g["wy"], g["lane"]):
            if j < 0:
                # In an intersection: cannot assume straight motion.
                next_f = f + 1
                break
            poly, heading = lanes.polys[j], float(lanes.heading[j])
            # (i) exitsLane: last frame before the motion ray leaves the lane.
            d_exit = ray_exit_distance((x, y), heading, poly)
            if np.isfinite(d_exit):
                exit_frame = f + int(np.floor(d_exit / SPEED_LIMIT_MPS * fps))
                next_f = min(next_f, max(exit_frame, f + 1))
            # (ii) exitsCamera: extrapolate; first future frame out of view.
            h = np.deg2rad(heading)
            ks = np.arange(1, max_skip + 1)
            px = x + np.cos(h) * SPEED_LIMIT_MPS * ks / fps
            py = y + np.sin(h) * SPEED_LIMIT_MPS * ks / fps
            for k, (qx, qy) in zip(ks, zip(px, py)):
                hull = hull_by_frame.get(f + int(k))
                if hull is None or len(hull) < 3 or not point_in_polygon(qx, qy, hull):
                    next_f = min(next_f, max(f + int(k) - 1, f + 1))
                    break
            if next_f <= f + 1:
                break
        next_f = max(min(next_f, limit), f + 1)
        i = bisect.bisect_left(frames, next_f, lo=i + 1)
    return sampled


def sample_frames(
    dets3d: DataFrame,
    frames: DataFrame,
    lanes: ConstructIndex,
    *,
    distance: float,
    fps: float,
    max_skip: int = MAX_SKIP,
) -> DataFrame:
    """ExitFrameSampler operator: the rows of ``dets3d`` on the frames it
    samples, given the ``frames`` the detector saw and the view distance
    of their hulls."""

    def run(dets: pa.Table, video_frames: pa.Table) -> pa.Table:
        if not dets.num_rows:
            return dets
        hulls = hulls_pandas(video_frames.to_pandas(), distance)
        sampled = sample_frames_pandas(
            dets.select(["frame_idx", "wx", "wy"]).to_pandas(), hulls, lanes,
            fps=fps, max_skip=max_skip,
        )
        return dets.filter(pc.is_in(dets["frame_idx"], pa.array(sampled, pa.int64())))

    return (
        dets3d.groupBy("video_id")
        .cogroup(frames.groupBy("video_id"))
        .applyInArrow(run, schema=dets3d.schema)
    )
