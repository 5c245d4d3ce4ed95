"""Experiment harness for the §7 evaluation artifacts (T1-T10).

Runs the ablation setups of §7.2 and formats the T7, T8 and T10 tables
recorded in EXPERIMENTS.md; ``repro.experiments_compare`` holds the
baseline comparisons of §7.1 and the Fig. 4c skip-distance sweep (T2-T6,
T9). ``jobs/run_all.py`` calls every table function in one session; a
caller who wants one table calls its function the same way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.exit_frame_sampler import MAX_SKIP
from repro.core.pipeline import execute, video_processor
from repro.core.planner import ALL_OPTIMIZATIONS, plan_workflow
from repro.core.queries import query
from repro.core.sflow import World
from repro.metrics.hota import assa
from repro.video.costmodel import C, CostReport
from repro.world.datasets import Dataset

__all__ = [
    "SETUPS", "SetupRun", "run_setup", "ablation_runtime_table",
    "ablation_accuracy_table", "fps_of", "stage_breakdown",
]

# §7.2's seven experiment setups.
SETUPS: dict[str, frozenset[str]] = {
    "SB": frozenset(),
    "S1": frozenset({"rvp"}),
    "S2": frozenset({"otp"}),
    "S3": frozenset({"geom3d"}),
    "S4": frozenset({"efs"}),
    "S5": frozenset({"rvp", "otp", "geom3d"}),
    "S6": ALL_OPTIMIZATIONS,
}

TRACK_COLS = ["video_id", "frame_idx", "track_id", "x1", "y1", "x2", "y2", "gt_oid"]


@dataclass
class SetupRun:
    """One (query, setup) video-processor execution."""

    setup: str
    qname: str
    cost: CostReport
    tracked: pd.DataFrame  # TRACK_COLS rows (empty if no tracker in plan)
    rvp_frames: pd.DataFrame | None  # frames kept by RVP, if RVP ran

    @property
    def video_ms(self) -> float:
        """Modeled video-processing runtime (the Fig. 5b quantity)."""
        return self.cost.total_ms


def run_setup(
    spark: SparkSession,
    ds: Dataset,
    qname: str,
    setup: str,
    *,
    seed: int = 0,
    efs_max_skip: int = MAX_SKIP,
) -> SetupRun:
    """Run one query's video processor under one ablation setup."""
    plan = plan_workflow(query(qname), optimizations=SETUPS[setup])
    ops = video_processor(plan, ds.gt_sdf(spark), ds.road_sdf(spark), fps=ds.fps, seed=seed,
                          efs_max_skip=efs_max_skip)
    with execute(ops, ds.cameras_sdf(spark)) as run:
        tracked = (
            run.objects.select(*TRACK_COLS).toPandas()
            if any(op.startswith("track_") for op in plan.operators)
            else pd.DataFrame(columns=TRACK_COLS)
        )
        rvp_frames = (
            run.outputs["rvp"].select("video_id", "frame_idx").toPandas()
            if "rvp" in run.outputs else None
        )
    return SetupRun(setup, qname, run.cost, tracked, rvp_frames)


def ablation_runtime_table(runs: dict[tuple[str, str], SetupRun], n_videos: int) -> pd.DataFrame:
    """T7 (Fig. 5b): modeled video-processing seconds per video, plus the
    speedup of each setup over (SB), per query."""
    rows = []
    for (qname, setup), r in sorted(runs.items()):
        base = runs[(qname, "SB")]
        rows.append(
            {
                "query": qname,
                "setup": setup,
                "modeled_s_per_video": r.video_ms / 1000.0 / n_videos,
                "speedup_vs_SB": base.video_ms / r.video_ms if r.video_ms else float("nan"),
            }
        )
    return pd.DataFrame(rows)


def ablation_accuracy_table(runs: dict[tuple[str, str], SetupRun]) -> pd.DataFrame:
    """T8 (Fig. 5c): AssA of each setup's tracks against (SB)'s tracks.

    Per §7.2.2, detections on frames pruned by the Road Visibility
    Pruner are excluded from the ground truth (the pruning implements
    the user's predicate, so it is not an error).
    """
    rows = []
    for (qname, setup), r in sorted(runs.items()):
        if setup == "SB" or r.tracked.empty and runs[(qname, "SB")].tracked.empty:
            continue
        gt = runs[(qname, "SB")].tracked.rename(columns={"track_id": "tid"})
        pred = r.tracked.rename(columns={"track_id": "tid"})
        if r.rvp_frames is not None and len(gt):
            keep = set(map(tuple, r.rvp_frames[["video_id", "frame_idx"]].itertuples(index=False)))
            gt = gt[[tuple(t) in keep for t in gt[["video_id", "frame_idx"]].itertuples(index=False)]]
        rows.append({"query": qname, "setup": setup, "AssA": assa(gt, pred)})
    return pd.DataFrame(rows)


def fps_of(cost: CostReport, n_frames: int) -> float:
    """Frames processed per second of modeled runtime (Fig. 5a metric)."""
    return n_frames / (cost.total_ms / 1000.0) if cost.total_ms else float("inf")


def stage_breakdown(spark: SparkSession, ds: Dataset, qname: str = "Q2") -> pd.DataFrame:
    """T10 (§7.2.1): stage shares of an unoptimized end-to-end run."""
    w = World.from_dataset(spark, ds, optimizations=frozenset())
    w.filter(query(qname))
    _, cost = w.save_videos()
    stage_of = {
        "integrate": "Data Integrator",
        "decode": "Video Processor", "yolo": "Video Processor",
        "depth": "Video Processor", "track": "Video Processor",
        "rvp": "Video Processor", "otp": "Video Processor",
        "geom3d": "Video Processor", "efs": "Video Processor",
        "query_engine": "Movable Objects Query Engine",
        "compose": "Output Composer",
    }
    totals: dict[str, float] = {}
    for op, (_, ms) in cost.entries.items():
        totals[stage_of.get(op, op)] = totals.get(stage_of.get(op, op), 0.0) + ms
    out = pd.DataFrame(
        [{"stage": s, "ms": ms, "share": ms / cost.total_ms} for s, ms in totals.items()]
    )
    return out.sort_values("share", ascending=False).reset_index(drop=True)
