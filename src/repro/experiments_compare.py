"""§7.1 comparison experiments (T2-T6) and the Fig. 4c sweep (T9).

Each function runs both sides of one comparison and returns a tidy
DataFrame whose numbers go into EXPERIMENTS.md.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.eva import EvaSession
from repro.baselines.nuscenes_devkit import MaterializationLimit, run_devkit_query
from repro.baselines.otif import run_otif
from repro.baselines.skyquery import run_skyquery, run_spatialyze_with_skyquery_models
from repro.baselines.viva import run_viva
from repro.core.pipeline import execute, video_processor
from repro.core.planner import plan_workflow
from repro.core.queries import query
from repro.core.query_engine import compile_filter
from repro.core.sflow import World, movable_objects_step
from repro.experiments import SETUPS, fps_of, run_setup
from repro.metrics.f1 import skip_f1, skip_runtime_ratio
from repro.video.costmodel import C, CostReport
from repro.world.datasets import Dataset

__all__ = [
    "eva_comparison", "viva_comparison", "devkit_comparison",
    "otif_comparison", "skyquery_comparison", "skip_distance_table",
]


def eva_comparison(spark: SparkSession, ds: Dataset) -> pd.DataFrame:
    """T2: Q5-Q8 modeled runtime, Spatialyze vs EVA run in series."""
    cams, gt, road = ds.cameras_sdf(spark), ds.gt_sdf(spark), ds.road_sdf(spark)
    eva = EvaSession(cams, gt, road)
    rows = []
    for i, q in enumerate(["Q5", "Q6", "Q7", "Q8"]):
        _, eva_cost = eva.run_query(query(q), min_count=3 if q == "Q8" else None)
        w = World.from_dataset(spark, ds)
        w.filter(query(q))
        _, sp_cost = w.save_videos()
        rows.append(
            {
                "query": q,
                "spatialyze_s": sp_cost.total_ms / 1000,
                "eva_s": eva_cost.total_ms / 1000,
                "speedup": eva_cost.total_ms / sp_cost.total_ms,
                "eva_cache_hit": i > 0,
            }
        )
    return pd.DataFrame(rows)


def _scale_lowres(cost: CostReport) -> CostReport:
    """Scale the ML model entries to VIVA's 360x240 input resolution."""
    out = CostReport()
    for op, (c, ms) in cost.entries.items():
        f = C.LOWRES_FACTOR if op in ("yolo", "depth") else 1.0
        out.add(op, c, ms * f)
    return out


def viva_comparison(spark: SparkSession, ds: Dataset) -> pd.DataFrame:
    """T3: Q9 at 360x240 @ 1 FPS with DeepSORT on both sides (§7.1.2)."""
    k = max(1, int(round(ds.fps)))  # keep one frame per second
    cams_pdf = ds.cameras[ds.cameras["frame_idx"] % k == 0].reset_index(drop=True)
    gt_pdf = ds.gt[ds.gt["frame_idx"] % k == 0].reset_index(drop=True)
    sub = Dataset(ds.name, ds.road, cams_pdf, gt_pdf, 1.0)
    cams, gt, road = sub.cameras_sdf(spark), sub.gt_sdf(spark), sub.road_sdf(spark)
    pred = query("Q9")
    # VIVA side.
    _, viva_cost = run_viva(cams, gt, road, pred, fps=1.0)
    # Spatialyze side: same models at the same resolution, DeepSORT; the
    # query engine is charged per Movable Objects row, as on the VIVA side.
    plan = plan_workflow(pred, tracker_variant="deepsort")
    run = execute([*video_processor(plan, gt, road, fps=1.0), movable_objects_step(1.0, 1)], cams)
    compile_filter(run.objects, cams, road, pred).count()
    sp_cost = _scale_lowres(run.cost)
    return pd.DataFrame(
        [
            {
                "dataset": ds.name,
                "spatialyze_s": sp_cost.total_ms / 1000,
                "viva_s": viva_cost.total_ms / 1000,
                "speedup": viva_cost.total_ms / sp_cost.total_ms,
            }
        ]
    )


def devkit_comparison(
    spark: SparkSession, ds: Dataset, queries=("Q1", "Q2", "Q3", "Q4")
) -> pd.DataFrame:
    """T4: Movable-Objects-Query-Engine wall-clock vs the naive devkit.

    Both sides query the same annotations (the SB video processor's
    output), so this isolates the query-engine stage as §7.1.3 does.
    """
    cams, gt, road = ds.cameras_sdf(spark), ds.gt_sdf(spark), ds.road_sdf(spark)
    # The devkit queries the FULL annotation store (every object type —
    # §7.1.3 compares on already-ingested annotations), so the shared
    # object table is built without the Object Type Pruner; type filters
    # are part of the queries, evaluated by each engine itself.
    # Only the store's rows are read, not its modeled cost.
    plan = plan_workflow(query("Q2"), optimizations=frozenset({"geom3d"}))
    objects = execute([*video_processor(plan, gt, road, fps=ds.fps),
                       movable_objects_step(ds.fps, 1)], cams).objects
    objects_pdf = objects.toPandas()
    rows = []
    for q in queries:
        pred = query(q)
        t0 = time.perf_counter()
        result = compile_filter(objects, cams, road, pred)
        n_spark = result.count()
        spark_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        oom = False
        try:
            naive = run_devkit_query(objects_pdf, ds.cameras, ds.road.df, pred)
            n_naive = len(naive)
        except MaterializationLimit:
            oom, n_naive = True, -1
        devkit_s = time.perf_counter() - t0
        rows.append(
            {
                "query": q,
                "spark_engine_s": spark_s,
                "devkit_s": devkit_s,
                "speedup": devkit_s / spark_s,
                "rows_spark": n_spark,
                "rows_devkit": n_naive,
                "devkit_oom": oom,
            }
        )
    return pd.DataFrame(rows)


def otif_comparison(spark: SparkSession, ds: Dataset) -> pd.DataFrame:
    """T5: object-tracking FPS, OTIF vs Spatialyze-with-all-opts (Q1-Q4)."""
    cams, gt = ds.cameras_sdf(spark), ds.gt_sdf(spark)
    _, otif_cost = run_otif(cams, gt)
    rows = [
        {
            "system": "OTIF",
            "query": "-",
            "fps": fps_of(otif_cost, int(otif_cost.count("decode"))),
        }
    ]
    for q in ("Q1", "Q2", "Q3", "Q4"):
        r = run_setup(spark, ds, q, "S6")
        rows.append(
            {
                "system": "Spatialyze",
                "query": q,
                "fps": fps_of(r.cost, int(r.cost.count("decode"))),
            }
        )
    return pd.DataFrame(rows)


def skyquery_comparison(spark: SparkSession, ds: Dataset) -> pd.DataFrame:
    """T6: Q10 FPS on the aerial dataset, same ML sims on both sides."""
    cams, gt, road = ds.cameras_sdf(spark), ds.gt_sdf(spark), ds.road_sdf(spark)
    _, sq_cost = run_skyquery(cams, gt)
    _, sp_cost = run_spatialyze_with_skyquery_models(cams, gt, road)
    return pd.DataFrame(
        [
            {"system": system, "fps": fps_of(cost, int(cost.count("decode"))),
             "frames_processed": int(cost.count("yolov3"))}
            for system, cost in (("SkyQuery", sq_cost), ("Spatialyze", sp_cost))
        ]
    )


def skip_distance_table(
    spark: SparkSession, ds: Dataset, *, max_skip: int = 13
) -> pd.DataFrame:
    """T9 (Fig. 4c): F1 + modeled runtime ratio per observed skip distance."""
    r = run_setup(spark, ds, "Q2", "S6", efs_max_skip=max_skip)
    t = r.tracked
    f1 = skip_f1(t)
    if len(t):
        n_obj = t.groupby(["video_id", "frame_idx"]).size().mean()
    else:
        n_obj = 8.0
    f1["runtime_ratio"] = [skip_runtime_ratio(int(s), n_obj) for s in f1["skip"]]
    return f1
