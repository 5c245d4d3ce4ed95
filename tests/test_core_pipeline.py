"""Tests for the video processor's executor: every operator calls its layer
function through ``repro.core.pipeline``'s globals (the contract the
per-layer tracer depends on), every charge counts its own operator's
input or output, every plan that tracks charges the tracker by the
per-frame counts of its output, each step's output reaches the next step
with its schema and values intact, outputs stay readable after the run,
no code caches a DataFrame or evicts a cache, and degenerate worlds (no
objects, no frames, no construct of the queried type) give an empty
answer."""
import ast
import dataclasses
import math
import sys
from collections import Counter
from pathlib import Path

import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.otif import run_otif
from repro.baselines.skyquery import run_skyquery, run_spatialyze_with_skyquery_models
from repro.core import pipeline
from repro.core.queries import query
from repro.core.sflow import World
from repro.experiments import SETUPS
from repro.experiments_compare import devkit_comparison, viva_comparison
from repro.video.costmodel import tracker_frame_cost
from repro.world.datasets import nuscenes_lite, skyquery_lite

ROOT = Path(__file__).resolve().parents[1]

# Plan.operators entry -> the layer function it must call.
LAYER_OF = {
    "decode": "decode",
    "rvp": "prune_frames",
    "detect": "detect",
    "otp": "prune_types",
    "loc3d_geometry": "estimate_3d_geometry",
    "loc3d_depth": "estimate_3d_depth",
    "efs": "sample_frames",
}


def _layer(op: str) -> str:
    return "track_objects" if op.startswith("track_") else LAYER_OF[op]


@pytest.fixture(scope="module")
def ds():
    return nuscenes_lite(1, seed=0, n_frames=36)


@pytest.fixture(scope="module")
def q2_worlds(spark, ds):
    """Q2 under SB and S6 through ``World.save_videos()``, with each layer
    name in ``repro.core.pipeline`` replaced by a call-recording wrapper."""
    calls: dict[str, list[tuple[str, object]]] = {}
    worlds = {}

    def recording(name, fn):
        def wrapped(*args, **kw):
            calls[current].append((name, args[0]))
            return fn(*args, **kw)

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in set(LAYER_OF.values()) | {"track_objects"}:
            mp.setattr(pipeline, name, recording(name, getattr(pipeline, name)))
        for current in ("SB", "S6"):
            calls[current] = []
            w = World.from_dataset(spark, ds, optimizations=SETUPS[current])
            w.filter(query("Q2"))
            w.save_videos()
            worlds[current] = w
    return worlds, calls


@pytest.mark.parametrize("setup", ["SB", "S6"])
def test_every_operator_calls_its_patched_layer(q2_worlds, setup):
    worlds, calls = q2_worlds
    ops = worlds[setup].plan.operators
    assert Counter(name for name, _ in calls[setup]) == Counter(_layer(op) for op in ops)
    # The tracer counts each layer's input from the first positional argument.
    assert all(isinstance(first, DataFrame) for _, first in calls[setup])


def _frames(pdf) -> int:
    return len(pdf[["video_id", "frame_idx"]].drop_duplicates())


@pytest.mark.parametrize("setup", ["SB", "S6"])
def test_every_charge_counts_its_operator(q2_worlds, setup):
    """Each cost count equals a pandas count of the charged operator's
    input or output, read back from ``vp.outputs`` — the video
    processor's operators and the Movable Objects step alike."""
    worlds, _ = q2_worlds
    vp = worlds[setup].vp_result
    out = {name: df.toPandas() for name, df in vp.outputs.items()}
    want = {"decode": _frames(out["decode"]), "track": _frames(out["track_strongsort"])}
    if setup == "SB":
        want |= {"yolo": _frames(out["decode"]), "depth": _frames(out["loc3d_depth"])}
    else:
        located = out["loc3d_geometry"]
        want |= {
            "rvp": _frames(out["decode"]),
            "yolo": _frames(out["rvp"]),
            "otp": len(out["detect"]),
            "geom3d": len(out["otp"]),
            "depth": _frames(located[located["est_src"] == "depth_fallback"]),
            "efs": _frames(located),
        }
    # The Movable Objects step: Q2's two object references, so the
    # ordered pairs of each frame, n_f * (n_f - 1).
    n = out["movable_objects"].groupby(["video_id", "frame_idx"]).size()
    want["query_engine"] = int((n * (n - 1)).sum())
    assert want["yolo"] > 0 and want["track"] > 0 and want["query_engine"] > 0
    assert set(vp.cost.entries) <= set(want)
    assert {op: vp.cost.count(op) for op in want} == want


def _assert_tracker_charge(tracked: DataFrame, cost, variant: str) -> None:
    per_frame = tracked.toPandas().groupby(["video_id", "frame_idx"]).size()
    assert len(per_frame) > 0
    assert cost.count("track") == len(per_frame)
    expected = sum(tracker_frame_cost(int(n), variant) for n in per_frame)
    assert cost.ms("track") == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("setup", ["SB", "S6"])
def test_spatialyze_tracker_charge(q2_worlds, setup):
    worlds, _ = q2_worlds
    vp = worlds[setup].vp_result
    (name,) = [op for op in worlds[setup].plan.operators if op.startswith("track_")]
    _assert_tracker_charge(vp.outputs[name], vp.cost, name.removeprefix("track_"))


def test_otif_tracker_charge(spark, ds):
    tracked, cost = run_otif(ds.cameras_sdf(spark), ds.gt_sdf(spark))
    _assert_tracker_charge(tracked, cost, "strongsort")


@pytest.fixture(scope="module")
def sky(spark):
    sq = skyquery_lite(seed=0, n_frames=120)
    return sq.cameras_sdf(spark), sq.gt_sdf(spark), sq.road_sdf(spark)


def test_skyquery_tracker_charge(sky):
    cams, gt, _ = sky
    tracked, cost = run_skyquery(cams, gt)
    _assert_tracker_charge(tracked, cost, "sort")


def test_spatialyze_with_skyquery_models_tracker_charge(sky):
    tracked, cost = run_spatialyze_with_skyquery_models(*sky)
    _assert_tracker_charge(tracked, cost, "sort")


def _world(spark, ds, setup: str = "S6") -> tuple[World, pd.DataFrame]:
    """Q2 on ``ds`` under ``setup``, observed with ``save_videos()``."""
    w = World.from_dataset(spark, ds, optimizations=SETUPS[setup])
    w.filter(query("Q2"))
    manifest, _ = w.save_videos()
    return w, manifest


# Executor calls each workflow makes, all at nesting depth 0: a Spatialyze
# workflow runs its video processor and its Movable Objects step in one
# call; viva_comparison runs VIVA's plan first, in a call of its own.
SCOPES = {
    "World.save_videos": (_world, [0]),
    "viva_comparison": (viva_comparison, [0, 0]),
    "devkit_comparison": (lambda spark, ds: devkit_comparison(spark, ds, queries=("Q2",)), [0]),
}


@pytest.mark.parametrize("name", sorted(SCOPES))
def test_each_workflow_is_one_executor_scope(spark, ds, name):
    """``execute`` calls, counted wherever it is imported, with the
    number of calls still running at each entry; the workflow leaves the
    persisted RDDs as it found them, whatever earlier tests left."""
    original, entries, depth = pipeline.execute, [], 0

    def counting(*args, **kw):
        nonlocal depth
        entries.append(depth)
        depth += 1
        try:
            return original(*args, **kw)
        finally:
            depth -= 1

    run, want = SCOPES[name]
    persistent = spark.sparkContext._jsc.sc().getPersistentRDDs
    before = persistent().size()
    with pytest.MonkeyPatch.context() as mp:
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro.")
                    and getattr(module, "execute", None) is original):
                mp.setattr(module, "execute", counting)
        run(spark, ds)
    assert entries == want
    assert persistent().size() == before


def test_only_the_executor_caches():
    """No code in ``src/repro`` or ``jobs``, the executor in
    ``core/pipeline.py`` included, persists, caches or unpersists a
    DataFrame, or caches, uncaches or clears a catalog table: the executor
    hands each step's output on as local rows, and a workflow never evicts
    a cache its caller made."""
    calls = []
    for path in sorted([*(ROOT / "src" / "repro").rglob("*.py"), *(ROOT / "jobs").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"persist", "unpersist", "cache",
                                               "clearCache", "cacheTable", "uncacheTable"}):
                calls.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert calls == []


def _values(row) -> tuple:
    """A row's values with NaN made comparable and kept apart from null."""
    return tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in row)


@pytest.mark.parametrize("keep", ["frame_idx >= 0", "frame_idx < 0"], ids=["rows", "empty"])
def test_the_hand_off_keeps_schema_and_values(spark, keep):
    """A one-operator plan's output, as the executor hands it on, has the
    operator's schema and exactly its values: NaN stays NaN, null stays
    null. A pandas round trip would turn the NaN and the null double into
    the same value."""
    source = spark.createDataFrame(
        [("v0", 0, float("nan"), None, None), ("v0", 0, 1.5, 2.0, True), ("v1", 3, None, -0.0, False)],
        "video_id string, frame_idx long, x double, y double, ok boolean",
    )
    charged = []
    step = pipeline.Operator(
        "step",
        lambda run, df: df.filter(keep).withColumn("n", F.lit(7).cast("long")),
        lambda cost, n_in, n_out, rows: charged.append((n_in, sorted(n_out), rows.num_rows)),
    )
    want = step.apply(None, source)
    run = pipeline.execute([step], source)
    got = run.outputs["step"]
    assert run.objects is got
    assert got.schema == want.schema
    assert [_values(r) for r in got.collect()] == [_values(r) for r in want.collect()]
    n_rows = want.count()
    assert charged == [(None, [1, 2] if n_rows else [], n_rows)]


def test_outputs_read_after_the_scope_do_not_rerun_the_plan(spark, q2_worlds):
    """Collecting each operator's output after ``save_videos()`` returned
    runs at most one Spark job: it reads the rows the executor collected
    instead of running the plan again from ``decode``."""
    worlds, _ = q2_worlds
    sc = spark.sparkContext
    prev = sc.getLocalProperty("spark.jobGroup.id")
    try:
        for setup, w in worlds.items():
            for name, df in w.vp_result.outputs.items():
                gid = f"read-after-scope/{setup}/{name}"
                sc.setJobGroup(gid, gid)
                df.collect()
                assert len(sc.statusTracker().getJobIdsForGroup(gid)) <= 1, (setup, name)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", prev)


def _assert_only_the_detector_ran(w: World) -> None:
    """The detector was charged once per frame it was given, and every
    later operator counted nothing."""
    vp = w.vp_result
    given = vp.outputs["rvp" if "rvp" in vp.outputs else "decode"]
    n_frames = given.select("video_id", "frame_idx").distinct().count()
    assert n_frames > 0 and vp.cost.count("yolo") == n_frames
    later = {"otp", "geom3d", "depth", "efs", "track", "query_engine"}
    assert {op: vp.cost.count(op) for op in later} == dict.fromkeys(later, 0)


@pytest.mark.parametrize("setup", ["SB", "S6"])
def test_a_world_with_no_detections(spark, ds, setup):
    """Every object is out of camera range: the workflow returns an empty
    manifest, and only the detector does any work."""
    far = dataclasses.replace(ds, gt=ds.gt.assign(x=ds.gt["x"] + 1e5))
    w, manifest = _world(spark, far, setup)
    assert len(manifest) == 0
    _assert_only_the_detector_ran(w)


@pytest.mark.parametrize("setup", ["SB", "S6"])
def test_a_world_with_no_objects(spark, ds, setup):
    """An empty ground-truth table, a video with nothing in it, keeps its
    schema: the workflow returns an empty manifest, and only the detector
    does any work."""
    w, manifest = _world(spark, dataclasses.replace(ds, gt=ds.gt.iloc[:0]), setup)
    assert len(manifest) == 0
    _assert_only_the_detector_ran(w)


@pytest.mark.parametrize("setup", ["SB", "S6"])
def test_a_world_with_no_frames(spark, ds, setup):
    """An empty camera table keeps its schema: the workflow returns an
    empty manifest, and every operator counts nothing."""
    w, manifest = _world(spark, dataclasses.replace(ds, cameras=ds.cameras.iloc[:0]), setup)
    assert len(manifest) == 0
    cost = w.vp_result.cost
    assert cost.entries and all(cost.count(op) == 0 for op in cost.entries)


@pytest.mark.parametrize("setup", ["SB", "S6"])
def test_a_world_with_no_construct_of_the_queried_type(spark, ds, setup):
    """Q2 asks for cars in an intersection on a road with none: the
    workflow returns an empty manifest. Under S6 the Road Visibility
    Pruner sees no intersection in any frame, so the detector gets none."""
    road = dataclasses.replace(ds.road, df=ds.road.df[ds.road.df["type"] != "intersection"])
    w, manifest = _world(spark, dataclasses.replace(ds, road=road), setup)
    assert len(manifest) == 0
    cost = w.vp_result.cost
    assert cost.count("decode") == ds.n_frames
    assert cost.count("yolo") == (0 if setup == "S6" else ds.n_frames)
