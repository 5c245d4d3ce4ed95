"""Tests for the video processor's executor: every operator calls its layer
function through ``repro.core.pipeline``'s globals (the contract the
per-layer tracer depends on), and every plan that tracks charges the
tracker by the per-frame counts of its output."""
from collections import Counter

import pytest
from pyspark.sql import DataFrame

from repro.baselines.otif import run_otif
from repro.baselines.skyquery import run_skyquery, run_spatialyze_with_skyquery_models
from repro.core import pipeline
from repro.core.queries import query
from repro.core.sflow import World
from repro.experiments import SETUPS
from repro.video.costmodel import tracker_frame_cost
from repro.world.datasets import nuscenes_lite, skyquery_lite

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
    _assert_tracker_charge(vp.objects, vp.cost, worlds[setup].plan.tracker_variant)


def test_otif_tracker_charge(spark, ds):
    tracked, cost, _ = run_otif(ds.cameras_sdf(spark), ds.gt_sdf(spark))
    _assert_tracker_charge(tracked, cost, "strongsort")


@pytest.fixture(scope="module")
def sky(spark):
    sq = skyquery_lite(seed=0, n_frames=120)
    return sq.cameras_sdf(spark), sq.gt_sdf(spark), sq.road_sdf(spark)


def test_skyquery_tracker_charge(sky):
    cams, gt, _ = sky
    tracked, cost, _ = run_skyquery(cams, gt)
    _assert_tracker_charge(tracked, cost, "sort")


def test_spatialyze_with_skyquery_models_tracker_charge(sky):
    tracked, cost, _ = run_spatialyze_with_skyquery_models(*sky)
    _assert_tracker_charge(tracked, cost, "sort")
