"""Tests for the Monodepth2 simulation (ML 3D location estimator)."""
import numpy as np
import pandas as pd
import pytest
from pyspark import cloudpickle

import repro.video.depth as depth
from repro.video.depth import DEPTH_GRID, FAR_M, depth_map, estimate_3d_depth, _estimate_chunk
from repro.video.detector import project_detections
from tests.helpers import joined_frame_objects, make_frames, make_gt


def _dets(objs, n_frames=1, **kw):
    frames = make_frames(n_frames, **kw)
    gt = make_gt(objs, n_frames)
    return project_detections(joined_frame_objects(frames, gt))


def test_depth_map_shape_and_monotone():
    cam = make_frames(1).iloc[0]
    dm = depth_map(cam)
    gw, gh = DEPTH_GRID
    assert dm.shape == (gh, gw)
    # Sky (top rows) is far; ground near the bottom is close.
    assert (dm[0] == FAR_M).all()
    assert dm[-1].min() < 10.0
    # Ground depth increases toward the horizon.
    col = dm[:, gw // 2]
    ground = col[col < FAR_M]
    assert (np.diff(ground) <= 1e-9).all()  # deeper rows are nearer


def test_estimate_frame_location_accuracy():
    det = _dets([dict(oid=1, otype="car", x=20, y=0)])
    out = _estimate_chunk(det)
    r = out.iloc[0]
    # Bottom-center ray at ~true depth: within ~8 % of the true location.
    assert r["wx"] == pytest.approx(20.0, rel=0.15)
    assert abs(r["wy"]) < 2.0
    assert r["wz"] >= 0.0
    assert r["est_src"] == "depth"


def test_estimate_frame_noise_is_deterministic():
    det = _dets([dict(oid=1, otype="car", x=30, y=1)])
    a = _estimate_chunk(det)
    b = _estimate_chunk(det)
    assert a["wx"].iloc[0] == b["wx"].iloc[0]


def test_estimate_frame_noise_varies_by_frame():
    det = _dets([dict(oid=1, otype="car", x=30, y=1)], n_frames=8)
    out = _estimate_chunk(det.copy())  # all rows same camera; per-row noise
    assert out["wx"].nunique() > 1


def test_depth_overestimates_elevated_objects_distance_not_crashing():
    det = _dets([dict(oid=1, otype="traffic light", x=20, y=0, z=2.5)])
    if len(det):
        out = _estimate_chunk(det)
        assert np.isfinite(out[["wx", "wy", "wz"]].to_numpy()).all()


def test_estimate_3d_depth_spark(spark):
    det = _dets(
        [dict(oid=1, otype="car", x=20, y=0), dict(oid=2, otype="car", x=35, y=2)], n_frames=4
    )
    sdf = spark.createDataFrame(det)
    out = estimate_3d_depth(sdf).toPandas()
    assert len(out) == len(det)
    assert {"wx", "wy", "wz", "est_src"} <= set(out.columns)
    assert (out["est_src"] == "depth").all()
    near = out[out["gt_oid"] == 1]["wx"]
    far = out[out["gt_oid"] == 2]["wx"]
    assert near.mean() < far.mean()


def _moving_dets(n_frames=12):
    """Detections of three objects seen by two moving cameras."""
    parts = []
    for video_id, y in (("v0", 0.0), ("v1", 4.0)):
        xs = np.arange(n_frames) * 1.5
        frames = make_frames(n_frames, video_id=video_id, pos=(0.0, y), xs=xs)
        objs = [dict(oid=1, x=20, y=y), dict(oid=2, x=35, y=y + 2),
                dict(oid=3, otype="truck", x=50, y=y - 2)]
        gt = make_gt(objs, n_frames, video_id=video_id)
        parts.append(project_detections(joined_frame_objects(frames, gt)))
    return pd.concat(parts, ignore_index=True)


def _by_det(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf.sort_values(["video_id", "frame_idx", "det_id"]).reset_index(drop=True)


@pytest.mark.parametrize("n", [1, 8])
def test_estimate_3d_depth_matches_frame_by_frame(spark, n):
    det = _moving_dets()
    want = _by_det(pd.concat(
        [_estimate_chunk(g) for _, g in det.groupby(["video_id", "frame_idx"])]
    ))
    got = _by_det(estimate_3d_depth(spark.createDataFrame(det).repartition(n)).toPandas())
    assert len(got) == len(det) and got["frame_idx"].nunique() > 1
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)


def test_depth_map_once_per_frame_per_partition(spark, monkeypatch):
    # Count depth_map calls in the Python workers: pickle this module by
    # value so the patched depth_map travels with the operator.
    det = _moving_dets()
    sdf = spark.createDataFrame(det)  # a local relation, as the executor hands it
    calls = spark.sparkContext.accumulator(0)
    real = depth.depth_map

    def counted(cam):
        calls.add(1)
        return real(cam)

    monkeypatch.setattr(depth, "depth_map", counted)
    cloudpickle.register_pickle_by_value(depth)
    try:
        out = estimate_3d_depth(sdf)
    finally:
        cloudpickle.unregister_pickle_by_value(depth)
    assert out.count() == len(det)
    n_frames = len(det.drop_duplicates(["video_id", "frame_idx"]))
    assert n_frames <= calls.value <= n_frames + sdf.rdd.getNumPartitions()


def test_estimate_3d_depth_plan_is_narrow(spark):
    out = estimate_3d_depth(spark.createDataFrame(_moving_dets()))
    out.collect()
    plan = out._jdf.queryExecution().executedPlan().toString()
    assert "MapInPandas" in plan and "Exchange" not in plan
