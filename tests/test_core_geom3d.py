"""Tests for §6.3 Geometry-Based 3D Location Estimator."""
import numpy as np
import pytest

from repro.core.geom3d import estimate_3d_geometry, geometry_pandas
from repro.video.detector import project_detections
from tests.helpers import joined_frame_objects, make_frames, make_gt


def _dets(objs, n_frames=1, **kw):
    frames = make_frames(n_frames, **kw)
    gt = make_gt(objs, n_frames)
    return project_detections(joined_frame_objects(frames, gt))


def test_ground_car_located_accurately():
    det = _dets([dict(oid=1, otype="car", x=20, y=0)])
    out = geometry_pandas(det)
    r = out.iloc[0]
    assert r["est_src"] == "geometry"
    # Bottom-center of the box is the rear/near ground contact: within
    # the car's footprint of the true center.
    assert r["wx"] == pytest.approx(20.0, abs=3.0)
    assert r["wy"] == pytest.approx(0.0, abs=1.0)
    assert r["wz"] == 0.0


def test_geometry_is_exact_for_point_like_contact():
    # A distant person: bbox bottom-center ~ ground contact point.
    det = _dets([dict(oid=1, otype="person", x=30, y=2)])
    out = geometry_pandas(det)
    r = out.iloc[0]
    assert r["wx"] == pytest.approx(30.0, abs=1.0)
    assert r["wy"] == pytest.approx(2.0, abs=0.5)


def test_elevated_object_falls_back_to_depth():
    # A traffic light whose bbox bottom sits above the horizon: the
    # ground ray points upward -> §6.3's behind-camera fallback.
    det = _dets([dict(oid=1, otype="traffic light", x=12, y=0, z=4.0)])
    assert len(det) == 1
    out = geometry_pandas(det)
    assert out.iloc[0]["est_src"] == "depth_fallback"
    assert np.isfinite(out.iloc[0]["wx"])


def test_mixed_rows_sources():
    det = _dets(
        [dict(oid=1, otype="car", x=20, y=0), dict(oid=2, otype="traffic light", x=12, y=3, z=4.0)]
    )
    out = geometry_pandas(det)
    src = dict(zip(out["gt_oid"], out["est_src"]))
    assert src[1] == "geometry" and src[2] == "depth_fallback"


def test_empty_chunk():
    import pandas as pd

    out = geometry_pandas(pd.DataFrame(columns=["x1"]))
    assert len(out) == 0
    assert "est_src" in out.columns


def test_geometry_more_accurate_than_depth_for_ground_objects():
    from repro.video.depth import _estimate_chunk

    det = _dets([dict(oid=i, otype="car", x=15 + 7 * i, y=(i % 3) - 1) for i in range(5)])
    geo = geometry_pandas(det)
    dep = _estimate_chunk(det)
    # Geometry is deterministic given the box; depth carries +-5 % noise.
    # Against the known bottom-center ground truth both are close, but
    # the geometric estimate of distance shows no noise scatter.
    d_geo = np.hypot(geo["wx"] - geo["cam_x"], geo["wy"] - geo["cam_y"])
    d_dep = np.hypot(dep["wx"] - dep["cam_x"], dep["wy"] - dep["cam_y"])
    true_d = det["gt_zcam"].to_numpy()
    assert np.abs(d_geo - true_d).mean() <= np.abs(d_dep - true_d).mean() + 1.5


def test_estimate_3d_geometry_spark(spark):
    det = _dets([dict(oid=1, otype="car", x=25, y=1)], n_frames=6)
    out = estimate_3d_geometry(spark.createDataFrame(det)).toPandas()
    assert len(out) == 6
    assert (out["est_src"] == "geometry").all()
    assert out["wz"].abs().max() == 0.0
