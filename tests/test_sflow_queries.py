"""End-to-end S-Flow workflow tests: every Table 1 query on a crafted
scene whose correct answer is known by construction (T1 in DESIGN.md).

The grid has 70 m blocks; the central intersection of interest spans
x,y in [66.5, 73.5] x [-3.5, 3.5] around the node (70, 0). A static
camera on the eastbound lane at (35, -1.75) looks east at it.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.predicates import camera, contains, geo_construct, obj, same_direction
from repro.core.queries import query
from repro.core.sflow import GeospatialVideo, World
from repro.world.roadnetwork import grid_road_network
from tests.helpers import make_frames, make_gt

FPS = 12.0
N = 48


@pytest.fixture(scope="module")
def road():
    return grid_road_network(3, 3, spacing=70.0)


def run(spark, road, objs, pred, *, cam_pos=(35.0, -1.75), cam_heading=0.0, n=N,
        optimizations=frozenset({"rvp", "otp", "geom3d", "efs"})):
    frames = make_frames(n, pos=cam_pos, heading=cam_heading, fps=FPS)
    gt = make_gt(objs, n, fps=FPS)
    w = World(spark, optimizations=optimizations)
    w.add_geog_constructs(road)
    w.add_video(GeospatialVideo(frames, gt, FPS))
    w.filter(pred)
    objects, cost = w.get_objects()
    return objects, cost, w


def vp_output(w: World) -> pd.DataFrame:
    """The video processor's output of the last observation: the last
    plan operator's, which the Movable Objects step read."""
    return w.vp_result.outputs[w.plan.operators[-1]].toPandas()


def oids(objects: pd.DataFrame, tracked: pd.DataFrame) -> set[int]:
    """Map matched track ids back to ground-truth object ids."""
    t = tracked[tracked["track_id"] >= 0]
    tid_to_gt = t.groupby("track_id")["gt_oid"].agg(lambda s: s.mode().iloc[0])
    return {int(tid_to_gt[tid]) for tid in objects["oid"] if tid in tid_to_gt.index}


def test_q1_person_perpendicular_at_intersection(spark, road):
    objs = [
        # In the intersection, walking north: perpendicular to the camera.
        dict(oid=1, otype="person", x=70.0, y=0.0, fy=lambda f: -2.0 + 0.115 * f),
        # Mid-block walker: not at any intersection -> excluded.
        dict(oid=2, otype="person", x=45.0, y=-1.0, fy=lambda f: -1.0 + 0.115 * f),
        # In the intersection but walking east (parallel) -> excluded.
        dict(oid=3, otype="person", y=1.5, x=68.0, fx=lambda f: 68.0 + 0.115 * f),
    ]
    objects, _, w = run(spark, road, objs, query("Q1"))
    got = oids(objects, vp_output(w))
    assert got == {1}


def test_q2_two_cars_opposite_at_intersection(spark, road):
    objs = [
        dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 62.0 + 0.9 * f, heading=0.0),
        dict(oid=2, otype="car", y=1.75, x=0, fx=lambda f: 78.0 - 0.9 * f, heading=180.0),
        # A parked car in the intersection (no heading): not "moving
        # opposite" to anything, must not break the others.
        dict(oid=3, otype="car", x=69.0, y=3.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q2"))
    got = oids(objects, vp_output(w))
    assert {1, 2} <= got


def test_q3_wrong_way_camera_oncoming_car(spark, road):
    # Camera sits in the westbound lane (y=1.75) but faces east: opposite
    # to that lane's direction. An oncoming car drives the lane properly.
    objs = [
        dict(oid=1, otype="car", y=1.75, x=0, fx=lambda f: 55.0 - 0.9 * f, heading=180.0),
        # Same lane but also wrong-way (same direction as camera): excluded.
        dict(oid=2, otype="car", y=1.75, x=0, fx=lambda f: 20.0 + 0.9 * f, heading=0.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q3"), cam_pos=(35.0, 1.75))
    got = oids(objects, vp_output(w))
    assert 1 in got
    assert 2 not in got


def test_q4_convoy_and_opposite_pair(spark, road):
    objs = [
        dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 45.0 + 0.8 * f, heading=0.0),
        dict(oid=2, otype="car", y=1.75, x=0, fx=lambda f: 58.0 - 0.8 * f, heading=180.0),
        dict(oid=3, otype="car", y=1.75, x=0, fx=lambda f: 64.0 - 0.8 * f, heading=180.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q4"))
    got = oids(objects, vp_output(w))
    assert got == {1, 2, 3}


def test_q5_person_at_intersection(spark, road):
    objs = [
        dict(oid=1, otype="person", x=70.0, y=0.0, fy=lambda f: -2.0 + 0.115 * f),
        dict(oid=2, otype="person", x=45.0, y=-1.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q5"))
    # Q5 is detection-only: objects are per-detection; map via gt.
    # Without a tracker each detection is its own Movable Object.
    dets = vp_output(w)
    got = set(dets.merge(objects, left_on="det_id", right_on="oid")["gt_oid"])
    assert got == {1}


def test_q6_two_cars_at_intersection(spark, road):
    objs = [
        dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 62.0 + 0.9 * f, heading=0.0),
        dict(oid=2, otype="car", y=1.75, x=0, fx=lambda f: 78.0 - 0.9 * f, heading=180.0),
        dict(oid=3, otype="person", x=70.0, y=2.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q6"))
    # Without a tracker each detection is its own Movable Object.
    dets = vp_output(w)
    got = set(dets.merge(objects, left_on="det_id", right_on="oid")["gt_oid"])
    assert got == {1, 2}


def test_q7_car_near_camera_on_lane(spark, road):
    objs = [
        dict(oid=1, otype="car", y=-1.75, x=42.0),  # 7 m ahead: within 10 m
        dict(oid=2, otype="car", y=-1.75, x=60.0),  # 25 m: excluded
    ]
    objects, _, w = run(spark, road, objs, query("Q7"))
    # Without a tracker each detection is its own Movable Object.
    dets = vp_output(w)
    got = set(dets.merge(objects, left_on="det_id", right_on="oid")["gt_oid"])
    assert got == {1}


def test_q8_three_cars_on_lanes(spark, road):
    objs = [
        dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 45.0 + 0.5 * f, heading=0.0),
        dict(oid=2, otype="car", y=1.75, x=0, fx=lambda f: 60.0 - 0.5 * f, heading=180.0),
        dict(oid=3, otype="car", x=71.75, y=0, fy=lambda f: 10.0 + 0.5 * f, heading=90.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q8"))
    # Without a tracker each detection is its own Movable Object.
    dets = vp_output(w)
    got = set(dets.merge(objects, left_on="det_id", right_on="oid")["gt_oid"])
    assert got == {1, 2, 3}


def test_q9_left_turn_with_pedestrian(spark, road):
    def turn_x(f):
        return min(40.0 + 0.9 * f, 70.0)

    def turn_y(f):
        return -1.75 if f <= 33 else min(-1.75 + 0.9 * (f - 33), 30.0)

    objs = [
        dict(oid=1, otype="car", fx=turn_x, fy=turn_y, x=0, y=0),
        dict(oid=2, otype="person", x=68.0, y=-2.5, fy=lambda f: -2.5 + 0.1 * f),
        # A car going straight through: no left turn.
        dict(oid=3, otype="car", y=1.75, x=0, fx=lambda f: 85.0 - 0.9 * f, heading=180.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q9"), n=60)
    got = oids(objects, vp_output(w))
    assert 1 in got and 2 in got
    assert 3 not in got


def test_q10_stopped_car_in_bike_lane(spark, road):
    objs = [
        dict(oid=1, otype="car", x=45.0, y=-4.4),  # parked in the bike lane
        dict(oid=2, otype="car", y=-1.75, x=0, fx=lambda f: 40.0 + 0.9 * f, heading=0.0),
    ]
    objects, _, w = run(spark, road, objs, query("Q10"))
    got = oids(objects, vp_output(w))
    assert got == {1}


def test_save_videos_manifest_contiguous(spark, road):
    objs = [dict(oid=1, otype="person", x=70.0, y=0.0, fy=lambda f: -2.0 + 0.115 * f)]
    frames = make_frames(N, pos=(35.0, -1.75), heading=0.0, fps=FPS)
    gt = make_gt(objs, N, fps=FPS)
    w = World(spark).add_geog_constructs(road)
    w.add_video(GeospatialVideo(frames, gt, FPS))
    w.filter(query("Q5"))
    manifest, cost = w.save_videos()
    assert len(manifest) >= 1
    assert (manifest["end_frame"] >= manifest["start_frame"]).all()
    assert (manifest["n_frames"] == manifest["end_frame"] - manifest["start_frame"] + 1).all()
    assert cost.ms("compose") > 0


def test_cost_report_structure(spark, road):
    objs = [
        dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 45.0 + 0.5 * f, heading=0.0),
        # Floating above the horizon: its ground ray misses, so G3D falls back.
        dict(oid=2, otype="car", x=55.0, y=1.75, z=6.0),
    ]
    _, cost, w = run(spark, road, objs, query("Q6"))
    for op in ("integrate", "decode", "rvp", "yolo", "otp", "geom3d", "query_engine"):
        assert op in cost.entries, op
    # Under G3D, depth is charged for exactly the fallback frames.
    located = w.vp_result.outputs["loc3d_geometry"].toPandas()
    fallback = located[located["est_src"] == "depth_fallback"]
    assert cost.count("depth") == len(fallback.groupby(["video_id", "frame_idx"])) > 0
    assert cost.total_ms > 0


def test_baseline_vs_optimized_equivalent_results(spark, road):
    # Q6 on the same scene under (SB) and (S6): the optimizations must
    # not change which objects are found here.
    objs = [
        dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 62.0 + 0.9 * f, heading=0.0),
        dict(oid=2, otype="car", y=1.75, x=0, fx=lambda f: 78.0 - 0.9 * f, heading=180.0),
        dict(oid=3, otype="person", x=70.0, y=2.0),
    ]
    res_opt, _, w_opt = run(spark, road, objs, query("Q6"))
    res_base, _, w_base = run(spark, road, objs, query("Q6"), optimizations=frozenset())
    d_opt, d_base = vp_output(w_opt), vp_output(w_base)
    got_opt = set(d_opt.merge(res_opt, left_on="det_id", right_on="oid")["gt_oid"])
    got_base = set(d_base.merge(res_base, left_on="det_id", right_on="oid")["gt_oid"])
    assert got_opt == got_base == {1, 2}


def test_plan_follows_filters_added_after_an_observation(spark, road):
    objs = [dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 40.0 + 0.5 * f, heading=0.0)]
    frames = make_frames(N, pos=(35.0, -1.75), heading=0.0, fps=FPS)
    w = World(spark).add_geog_constructs(road)
    w.add_video(GeospatialVideo(frames, make_gt(objs, N, fps=FPS), FPS))
    w.filter(query("Q7"))
    w.save_videos()
    assert not any(op.startswith("track_") for op in w.plan.operators)
    # A heading predicate needs tracks: the plan must gain the tracker.
    w.filter(same_direction(obj(0), camera()))
    assert "track_strongsort" in w.plan.operators


def test_camera_only_predicate_is_rejected(spark, road):
    # Nothing to detect: the planner refuses before anything runs.
    objs = [dict(oid=1, otype="car", y=-1.75, x=0, fx=lambda f: 40.0 + 0.5 * f, heading=0.0)]
    w = World(spark).add_geog_constructs(road)
    w.add_video(GeospatialVideo(make_frames(N, pos=(35.0, -1.75), fps=FPS),
                                make_gt(objs, N, fps=FPS), FPS))
    w.filter(contains(geo_construct("lane"), camera()))
    with pytest.raises(ValueError, match="predicate references no objects"):
        w.save_videos()
