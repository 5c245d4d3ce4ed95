"""Tests for §6.1 Road Visibility Pruner."""
import numpy as np
import pandas as pd
import pytest

from repro.core.road_visibility import (
    construct_index,
    hulls_pandas,
    prune_frames,
    visible_pandas,
)
from repro.geo.polygon import convex_intersects, point_in_polygon
from repro.video.decoder import decode
from repro.world.datasets import nuscenes_lite, road_table
from repro.world.roadnetwork import grid_road_network
from tests.helpers import make_frames


@pytest.fixture(scope="module")
def road():
    return grid_road_network(3, 3, spacing=70.0)


def test_hulls_pandas_geometry():
    # Camera at (10, -1.75) heading east: hull extends ~50 m east.
    frames = make_frames(1, pos=(10.0, -1.75), heading=0.0)
    h = hulls_pandas(frames, 50.0)
    assert len(h) == 1
    hull = np.array(h.loc[0, "hull"])
    assert len(hull) >= 3
    assert h.loc[0, "hxmin"] == pytest.approx(10.0, abs=1e-6)  # apex
    assert h.loc[0, "hxmax"] == pytest.approx(60.0, abs=1e-6)  # 50 m ahead
    # A point 30 m ahead on the road is inside the viewable area.
    assert point_in_polygon(40.0, -1.75, hull)
    # A point behind the camera is not.
    assert not point_in_polygon(5.0, -1.75, hull)


def test_hull_respects_distance():
    frames = make_frames(1, pos=(0.0, 0.0), heading=90.0)
    h10 = hulls_pandas(frames, 10.0)
    h50 = hulls_pandas(frames, 50.0)
    assert h10.loc[0, "hymax"] == pytest.approx(10.0, abs=1e-6)
    assert h50.loc[0, "hymax"] == pytest.approx(50.0, abs=1e-6)


def visible_types(spark, road, frames: pd.DataFrame, geo_types, distance: float) -> list[set]:
    """The construct types visible from each frame, by the RVP kernel."""
    index = construct_index(road_table(spark, road), geo_types)
    vis = visible_pandas(frames, index, distance)
    return [{t for t, v in zip(index.types, row) if v} for row in vis]


def test_visible_types_camera_facing_intersection(spark, road):
    # From (30, -1.75) heading east, the intersection at (70, 0) is ~36 m
    # ahead: visible. Lanes are visible too.
    frames = make_frames(2, pos=(30.0, -1.75), heading=0.0)
    vis = visible_types(spark, road, frames, {"intersection", "lane"}, 50.0)
    assert vis == [{"intersection", "lane"}] * 2


def test_no_intersection_when_looking_away(spark, road):
    # From block middle heading north (perpendicular to the road), only
    # the narrow cone ahead is visible: no intersection within 50 m.
    frames = make_frames(1, pos=(35.0, -1.75), heading=90.0)
    assert visible_types(spark, road, frames, {"intersection"}, 50.0) == [set()]


def test_prune_frames_keeps_and_drops(spark, road):
    # Two cameras: one seeing an intersection, one not.
    f_yes = make_frames(3, pos=(30.0, -1.75), heading=0.0, video_id="yes")
    f_no = make_frames(3, pos=(35.0, -1.75), heading=90.0, video_id="no")
    frames = decode(spark.createDataFrame(pd.concat([f_yes, f_no], ignore_index=True)))
    assert frames.select("video_id").distinct().count() == 2
    kept = prune_frames(frames, road_table(spark, road), {"intersection"}, 50.0)
    assert kept_set(kept) == {("yes", 0), ("yes", 1), ("yes", 2)}
    plan = kept._jdf.queryExecution().executedPlan().toString()
    assert "CartesianProduct" not in plan and "Exchange" not in plan


def test_prune_frames_requires_all_types(spark, road):
    # bikeLane exists only on some roads; a camera on a road without one
    # fails the {intersection, bikeLane} conjunction. Row j=1 (y=70) has
    # no bike lane; heading west from x=40 sees the (0,70) intersection
    # but no bike lane (the nearest ones are at y=0/140 and x=70 behind).
    frames = spark.createDataFrame(make_frames(2, pos=(40.0, 70 + 1.75), heading=180.0))
    only_int = prune_frames(
        decode(frames), road_table(spark, road), {"intersection"}, 50.0
    ).count()
    both = prune_frames(
        decode(frames), road_table(spark, road), {"intersection", "bikeLane"}, 50.0
    ).count()
    assert only_int == 2
    assert both == 0


def test_prune_frames_empty_types_is_noop(spark, road):
    frames = decode(spark.createDataFrame(make_frames(4)))
    assert prune_frames(frames, road_table(spark, road), set(), 50.0) is frames


def test_prune_distance_matters(spark, road):
    # Intersection 36 m ahead: visible at d=50, not at d=10.
    frames = spark.createDataFrame(make_frames(1, pos=(30.0, -1.75), heading=0.0))
    road_s = road_table(spark, road)
    assert prune_frames(decode(frames), road_s, {"intersection"}, 50.0).count() == 1
    assert prune_frames(decode(frames), road_s, {"intersection"}, 10.0).count() == 0


# ------------------------------------------------- differential + invariance
CASES = [
    ({"intersection"}, 10.0),
    ({"intersection"}, 50.0),
    ({"lane", "intersection"}, 10.0),
    ({"intersection", "bikeLane"}, 50.0),
]


def brute_force_kept(frames: pd.DataFrame, road_df: pd.DataFrame, geo_types, distance):
    """Reference RVP: every construct of each type, no bbox pre-filter."""
    cons = road_df[road_df["type"].isin(geo_types)]
    h = hulls_pandas(frames, distance)
    kept = set()
    for vid, f, hull in zip(h["video_id"], h["frame_idx"], h["hull"]):
        seen = {t for t, p in zip(cons["type"], cons["poly"]) if convex_intersects(hull, p)}
        if seen == set(geo_types):
            kept.add((vid, int(f)))
    return kept


def kept_set(df) -> set:
    return {(r["video_id"], int(r["frame_idx"])) for r in df.select("video_id", "frame_idx").collect()}


def grid_dataset():
    road = grid_road_network(4, 4, spacing=100.0)
    xs = np.linspace(0.0, 300.0, 40)
    cams = pd.concat([
        make_frames(40, video_id="east", pos=(0.0, -1.75), heading=0.0, xs=xs),
        make_frames(40, video_id="west", pos=(0.0, 101.75), heading=180.0, xs=xs[::-1]),
        make_frames(40, video_id="north", pos=(0.0, 50.0), heading=90.0, xs=xs),
    ], ignore_index=True)
    return road, cams


def dataset(name: str, seed: int):
    if name == "grid_road_network":
        return grid_dataset()
    ds = nuscenes_lite(3, seed=seed, n_frames=60)
    return ds.road, ds.cameras


@pytest.mark.parametrize("name,seed", [("nuscenes_lite", s) for s in (0, 3, 6)]
                         + [("grid_road_network", 0)])
def test_prune_frames_matches_brute_force(spark, name, seed):
    road, cams = dataset(name, seed)
    frames = decode(spark.createDataFrame(cams))
    road_s = road_table(spark, road)
    n_kept = []
    for geo_types, distance in CASES:
        want = brute_force_kept(cams, road.df, geo_types, distance)
        got = kept_set(prune_frames(frames, road_s, geo_types, distance))
        assert got == want, (geo_types, distance)
        n_kept.append(len(got))
    # The cases must both keep and drop frames, or the comparison is vacuous.
    assert max(n_kept) > 0 and min(n_kept) < len(cams)


def test_prune_frames_partition_invariant(spark):
    road, cams = grid_dataset()
    frames = decode(spark.createDataFrame(cams))
    road_s = road_table(spark, road)
    for geo_types, distance in CASES:
        base = kept_set(prune_frames(frames, road_s, geo_types, distance))
        for n in (1, 8):
            assert kept_set(prune_frames(frames.repartition(n), road_s, geo_types, distance)) == base


def test_prune_frames_plan_is_narrow(spark, road):
    frames = decode(spark.createDataFrame(make_frames(4, pos=(30.0, -1.75))))
    kept = prune_frames(frames, road_table(spark, road), {"intersection", "lane"}, 50.0)
    assert kept.count() == 4
    plan = kept._jdf.queryExecution().executedPlan().toString()
    assert "MapInPandas" in plan
    assert "CartesianProduct" not in plan and "Exchange" not in plan


def test_prune_frames_no_construct_of_type_keeps_nothing(spark, road):
    frames = decode(spark.createDataFrame(make_frames(3, pos=(30.0, -1.75))))
    no_int = road_table(spark, road).filter("type != 'intersection'")
    assert prune_frames(frames, no_int, {"intersection"}, 50.0).count() == 0
    assert prune_frames(frames, no_int, {"intersection", "lane"}, 50.0).count() == 0
    index = construct_index(no_int, {"intersection", "lane"})
    vis = visible_pandas(make_frames(3, pos=(30.0, -1.75)), index, 50.0)
    assert index.types == ["intersection", "lane"]
    assert not vis[:, 0].any() and vis[:, 1].all()


def test_prune_frames_empty_frames(spark, road):
    frames = decode(spark.createDataFrame(make_frames(3, pos=(30.0, -1.75)))).limit(0)
    road_s = road_table(spark, road)
    kept = prune_frames(frames, road_s, {"intersection"}, 50.0)
    assert kept.count() == 0 and kept.columns == frames.columns
    index = construct_index(road_s, {"intersection"})
    assert visible_pandas(make_frames(3).iloc[:0], index, 50.0).shape == (0, 1)
