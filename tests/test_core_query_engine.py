"""Tests for the Movable Objects Query Engine (§5.2.3).

Result-equality tests run the compiled Spark query against hand-written
DuckDB SQL via the oracle. Our road polygons are axis-aligned
rectangles, so DuckDB can express ``contains`` as BETWEEN while Spark
runs the general point-in-polygon path — if they agree, the spatial join
machinery is right. Non-rectangular constructs are checked against
``points_in_polygon`` directly.
"""
import math

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import predicates as P
from repro.core import query_engine, sflow
from repro.core.queries import query
from repro.core.query_engine import combination_count, compile_filter, movable_objects
from repro.core.sflow import World
from repro.experiments import SETUPS
from repro.geo.polygon import points_in_polygon, polygon_bbox
from repro.oracle import assert_equivalent
from repro.world.datasets import nuscenes_lite, road_table
from repro.world.roadnetwork import grid_road_network
from tests.helpers import make_frames, road_of

FPS = 12.0


@pytest.fixture(scope="module")
def road():
    return grid_road_network(3, 3, spacing=70.0)


@pytest.fixture(scope="module")
def objects_pdf(road):
    """A synthetic Movable Objects table with varied placements."""
    rng = np.random.default_rng(42)
    rows = []
    for vid in ("v0", "v1"):
        for oid in range(10):
            otype = ["car", "person", "truck"][oid % 3]
            x0, y0 = rng.uniform(-8, 78, 2)
            hd = rng.uniform(0, 360)
            for f in range(10):
                rows.append(
                    {
                        "video_id": vid,
                        "frame_idx": f,
                        "ts": f / FPS,
                        "oid": oid,
                        "otype": otype,
                        "x": x0 + 0.5 * f,
                        "y": y0 + 0.2 * f,
                        "z": 0.0,
                        "heading": (hd + f) % 360.0,
                        "speed": rng.uniform(0, 12),
                        "turn_left": bool(oid % 4 == 1),
                        "stopped": bool(oid % 5 == 2),
                    }
                )
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def cams_pdf():
    a = make_frames(10, pos=(10.0, -1.75), heading=0.0, video_id="v0")
    b = make_frames(10, pos=(35.0, 68.25), heading=90.0, video_id="v1")
    return pd.concat([a, b], ignore_index=True)


@pytest.fixture(scope="module")
def engine_tables(spark, road, objects_pdf, cams_pdf):
    return (
        spark.createDataFrame(objects_pdf),
        spark.createDataFrame(cams_pdf),
        road_table(spark, road),
    )


def _duck_road(road):
    return road.df.drop(columns=["poly"])


DIST = "sqrt(power(c.cam_x - {o}.x, 2) + power(c.cam_y - {o}.y, 2)) < 50"


def test_single_object_contains_oracle(engine_tables, road, objects_pdf, cams_pdf):
    objects, cams, road_sdf = engine_tables
    pred = P.And(
        (
            P.type_in(P.obj(0), "car"),
            P.contains(P.geo_construct("intersection"), P.obj(0)),
            P.distance_lt(P.camera(), P.obj(0), 50.0),
        )
    )
    got = compile_filter(objects, cams, road_sdf, pred).select(
        "video_id", "frame_idx", "oid_0"
    )
    sql = f"""
        SELECT DISTINCT o.video_id AS video_id, o.frame_idx AS frame_idx, o.oid AS oid_0
        FROM objects o
        JOIN cams c ON c.video_id = o.video_id AND c.frame_idx = o.frame_idx
        JOIN road g ON g.type = 'intersection'
         AND o.x BETWEEN g.xmin AND g.xmax AND o.y BETWEEN g.ymin AND g.ymax
        WHERE o.otype = 'car' AND {DIST.format(o='o')}
    """
    assert_equivalent(got, sql, objects=objects_pdf, cams=cams_pdf, road=_duck_road(road))


def test_two_object_self_join_oracle(engine_tables, road, objects_pdf, cams_pdf):
    objects, cams, road_sdf = engine_tables
    pred = P.And(
        (
            P.type_in(P.obj(0), "car"),
            P.type_in(P.obj(1), "car"),
            P.contains(P.geo_construct("lanegroup"), [P.obj(0), P.obj(1)]),
            P.distance_lt(P.camera(), P.obj(0), 50.0),
            P.distance_lt(P.camera(), P.obj(1), 50.0),
        )
    )
    got = compile_filter(objects, cams, road_sdf, pred).select(
        "video_id", "frame_idx", "oid_0", "oid_1"
    )
    sql = f"""
        SELECT DISTINCT o1.video_id AS video_id, o1.frame_idx AS frame_idx,
               o1.oid AS oid_0, o2.oid AS oid_1
        FROM objects o1
        JOIN objects o2 ON o1.video_id = o2.video_id
         AND o1.frame_idx = o2.frame_idx AND o1.oid < o2.oid
        JOIN cams c ON c.video_id = o1.video_id AND c.frame_idx = o1.frame_idx
        JOIN road g ON g.type = 'lanegroup'
         AND o1.x BETWEEN g.xmin AND g.xmax AND o1.y BETWEEN g.ymin AND g.ymax
         AND o2.x BETWEEN g.xmin AND g.xmax AND o2.y BETWEEN g.ymin AND g.ymax
        WHERE o1.otype = 'car' AND o2.otype = 'car'
         AND {DIST.format(o='o1')} AND {DIST.format(o='o2')}
    """
    assert_equivalent(got, sql, objects=objects_pdf, cams=cams_pdf, road=_duck_road(road))


def test_heading_diff_oracle(engine_tables, road, objects_pdf, cams_pdf):
    objects, cams, road_sdf = engine_tables
    pred = P.And(
        (
            P.type_in(P.obj(0), "car", "truck"),
            P.perpendicular(P.obj(0), P.camera()),
        )
    )
    got = compile_filter(objects, cams, road_sdf, pred).select(
        "video_id", "frame_idx", "oid_0"
    )
    sql = """
        SELECT DISTINCT o.video_id AS video_id, o.frame_idx AS frame_idx, o.oid AS oid_0
        FROM objects o
        JOIN cams c ON c.video_id = o.video_id AND c.frame_idx = o.frame_idx
        WHERE o.otype IN ('car', 'truck')
          AND least(abs(o.heading - c.cam_heading), 360 - abs(o.heading - c.cam_heading))
              BETWEEN 70 AND 110
    """
    assert_equivalent(got, sql, objects=objects_pdf, cams=cams_pdf, road=_duck_road(road))


def test_lane_heading_predicates_oracle(engine_tables, road, objects_pdf, cams_pdf):
    # Q3-style: contains(lane, [camera, car]) & opposite(lane, camera)
    # & same_direction(lane, car) & distance < 10.
    objects, cams, road_sdf = engine_tables
    pred = P.And(
        (
            P.type_in(P.obj(0), "car"),
            P.contains(P.geo_construct("lane"), [P.camera(), P.obj(0)]),
            P.opposite(P.geo_construct("lane"), P.camera()),
            P.same_direction(P.geo_construct("lane"), P.obj(0)),
            P.distance_lt(P.camera(), P.obj(0), 10.0),
        )
    )
    got = compile_filter(objects, cams, road_sdf, pred).select(
        "video_id", "frame_idx", "oid_0"
    )
    sql = """
        SELECT DISTINCT o.video_id AS video_id, o.frame_idx AS frame_idx, o.oid AS oid_0
        FROM objects o
        JOIN cams c ON c.video_id = o.video_id AND c.frame_idx = o.frame_idx
        JOIN road g ON g.type = 'lane'
         AND o.x BETWEEN g.xmin AND g.xmax AND o.y BETWEEN g.ymin AND g.ymax
         AND c.cam_x BETWEEN g.xmin AND g.xmax AND c.cam_y BETWEEN g.ymin AND g.ymax
        WHERE o.otype = 'car'
          AND least(abs(g.heading - c.cam_heading), 360 - abs(g.heading - c.cam_heading))
              BETWEEN 140 AND 180
          AND least(abs(g.heading - o.heading), 360 - abs(g.heading - o.heading))
              BETWEEN 0 AND 40
          AND sqrt(power(c.cam_x - o.x, 2) + power(c.cam_y - o.y, 2)) < 10
    """
    assert_equivalent(got, sql, objects=objects_pdf, cams=cams_pdf, road=_duck_road(road))


def test_turn_left_and_stopped_flags(engine_tables, road, objects_pdf, cams_pdf):
    objects, cams, road_sdf = engine_tables
    pred = P.And((P.type_in(P.obj(0), "car", "truck", "person"), P.turn_left(P.obj(0))))
    got = compile_filter(objects, cams, road_sdf, pred).select(
        "video_id", "frame_idx", "oid_0"
    )
    sql = """
        SELECT DISTINCT video_id, frame_idx, oid AS oid_0 FROM objects
        WHERE turn_left AND otype IN ('car','truck','person')
    """
    assert_equivalent(got, sql, objects=objects_pdf, cams=cams_pdf, road=_duck_road(road))


def test_different_types_use_neq_not_lt(engine_tables, road):
    # car + person pair must NOT dedupe by oid ordering.
    objects, cams, road_sdf = engine_tables
    pred = P.And(
        (
            P.type_in(P.obj(0), "car"),
            P.type_in(P.obj(1), "person"),
            P.distance_lt(P.obj(0), P.obj(1), 30.0),
        )
    )
    got = compile_filter(objects, cams, road_sdf, pred).toPandas()
    if len(got):
        # person oids may be smaller than car oids: pairs survive anyway.
        assert (got["otype_0"] == "car").all()
        assert (got["otype_1"] == "person").all()


def test_empty_result_ok(engine_tables, road):
    objects, cams, road_sdf = engine_tables
    pred = P.And(
        (P.type_in(P.obj(0), "bicycle"), P.contains(P.geo_construct("lane"), P.obj(0)))
    )
    got = compile_filter(objects, cams, road_sdf, pred)
    assert got.count() == 0


# ---------------------------------------------------------------- lane lookups

# (video, oid, x, y, heading): cars placed in the lanes of ``road`` around
# each camera — lane 9 (eastbound, y in [-3.5, 0]) and lane 10 (westbound,
# y in [0, 3.5]) for v0; lanes 19/20 (y in [66.5, 70] / [70, 73.5]) for
# v1. Oid 3 sits on the edge the two lanes share, oid 4 in an
# intersection, oid 5 out of camera range, oid 7 is a truck.
LANE_CARS = [
    ("v0", 0, 15.0, -1.75, 0.0), ("v0", 1, 30.0, 1.75, 180.0), ("v0", 2, 40.0, 1.75, 180.0),
    ("v0", 3, 25.0, 0.0, 0.0), ("v0", 4, 0.0, 0.0, 90.0), ("v0", 5, 80.0, -1.75, 0.0),
    ("v0", 6, 20.0, 2.5, 170.0), ("v0", 7, 35.0, -1.0, 0.0),
    ("v1", 0, 40.0, 68.25, 0.0), ("v1", 1, 30.0, 71.75, 180.0), ("v1", 2, 50.0, 71.75, 185.0),
    ("v1", 3, 45.0, 70.0, 180.0), ("v1", 6, 20.0, 72.0, 175.0),
]


@pytest.fixture(scope="module")
def lane_objects_pdf():
    rows = []
    for vid, oid, x, y, hd in LANE_CARS:
        for f in range(6):
            rows.append(
                {
                    "video_id": vid, "frame_idx": f, "ts": f / FPS, "oid": oid,
                    "otype": "truck" if oid == 7 else "car",
                    "x": x + 0.5 * f * np.cos(np.deg2rad(hd)), "y": y, "z": 0.0,
                    "heading": hd % 360.0, "speed": 6.0, "turn_left": False, "stopped": False,
                }
            )
    return pd.DataFrame(rows)


CIRC = "least(abs({a} - {b}), 360 - abs({a} - {b}))"
IN = "{o}.x BETWEEN {g}.xmin AND {g}.xmax AND {o}.y BETWEEN {g}.ymin AND {g}.ymax"


def test_three_lane_refs_oracle(spark, road, lane_objects_pdf, cams_pdf):
    # Q8's shape: three cars, each on its own lane reference.
    cars = [P.obj(i) for i in range(3)]
    pred = P.And(
        (
            *[P.type_in(c, "car") for c in cars],
            *[P.contains(P.geo_construct("lane", i), c) for i, c in enumerate(cars)],
            *[P.distance_lt(P.camera(), c, 50.0) for c in cars],
        )
    )
    got = compile_filter(
        spark.createDataFrame(lane_objects_pdf), spark.createDataFrame(cams_pdf),
        road_table(spark, road), pred,
    ).select("video_id", "frame_idx", "oid_0", "oid_1", "oid_2")
    sql = f"""
        SELECT DISTINCT o1.video_id AS video_id, o1.frame_idx AS frame_idx,
               o1.oid AS oid_0, o2.oid AS oid_1, o3.oid AS oid_2
        FROM objects o1
        JOIN objects o2 ON o2.video_id = o1.video_id AND o2.frame_idx = o1.frame_idx
        JOIN objects o3 ON o3.video_id = o1.video_id AND o3.frame_idx = o1.frame_idx
        JOIN cams c ON c.video_id = o1.video_id AND c.frame_idx = o1.frame_idx
        JOIN road g1 ON g1.type = 'lane' AND {IN.format(o='o1', g='g1')}
        JOIN road g2 ON g2.type = 'lane' AND {IN.format(o='o2', g='g2')}
        JOIN road g3 ON g3.type = 'lane' AND {IN.format(o='o3', g='g3')}
        WHERE o1.otype = 'car' AND o2.otype = 'car' AND o3.otype = 'car'
          AND o1.oid < o2.oid AND o1.oid < o3.oid AND o2.oid < o3.oid
          AND {DIST.format(o='o1')} AND {DIST.format(o='o2')} AND {DIST.format(o='o3')}
    """
    assert got.count() > 0
    assert_equivalent(got, sql, objects=lane_objects_pdf, cams=cams_pdf, road=_duck_road(road))


def test_opposite_lane_refs_oracle(spark, road, lane_objects_pdf, cams_pdf):
    # Q4's shape: two lane references tied by opposite(lane1, lane2).
    car1, car2, car3 = P.obj(0), P.obj(1), P.obj(2)
    lane1, lane2 = P.geo_construct("lane", 0), P.geo_construct("lane", 1)
    pred = P.And(
        (
            P.type_in(car1, "car"), P.type_in(car2, "car"), P.type_in(car3, "car"),
            P.contains(lane1, [car1, P.camera()]),
            P.same_direction(car1, P.camera()),
            P.contains(lane2, [car2, car3]),
            P.same_direction(car2, car3),
            P.opposite(lane1, lane2),
            *[P.distance_lt(P.camera(), c, 50.0) for c in (car1, car2, car3)],
        )
    )
    got = compile_filter(
        spark.createDataFrame(lane_objects_pdf), spark.createDataFrame(cams_pdf),
        road_table(spark, road), pred,
    ).select("video_id", "frame_idx", "oid_0", "oid_1", "oid_2")
    sql = f"""
        SELECT DISTINCT o1.video_id AS video_id, o1.frame_idx AS frame_idx,
               o1.oid AS oid_0, o2.oid AS oid_1, o3.oid AS oid_2
        FROM objects o1
        JOIN objects o2 ON o2.video_id = o1.video_id AND o2.frame_idx = o1.frame_idx
        JOIN objects o3 ON o3.video_id = o1.video_id AND o3.frame_idx = o1.frame_idx
        JOIN cams c ON c.video_id = o1.video_id AND c.frame_idx = o1.frame_idx
        JOIN road g1 ON g1.type = 'lane' AND {IN.format(o='o1', g='g1')}
         AND c.cam_x BETWEEN g1.xmin AND g1.xmax AND c.cam_y BETWEEN g1.ymin AND g1.ymax
        JOIN road g2 ON g2.type = 'lane' AND {IN.format(o='o2', g='g2')}
         AND {IN.format(o='o3', g='g2')}
        WHERE o1.otype = 'car' AND o2.otype = 'car' AND o3.otype = 'car'
          AND o1.oid < o2.oid AND o1.oid < o3.oid AND o2.oid < o3.oid
          AND {CIRC.format(a='o1.heading', b='c.cam_heading')} BETWEEN 0 AND 40
          AND {CIRC.format(a='o2.heading', b='o3.heading')} BETWEEN 0 AND 40
          AND {CIRC.format(a='g1.heading', b='g2.heading')} BETWEEN 140 AND 180
          AND {DIST.format(o='o1')} AND {DIST.format(o='o2')} AND {DIST.format(o='o3')}
    """
    assert got.count() > 0
    assert_equivalent(got, sql, objects=lane_objects_pdf, cams=cams_pdf, road=_duck_road(road))


def test_non_rectangular_constructs_match_points_in_polygon(spark, cams_pdf):
    # A triangle and a diamond: their bboxes hold points the polygons do
    # not, and some grid points fall exactly on their edges.
    polys = [
        np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]]),
        np.array([[50.0, 0.0], [60.0, 10.0], [50.0, 20.0], [40.0, 10.0]]),
    ]
    road = road_of([(cid, "intersection", p, np.nan) for cid, p in enumerate(polys)])
    gx, gy = np.meshgrid(np.arange(-2.0, 63.0, 2.5), np.arange(-2.0, 23.0, 2.5))
    xs, ys = gx.ravel(), gy.ravel()
    objects = pd.DataFrame(
        {"video_id": "v0", "frame_idx": 0, "ts": 0.0, "oid": np.arange(len(xs)), "otype": "car",
         "x": xs, "y": ys, "z": 0.0, "heading": 0.0, "speed": 0.0,
         "turn_left": False, "stopped": False}
    )
    inside = np.zeros(len(xs), dtype=bool)
    in_bbox = np.zeros(len(xs), dtype=bool)
    for p in polys:
        inside |= points_in_polygon(xs, ys, p)
        x0, y0, x1, y1 = polygon_bbox(p)
        in_bbox |= (xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)
    assert (in_bbox & ~inside).sum() > 20 and inside.sum() > 20
    pred = P.And(
        (P.type_in(P.obj(0), "car"), P.contains(P.geo_construct("intersection"), P.obj(0)))
    )
    got = compile_filter(
        spark.createDataFrame(objects), spark.createDataFrame(cams_pdf),
        road_table(spark, road), pred,
    ).toPandas()
    assert sorted(got["oid_0"]) == list(np.flatnonzero(inside))


@pytest.mark.parametrize("name", ["Q3", "Q4", "Q8"])
def test_contains_plan_has_no_nested_loop_join(engine_tables, name):
    objects, cams, road_sdf = engine_tables
    got = compile_filter(objects, cams, road_sdf, query(name))
    got.collect()
    plan = got._jdf.queryExecution().executedPlan().toString()
    assert "CartesianProduct" not in plan and "BroadcastNestedLoopJoin" not in plan
    assert "Generate" in plan


@pytest.mark.parametrize(
    "pred, unbound",
    [
        # Reachable only through Or.
        (P.And((P.type_in(P.obj(0), "car"),
                P.Or((P.contains(P.geo_construct("lane"), P.obj(0)),
                      P.stopped(P.obj(0)))))), "GeoRef(gtype='lane', idx=0)"),
        # Reachable only through Not.
        (P.And((P.type_in(P.obj(0), "car"),
                P.Not(P.contains(P.geo_construct("intersection"), P.obj(0))))),
         "GeoRef(gtype='intersection', idx=0)"),
        # Used only in a heading predicate, next to a bound reference.
        (P.And((P.type_in(P.obj(0), "car"),
                P.contains(P.geo_construct("lane"), P.obj(0)),
                P.opposite(P.geo_construct("lane"), P.geo_construct("lane", 1)))),
         "GeoRef(gtype='lane', idx=1)"),
    ],
)
def test_unbound_geo_ref_is_named(engine_tables, pred, unbound):
    objects, cams, road_sdf = engine_tables
    with pytest.raises(ValueError) as err:
        compile_filter(objects, cams, road_sdf, pred)
    assert unbound in str(err.value)


# ---------------------------------------------------------------- movable_objects


def _tracked(rows):
    df = pd.DataFrame(
        rows,
        columns=["video_id", "frame_idx", "track_id", "otype", "wx", "wy"],
    )
    df["ts"] = df["frame_idx"] / FPS
    df["wz"] = 0.0
    return df


def test_movable_objects_heading_speed(spark):
    rows = [("v0", f, 0, "car", 10.0 * f / FPS, 0.0) for f in range(12)]
    out = movable_objects(spark.createDataFrame(_tracked(rows)), fps=FPS).toPandas()
    assert len(out) == 12
    assert np.allclose(out["heading"], 0.0)
    assert np.allclose(out["speed"], 10.0)
    assert not out["turn_left"].any()
    assert not out["stopped"].any()


def test_movable_objects_stationary_is_stopped(spark):
    rows = [("v0", f, 3, "car", 5.0, 5.0) for f in range(12)]
    out = movable_objects(spark.createDataFrame(_tracked(rows)), fps=FPS).toPandas()
    assert out["stopped"].all()
    assert out["heading"].isna().all()  # no motion, no heading


def test_movable_objects_turn_left(spark):
    # East for 1 s then north for 2 s: the centered +-1.25 s window sees
    # the +90 deg CCW change around the turn, not long after it.
    rows = []
    for f in range(12):
        rows.append(("v0", f, 7, "car", 8.0 * f / FPS, 0.0))
    x_turn = 8.0 * 11 / FPS
    for f in range(12, 36):
        rows.append(("v0", f, 7, "car", x_turn, 8.0 * (f - 11) / FPS))
    out = movable_objects(spark.createDataFrame(_tracked(rows)), fps=FPS).toPandas()
    during = out[(out["frame_idx"] >= 8) & (out["frame_idx"] <= 14)]
    assert during["turn_left"].all()
    late = out[out["frame_idx"] >= 30]
    assert not late["turn_left"].any()


def test_movable_objects_majority_type(spark):
    rows = [("v0", f, 1, "car" if f != 3 else "truck", float(f), 0.0) for f in range(9)]
    out = movable_objects(spark.createDataFrame(_tracked(rows)), fps=FPS).toPandas()
    assert (out["otype"] == "car").all()


@pytest.mark.parametrize("pair", [("car", "truck"), ("bus", "car")])
def test_movable_objects_type_tie_is_deterministic(spark, pair):
    # One detection of each type: the lowest type name wins the tie, at
    # any shuffle partition count and in either input order.
    prev = spark.conf.get("spark.sql.shuffle.partitions")
    votes = set()
    try:
        for partitions in ("1", "8"):
            spark.conf.set("spark.sql.shuffle.partitions", partitions)
            for types in (pair, pair[::-1]):
                rows = [("v0", f, 4, t, float(f), 0.0) for f, t in enumerate(types)]
                tracked = spark.createDataFrame(_tracked(rows)).repartition(2)
                votes |= set(movable_objects(tracked, fps=FPS).toPandas()["otype"])
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", prev)
    assert votes == {min(pair)}


def test_movable_objects_drops_unassigned(spark):
    rows = [("v0", 0, -1, "car", 0.0, 0.0), ("v0", 0, 2, "car", 1.0, 1.0)]
    out = movable_objects(spark.createDataFrame(_tracked(rows)), fps=FPS).toPandas()
    assert len(out) == 1 and out.iloc[0]["oid"] == 2


DETECTIONS = "video_id string, frame_idx long, ts double, det_id long, otype string, " \
    "wx double, wy double, wz double"


@pytest.fixture(scope="module")
def detections(spark):
    """Located detections as a tracker-less plan hands them on: the two
    videos share det_id 1_000_000; one wx is NaN and one is null."""
    rows = [
        ("v0", 0, 0.0, 1_000_000, "car", 1.0, 2.0, 0.0),
        ("v0", 0, 0.0, 2_000_000, "truck", float("nan"), 3.0, 0.0),
        ("v0", 1, 1 / FPS, 1_000_001, "car", None, 2.5, 0.0),
        ("v1", 0, 0.0, 1_000_000, "person", 4.0, -1.0, 0.5),
        ("v1", 2, 2 / FPS, 3_000_002, "car", -2.5, 7.0, 0.0),
    ]
    return spark.createDataFrame(rows, DETECTIONS)


@pytest.fixture(scope="module")
def tracks(spark):
    """Straight tracks, some standing still, with NaN locations
    at frame 5, type votes that can tie and two videos sharing track ids;
    ``det_id`` makes each row a detection too."""
    rng = np.random.default_rng(7)
    rows = []
    for vid in ("v0", "v1"):
        for tid in range(6):
            n = int(rng.integers(1, 30))
            x0, y0, vx, vy = rng.normal(0, 10, 4) * [1, 1, tid % 3, (tid + 1) % 2]
            for f in np.sort(rng.choice(60, n, replace=False)).tolist():
                x = float(x0 + vx * f / FPS) if f != 5 else float("nan")
                rows.append((vid, f, f / FPS, (tid + 1) * 1_000_000 + f, tid,
                             ["car", "truck"][f % 2], x, float(y0 + vy * f / FPS), 0.0))
    return spark.createDataFrame(rows, DETECTIONS.replace("otype", "track_id long, otype"))


def _arrow(df: DataFrame) -> tuple:
    """``df``'s Arrow schema and its rows in key order, NaN made
    comparable and kept apart from null."""
    t = df.toArrow().sort_by([(c, "ascending") for c in ("video_id", "oid", "frame_idx")])
    rows = [tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in r.values())
            for r in t.to_pylist()]
    return t.schema, rows


def _one_row_tracks(dets: DataFrame) -> DataFrame:
    return dets.withColumn("track_id", F.col("det_id"))


@pytest.mark.parametrize("located", [True, False], ids=["3d", "no-3d"])
def test_an_untracked_detection_is_a_one_row_track(detections, located):
    """Without a tracker each detection gets exactly what the window plan
    gives a one-row track: same schema, same values, NaN and null kept."""
    dets = detections if located else detections.drop("wx", "wy", "wz")
    got = movable_objects(dets, fps=FPS)
    assert _arrow(got) == _arrow(movable_objects(_one_row_tracks(dets), fps=FPS))
    out = got.toPandas()
    assert len(out) == 5 and out["heading"].isna().all() and (out["speed"] == 0.0).all()
    assert not out["turn_left"].any() and out["stopped"].all()


@pytest.fixture(scope="module")
def observed(spark):
    """Workflows observed with ``save_videos()``, each with the number of
    Spark jobs its Movable Objects step ran: the step's jobs run under a
    job group of their own, from the call to ``movable_objects`` until
    the query engine's ``compile_filter``."""
    ds = nuscenes_lite(2, seed=0, n_frames=24)
    sc = spark.sparkContext
    prev = sc.getLocalProperty("spark.jobGroup.id")

    def in_group(gid, fn):
        def wrapped(*args, **kw):
            sc.setJobGroup(gid, gid)
            return fn(*args, **kw)

        return wrapped

    worlds = {}
    try:
        with pytest.MonkeyPatch.context() as mp:
            for q, setup in [("Q7", "SB"), ("Q7", "S6"), ("Q5", "SB"), ("Q5", "S6"), ("Q3", "S6")]:
                gid = f"movable-objects/{q}/{setup}"
                mp.setattr(sflow, "movable_objects", in_group(gid, query_engine.movable_objects))
                mp.setattr(sflow, "compile_filter", in_group(f"{gid}/after",
                                                             query_engine.compile_filter))
                w = World.from_dataset(spark, ds, optimizations=SETUPS[setup])
                w.filter(query(q))
                w.save_videos()
                worlds[q, setup] = w, len(sc.statusTracker().getJobIdsForGroup(gid))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", prev)
    return worlds


@pytest.mark.parametrize("q, setup", [("Q7", "SB"), ("Q7", "S6"), ("Q5", "SB"), ("Q5", "S6")])
def test_executor_detections_are_one_row_tracks(observed, q, setup):
    w, _ = observed[q, setup]
    dets = w.vp_result.outputs[w.plan.operators[-1]]
    assert "track_id" not in dets.columns and dets.count() > 0
    got = movable_objects(dets, fps=FPS)
    assert _arrow(got) == _arrow(movable_objects(_one_row_tracks(dets), fps=FPS))


@pytest.mark.parametrize("tracked", [True, False], ids=["tracked", "untracked"])
def test_movable_objects_do_not_depend_on_partitioning(spark, tracks, tracked):
    source = tracks if tracked else tracks.drop("track_id")
    prev = spark.conf.get("spark.sql.shuffle.partitions")
    got = []
    try:
        for partitions in ("1", "8", "64"):
            spark.conf.set("spark.sql.shuffle.partitions", partitions)
            for n in (1, 8):
                got.append(_arrow(movable_objects(source.repartition(n), fps=FPS)))
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", prev)
    assert len(got[0][1]) == tracks.count()
    assert all(g == got[0] for g in got[1:])


def _executed_plan(df: DataFrame) -> str:
    """The physical plan ``df`` ran: under adaptive execution, the final one."""
    df.collect()
    plan = df._jdf.queryExecution().executedPlan()
    if plan.nodeName() == "AdaptiveSparkPlan":
        plan = plan.executedPlan()
    return plan.toString()


def test_untracked_movable_objects_is_one_narrow_select(detections):
    plan = _executed_plan(movable_objects(detections, fps=FPS))
    assert "Exchange" not in plan and "Window" not in plan


def test_tracked_movable_objects_shuffle_once(tracks):
    plan = _executed_plan(movable_objects(tracks, fps=FPS))
    assert plan.count("Exchange") == 1 and "Join" not in plan


@pytest.mark.parametrize("q, setup, most", [("Q7", "SB", 1), ("Q3", "S6", 2)])
def test_movable_objects_step_jobs(observed, q, setup, most):
    """In ``save_videos()`` the step costs one job without a tracker and
    at most two with one: its shuffle's map stage and the collect."""
    w, jobs = observed[q, setup]
    assert any(op.startswith("track_") for op in w.plan.operators) == (q == "Q3")
    assert 1 <= jobs <= most


@pytest.mark.parametrize("k", [1, 2, 3])
def test_combination_count_is_falling_factorial(spark, k):
    per_frame = {("v0", 0): 1, ("v0", 1): 2, ("v0", 2): 3, ("v1", 0): 5, ("v1", 7): 4}
    pdf = pd.DataFrame(
        [{"video_id": v, "frame_idx": f, "oid": i}
         for (v, f), n in per_frame.items() for i in range(n)]
    )
    pred = P.And(tuple(P.type_in(P.obj(i), "car") for i in range(k)))
    want = sum(math.perm(n, k) for n in pdf.groupby(["video_id", "frame_idx"]).size())
    assert combination_count(spark.createDataFrame(pdf), pred) == want > 0
    empty = spark.createDataFrame(pdf.iloc[:0], schema="video_id string, frame_idx long, oid long")
    assert combination_count(empty, pred) == 0
