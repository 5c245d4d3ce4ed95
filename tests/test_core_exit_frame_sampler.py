"""Tests for §6.4 Exit Frame Sampler."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from repro.core.exit_frame_sampler import MAX_SKIP, sample_frames, sample_frames_pandas
from repro.core.road_visibility import construct_index, hulls_pandas
from repro.geo.polygon import rect_polygon, ray_exit_distance
from repro.world.agents import SPEED_LIMIT_MPS
from repro.world.datasets import road_table
from tests.helpers import make_frames, road_of

FPS = 12.0
BIG_HULL = rect_polygon(-1000, -1000, 1000, 1000).tolist()
LANE = (rect_polygon(0.0, -3.5, 200.0, 0.0), 0.0)  # long eastbound lane
WEST_LANE = (rect_polygon(0.0, 0.0, 200.0, 3.5), 180.0)  # shares LANE's y=0 edge


def _lane_index(spark, lanes):
    """Construct index of a road holding only ``lanes``: (cid, (polygon, heading))."""
    road = road_of([(cid, "lane", poly, heading) for cid, (poly, heading) in lanes])
    return construct_index(road_table(spark, road), {"lane"})


@pytest.fixture(scope="module")
def lanes(spark):
    return _lane_index(spark, [(0, LANE)])


def _dets(rows):
    """rows: list of (frame_idx, wx, wy)"""
    return pd.DataFrame(
        {
            "frame_idx": [r[0] for r in rows],
            "wx": [float(r[1]) for r in rows],
            "wy": [float(r[2]) for r in rows],
            "otype": "car",
        }
    )


def _hulls(n, hull=BIG_HULL):
    return pd.DataFrame({"frame_idx": range(n), "hull": [hull] * n})


def _car_rows(n, x0=10.0, speed=SPEED_LIMIT_MPS):
    return [(f, x0 + speed * f / FPS, -1.75) for f in range(n)]


def test_ray_exit_distance_in_lane():
    assert ray_exit_distance((10.0, -1.75), 0.0, LANE[0]) == pytest.approx(190.0)
    assert ray_exit_distance((10.0, -1.75), 90.0, LANE[0]) == pytest.approx(1.75)


def test_far_from_exit_samples_max_skip(lanes):
    # Car mid-lane: exitsLane is ~200 frames away; samples every MAX_SKIP.
    dets = _dets(_car_rows(40))
    sampled = sample_frames_pandas(dets, _hulls(40), lanes, fps=FPS)
    assert sampled[0] == 0
    assert sampled[1] == MAX_SKIP
    diffs = np.diff(sampled)
    assert (diffs == MAX_SKIP).all()


def test_exits_lane_event_samples_before_exit(lanes):
    # Car 5 m from the lane end at 25 mph: exits after ~5.4 frames.
    dets = _dets([(f, 195.0 + SPEED_LIMIT_MPS * f / FPS, -1.75) for f in range(12)])
    sampled = sample_frames_pandas(dets, _hulls(12), lanes, fps=FPS)
    expected = int(np.floor(5.0 / SPEED_LIMIT_MPS * FPS))  # frame 5
    assert sampled[1] == expected


def test_car_in_intersection_no_skip(lanes):
    # Car outside any lane (in an intersection): every frame sampled.
    dets = _dets([(f, 300.0, 50.0) for f in range(6)])
    sampled = sample_frames_pandas(dets, _hulls(6), lanes, fps=FPS)
    assert sampled == [0, 1, 2, 3, 4, 5]


def test_exits_camera_event(lanes):
    # Hull only covers x < 20: the car leaves the view after ~10 frames.
    hull = rect_polygon(-10, -10, 20, 10).tolist()
    dets = _dets(_car_rows(30))
    sampled = sample_frames_pandas(dets, _hulls(30, hull), lanes, fps=FPS)
    # Car at x=10+0.93f: leaves hull (x>20) at f~=11 -> sample f=10.
    assert sampled[1] in (9, 10)


def test_new_car_event(lanes):
    # A second car appears at frame 4: sampling must include frame 4.
    rows = _car_rows(30)
    rows += [(f, 50.0, -1.75) for f in range(4, 30)]
    dets = _dets(rows)
    sampled = sample_frames_pandas(dets, _hulls(30), lanes, fps=FPS)
    assert 4 in sampled


def test_missing_hull_stops_skip(lanes):
    # Frames 5.. have no hull rows (e.g. pruned upstream): the car "exits
    # the camera" at frame 5, so frame 4 is sampled.
    dets = _dets(_car_rows(20))
    hulls = _hulls(5)
    sampled = sample_frames_pandas(dets, hulls, lanes, fps=FPS)
    assert sampled[1] == 4


def test_empty_dets(lanes):
    assert sample_frames_pandas(_dets([]), _hulls(5), lanes, fps=FPS) == []


def test_always_advances(lanes):
    # Pathological inputs can never loop forever: strictly increasing.
    dets = _dets([(f, 0.0, 0.0) for f in range(10)])  # on lane corner
    sampled = sample_frames_pandas(dets, _hulls(10), lanes, fps=FPS)
    assert all(b > a for a, b in zip(sampled, sampled[1:]))


def test_reduction_fraction_reasonable(lanes):
    # A single cruising car: EFS should skip the large majority of
    # frames (paper: per-frame tracking runtime drops to ~28-39 %).
    dets = _dets(_car_rows(120, x0=5.0))
    sampled = sample_frames_pandas(dets, _hulls(120), lanes, fps=FPS)
    assert len(sampled) <= 120 / 8


@pytest.mark.parametrize("cids, decides", [((0, 1), "east"), ((1, 0), "west")])
def test_shared_lane_edge_lowest_cid_decides(spark, cids, decides):
    # A car on the edge shared by an eastbound and a westbound lane is in
    # both; the lane with the lower cid gives its heading and polygon.
    # The road table lists LANE first either way.
    index = _lane_index(spark, [(cids[0], LANE), (cids[1], WEST_LANE)])
    dets = _dets([(f, 10.0 + SPEED_LIMIT_MPS * f / FPS, 0.0) for f in range(30)])
    sampled = sample_frames_pandas(dets, _hulls(30), index, fps=FPS)
    if decides == "east":
        # 190 m to the east end: a full MAX_SKIP stride.
        assert sampled[:3] == [0, MAX_SKIP, 2 * MAX_SKIP]
    else:
        # 10 m to the west end: the car exits after ~10.7 frames.
        assert sampled[1] == int(np.floor(10.0 / SPEED_LIMIT_MPS * FPS))


def test_sample_frames_spark(spark, lanes):
    # Output: exactly the input rows on the frames sample_frames_pandas
    # picks per video over the view hulls of that video's frames.
    n, d = 40, 20.0
    cams = {v: make_frames(n, video_id=v, pos=(0.0, -1.75)) for v in ("v0", "v1", "v2")}
    dets = pd.concat(
        [_dets(_car_rows(n)).assign(video_id=v) for v in ("v0", "v1")], ignore_index=True
    )
    # One NaN and one null score, both on a video's first (always sampled) frame.
    score = [np.nan if i == 0 else None if i == n else 0.5 for i in range(len(dets))]
    table = pa.Table.from_pandas(dets, preserve_index=False).append_column(
        "score", pa.array(score, pa.float64(), from_pandas=False)
    )
    sdf = spark.createDataFrame(table)
    out = sample_frames(
        sdf, spark.createDataFrame(pd.concat(cams.values())), lanes, distance=d, fps=FPS
    )
    got = out.toArrow().sort_by([("video_id", "ascending"), ("frame_idx", "ascending")])

    picked = {
        v: sample_frames_pandas(dets[dets["video_id"] == v], hulls_pandas(cams[v], d), lanes,
                                fps=FPS)
        for v in ("v0", "v1")
    }
    assert picked["v0"][1] < MAX_SKIP  # the hull's far edge cuts the skip
    keep = np.array([f in picked[v] for v, f in zip(dets["video_id"], dets["frame_idx"])])
    want = table.filter(pa.array(keep)).select(sdf.columns)
    assert got.schema.names == sdf.columns and out.schema == sdf.schema
    pd.testing.assert_frame_equal(got.to_pandas(), want.to_pandas(), check_dtype=False)
    assert got["score"].is_null().to_pylist() == want["score"].is_null().to_pylist()
    assert got["score"].null_count == 1 and pc.sum(pc.is_nan(got["score"])).as_py() == 1
    # v2 has frames but no detections: nothing.
    assert set(got["video_id"].to_pylist()) == {"v0", "v1"}
    plan = out._jdf.queryExecution().executedPlan().toString()
    assert "CoGroup" in plan and "Join" not in plan and "CartesianProduct" not in plan

