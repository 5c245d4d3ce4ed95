"""Unit tests for the road-network generator."""
import numpy as np
import pytest

from repro.geo.polygon import point_in_polygon, points_in_polygon
from repro.world.roadnetwork import LANE_WIDTH, grid_road_network


@pytest.fixture(scope="module")
def road():
    return grid_road_network(3, 3, spacing=60.0)


def test_construct_counts(road):
    counts = road.df["type"].value_counts().to_dict()
    assert counts["intersection"] == 9
    # 2 lanes per road segment; EW segments: 2 per row x 3 rows = 6; NS same.
    assert counts["lane"] == 24
    assert counts["lanegroup"] == 12
    assert counts["roadsection"] == 12
    assert counts["bikeLane"] > 0


def test_cids_unique(road):
    assert road.df["cid"].is_unique


def test_bbox_matches_polygon(road):
    for _, r in road.df.iterrows():
        poly = np.array(r["poly"])
        assert r["xmin"] == poly[:, 0].min() and r["xmax"] == poly[:, 0].max()
        assert r["ymin"] == poly[:, 1].min() and r["ymax"] == poly[:, 1].max()


def test_intersections_have_no_heading(road):
    inter = road.df[road.df["type"] == "intersection"]
    assert inter["heading"].isna().all()


def test_lanes_have_headings(road):
    lanes = road.df[road.df["type"] == "lane"]
    assert set(lanes["heading"]) == {0.0, 90.0, 180.0, 270.0}


def test_lane_centerline_inside_polygon(road):
    for lane in road.lanes:
        mid = (lane.start + lane.end) / 2
        assert point_in_polygon(mid[0], mid[1], lane.poly)
        assert point_in_polygon(*lane.start, lane.poly)
        assert point_in_polygon(*lane.end, lane.poly)


def test_lane_heading_matches_centerline(road):
    for lane in road.lanes:
        v = lane.end - lane.start
        h = np.rad2deg(np.arctan2(v[1], v[0])) % 360
        assert h == pytest.approx(lane.heading % 360)


def test_every_node_has_outgoing_lanes(road):
    for node in road.nodes:
        assert len(road.lanes_out_of(node)) >= 2


def test_lane_endpoints_touch_intersections(road):
    # A lane's end sits on the boundary of the intersection it flows into.
    for lane in road.lanes:
        node = road.nodes[lane.into_node]
        assert np.max(np.abs(lane.end - node)) == pytest.approx(road.half_int)


def test_eastbound_lane_on_south_side(road):
    east = [l for l in road.lanes if l.heading == 0.0]
    for lane in east:
        yc = lane.poly[:, 1].max()  # north edge == road centerline
        assert lane.start[1] < yc


def test_lanes_do_not_overlap_intersections(road):
    inters = road.df[road.df["type"] == "intersection"]
    for lane in road.lanes:
        mid = (lane.start + lane.end) / 2
        hits = points_in_polygon(
            np.full(len(inters), mid[0]), np.full(len(inters), mid[1]),
            np.array(list(inters["poly"].iloc[0])),
        )
        # Lane midpoints are far from the first intersection in general —
        # just assert polygon arithmetic does not crash; real disjointness:
        for _, r in inters.iterrows():
            assert not point_in_polygon(mid[0], mid[1], np.array(r["poly"]))
        del hits


def test_bike_lane_adjacent_to_lane(road):
    bikes = road.df[road.df["type"] == "bikeLane"]
    lanes = road.df[road.df["type"] == "lane"]
    for _, b in bikes.iterrows():
        touching = lanes[
            (lanes["xmin"] <= b["xmax"]) & (lanes["xmax"] >= b["xmin"])
            & (lanes["ymin"] <= b["ymax"]) & (lanes["ymax"] >= b["ymin"])
        ]
        assert len(touching) > 0


def test_bounds_cover_grid(road):
    xmin, ymin = road.df["xmin"].min(), road.df["ymin"].min()
    xmax, ymax = road.df["xmax"].max(), road.df["ymax"].max()
    assert xmin <= -LANE_WIDTH and xmax >= 120 + LANE_WIDTH
    assert ymin <= -LANE_WIDTH and ymax >= 120 + LANE_WIDTH


def test_rejects_tiny_grid():
    with pytest.raises(ValueError):
        grid_road_network(1, 3)


def test_no_bike_lanes_option():
    rn = grid_road_network(2, 2, bike_lanes=False)
    assert "bikeLane" not in set(rn.df["type"])
