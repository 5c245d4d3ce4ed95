"""Synthetic road-network generator — the Geographic Constructs substrate.

Replaces the Boston-Seaport road network shipped with Scenic/nuScenes
(§7 "Dataset"). Generates a Manhattan grid of two-way roads with the
paper's construct types (§4.2.3): ``lane``, ``lanegroup``,
``roadsection``, ``intersection``, plus ``bikeLane`` (needed by Q10).

All polygons are axis-aligned rectangles. This is deliberate: it keeps
the DuckDB oracle able to express ``contains`` as plain ``BETWEEN`` SQL
(DuckDB here has no spatial extension), while the Spark engine runs the
general point-in-polygon path — so result-equality tests are meaningful.

Lane headings follow right-hand traffic: eastbound (0 deg) lanes sit on
the south side of an east-west road, northbound (90 deg) on the east side
of a north-south road. Intersections have no heading (NaN), as in the
paper ("no segment heading (intersection)").
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.geo.polygon import polygon_bbox, rect_polygon

__all__ = ["Lane", "RoadNetwork", "grid_road_network", "LANE_WIDTH", "BIKE_LANE_WIDTH"]

LANE_WIDTH = 3.5
BIKE_LANE_WIDTH = 1.8


@dataclass(frozen=True)
class Lane:
    """A drivable lane: rectangle + heading + centerline endpoints.

    ``start``/``end`` are the centerline endpoints in driving order; the
    agent simulator moves cars from ``start`` toward ``end`` and the Exit
    Frame Sampler uses the polygon + heading exactly as §6.4 does.
    """

    cid: int
    poly: np.ndarray
    heading: float
    start: np.ndarray
    end: np.ndarray
    # Grid bookkeeping for lane connectivity: the intersection node
    # (i, j) this lane flows into, or None for boundary-exiting lanes.
    into_node: tuple[int, int] | None
    from_node: tuple[int, int] | None


@dataclass
class RoadNetwork:
    """All Geographic Constructs of a world + lane connectivity."""

    df: pd.DataFrame  # cid, type, poly (list of [x,y]), heading, xmin..ymax
    lanes: list[Lane] = field(default_factory=list)
    nodes: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)  # node -> center
    half_int: float = LANE_WIDTH

    def lanes_out_of(self, node: tuple[int, int]) -> list[Lane]:
        return [l for l in self.lanes if l.from_node == node]


def _construct(cid: int, ctype: str, poly: np.ndarray, heading: float | None) -> dict:
    xmin, ymin, xmax, ymax = polygon_bbox(poly)
    return {
        "cid": cid,
        "type": ctype,
        "poly": [[float(x), float(y)] for x, y in poly],
        "heading": np.nan if heading is None else float(heading),
        "xmin": xmin,
        "ymin": ymin,
        "xmax": xmax,
        "ymax": ymax,
    }


def grid_road_network(
    nx: int = 4,
    ny: int = 4,
    spacing: float = 100.0,
    origin: tuple[float, float] = (0.0, 0.0),
    bike_lanes: bool = True,
) -> RoadNetwork:
    """Build an ``nx`` x ``ny`` grid of intersections joined by 2-lane roads.

    Returns a :class:`RoadNetwork` whose ``df`` holds one row per
    Geographic Construct and whose ``lanes`` carry connectivity for the
    agent simulator (cars enter an intersection node and continue on any
    lane flowing out of it).
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid needs at least 2x2 intersections")
    hw = LANE_WIDTH  # intersection half-width == one lane each way
    ox, oy = origin
    xs = ox + spacing * np.arange(nx)
    ys = oy + spacing * np.arange(ny)

    rows: list[dict] = []
    lanes: list[Lane] = []
    nodes = {(i, j): np.array([xs[i], ys[j]]) for i in range(nx) for j in range(ny)}
    cid = 0

    def add(ctype: str, poly: np.ndarray, heading: float | None) -> int:
        nonlocal cid
        rows.append(_construct(cid, ctype, poly, heading))
        cid += 1
        return cid - 1

    for (i, j), (cx_, cy_) in nodes.items():
        add("intersection", rect_polygon(cx_ - hw, cy_ - hw, cx_ + hw, cy_ + hw), None)

    def add_lane(poly, heading, start, end, from_node, into_node):
        lane_cid = add("lane", poly, heading)
        lanes.append(
            Lane(
                cid=lane_cid,
                poly=poly,
                heading=float(heading),
                start=np.asarray(start, dtype=np.float64),
                end=np.asarray(end, dtype=np.float64),
                from_node=from_node,
                into_node=into_node,
            )
        )

    # East-west roads (along x), between column i and i+1 at row j.
    for j in range(ny):
        for i in range(nx - 1):
            x0, x1 = xs[i] + hw, xs[i + 1] - hw
            yc = ys[j]
            # Eastbound lane on the south side.
            add_lane(
                rect_polygon(x0, yc - LANE_WIDTH, x1, yc),
                0.0,
                [x0, yc - LANE_WIDTH / 2],
                [x1, yc - LANE_WIDTH / 2],
                (i, j),
                (i + 1, j),
            )
            # Westbound lane on the north side.
            add_lane(
                rect_polygon(x0, yc, x1, yc + LANE_WIDTH),
                180.0,
                [x1, yc + LANE_WIDTH / 2],
                [x0, yc + LANE_WIDTH / 2],
                (i + 1, j),
                (i, j),
            )
            lg = rect_polygon(x0, yc - LANE_WIDTH, x1, yc + LANE_WIDTH)
            add("lanegroup", lg, None)
            add("roadsection", lg, None)
            if bike_lanes and j % 2 == 0:
                add(
                    "bikeLane",
                    rect_polygon(x0, yc - LANE_WIDTH - BIKE_LANE_WIDTH, x1, yc - LANE_WIDTH),
                    0.0,
                )

    # North-south roads (along y), between row j and j+1 at column i.
    for i in range(nx):
        for j in range(ny - 1):
            y0, y1 = ys[j] + hw, ys[j + 1] - hw
            xc = xs[i]
            # Northbound lane on the east side.
            add_lane(
                rect_polygon(xc, y0, xc + LANE_WIDTH, y1),
                90.0,
                [xc + LANE_WIDTH / 2, y0],
                [xc + LANE_WIDTH / 2, y1],
                (i, j),
                (i, j + 1),
            )
            # Southbound lane on the west side.
            add_lane(
                rect_polygon(xc - LANE_WIDTH, y0, xc, y1),
                270.0,
                [xc - LANE_WIDTH / 2, y1],
                [xc - LANE_WIDTH / 2, y0],
                (i, j + 1),
                (i, j),
            )
            lg = rect_polygon(xc - LANE_WIDTH, y0, xc + LANE_WIDTH, y1)
            add("lanegroup", lg, None)
            add("roadsection", lg, None)
            if bike_lanes and i % 2 == 1:
                add(
                    "bikeLane",
                    rect_polygon(xc + LANE_WIDTH, y0, xc + LANE_WIDTH + BIKE_LANE_WIDTH, y1),
                    90.0,
                )

    return RoadNetwork(df=pd.DataFrame(rows), lanes=lanes, nodes=nodes, half_int=hw)
