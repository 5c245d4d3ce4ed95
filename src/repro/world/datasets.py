"""The three evaluation datasets as synthetic equivalents (§7 "Dataset").

* ``nuscenes_lite`` — on-vehicle front camera, 20 s @ 12 FPS scenes on a
  city grid (replaces the 240 sampled nuScenes Boston-Seaport videos).
* ``jackson_lite`` — static traffic camera over one intersection,
  5 s @ 30 FPS clips (replaces VIVA's Jackson Square dataset).
* ``skyquery_lite`` — top-down aerial drone at 60 m with per-frame GPS,
  flying over roads with bike lanes (replaces SkyQuery's drone video).

Each returns a :class:`Dataset` bundling the road network and the
``cameras`` / ``gt`` pandas tables, with ``*_sdf`` helpers that convert
to Spark DataFrames with the explicit schemas defined here, so that an
empty table keeps its column types.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.video.decoder import FRAME_COLS
from repro.world.agents import simulate_car_path, simulate_objects
from repro.world.roadnetwork import RoadNetwork, grid_road_network
from repro.world.scenes import NUSC_INTRINSIC, camera_table, waypoint_path

__all__ = [
    "Dataset", "nuscenes_lite", "jackson_lite", "skyquery_lite", "local_table", "road_table",
    "CAMERA_SCHEMA", "GT_SCHEMA", "ROAD_SCHEMA",
]

# The input tables' schemas as DDL. The camera table holds the decoder's
# frame columns: the two keys, then the camera's parameters.
_KEY_TYPES = {"video_id": "string", "frame_idx": "long"}
CAMERA_SCHEMA = ", ".join(f"{c} {_KEY_TYPES.get(c, 'double')}" for c in FRAME_COLS)
GT_SCHEMA = ("video_id string, oid long, otype string, frame_idx long, ts double, "
             "x double, y double, z double, heading double, speed double, "
             "dim_l double, dim_w double, dim_h double")
ROAD_SCHEMA = ("cid long, type string, poly array<array<double>>, heading double, "
               "xmin double, ymin double, xmax double, ymax double")


def local_table(spark: SparkSession, pdf: pd.DataFrame, schema: str) -> DataFrame:
    """``pdf`` as a Spark ``LocalRelation`` of the DDL ``schema``, its
    columns taken by name: an empty table keeps its types, and collecting
    it, as the construct index does with the road table, runs no Spark
    job."""
    return spark.createDataFrame(pdf[[f.split(" ", 1)[0] for f in schema.split(", ")]],
                                 schema=schema)


def road_table(spark: SparkSession, road: RoadNetwork) -> DataFrame:
    return local_table(spark, road.df, ROAD_SCHEMA)


@dataclass
class Dataset:
    """A dataset: road network + per-frame camera configs + ground truth."""

    name: str
    road: RoadNetwork
    cameras: pd.DataFrame
    gt: pd.DataFrame
    fps: float

    def road_sdf(self, spark: SparkSession) -> DataFrame:
        return road_table(spark, self.road)

    def cameras_sdf(self, spark: SparkSession) -> DataFrame:
        return local_table(spark, self.cameras, CAMERA_SCHEMA)

    def gt_sdf(self, spark: SparkSession) -> DataFrame:
        return local_table(spark, self.gt, GT_SCHEMA)

    @property
    def n_frames(self) -> int:
        return len(self.cameras)

    @property
    def video_ids(self) -> list[str]:
        return sorted(self.cameras["video_id"].unique())


def _opposite_lane(road: RoadNetwork, lane):
    """The reverse-direction lane of the same road segment, if any."""
    for l2 in road.lanes:
        if l2.from_node == lane.into_node and l2.into_node == lane.from_node:
            return l2
    return lane


def _scene(
    road: RoadNetwork,
    video_id: str,
    seed: int,
    n_frames: int,
    fps: float,
    oid_offset: int,
    wrong_way: bool = False,
    **obj_kw,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """One ego drive + traffic seeded around the ego's route.

    The first cars are pinned to the ego's start lane (ahead of it) and
    to the opposing lane (incl. a close pair — Q4's "2 cars moving
    together"); pedestrians and traffic lights sit at the route's
    endpoints' intersections. ``wrong_way`` shifts the ego into the
    opposing lane polygon (the Q3 scenario).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    ego_lane = road.lanes[rng.integers(len(road.lanes))]
    ego = simulate_car_path(
        road, rng, n_frames, fps,
        start_lane=ego_lane, start_frac=0.1,
        lateral_offset=3.5 if wrong_way else 0.0,
    )
    cams = camera_table(video_id, ego, fps)
    opp = _opposite_lane(road, ego_lane)
    car_starts = [
        (ego_lane, 0.3),
        (ego_lane, 0.6),
        (opp, 0.55),
        (opp, 0.62),  # close pair on the opposing lane (Q4)
        (opp, 0.25),
    ]
    ped_nodes = [road.nodes[ego_lane.into_node], road.nodes[ego_lane.from_node]]
    gt = simulate_objects(
        road, n_frames=n_frames, fps=fps, seed=seed + 10_000, oid_offset=oid_offset,
        car_starts=car_starts, ped_nodes=ped_nodes, **obj_kw,
    )
    gt.insert(0, "video_id", video_id)
    return cams, gt


def nuscenes_lite(
    n_scenes: int = 4,
    *,
    seed: int = 0,
    n_frames: int = 240,
    fps: float = 12.0,
    n_cars: int = 8,
    n_trucks: int = 2,
    n_persons: int = 5,
    n_lights: int = 4,
) -> Dataset:
    """On-vehicle camera scenes on a 3x3 grid with 70 m blocks.

    240 frames @ 12 FPS = the paper's 20-second nuScenes videos. One
    front camera per scene (the paper used 3 front cameras per scene —
    a cardinality detail only; each video is processed independently).
    70 m blocks put mid-block stretches beyond the 50 m view distance so
    the Road Visibility Pruner has frames to prune for intersection
    queries (§7.2.1 reports ~21.5 % there). Every third scene drives the
    ego wrong-way in the opposing lane — the Scenic-style oncoming
    scenario Q3 looks for.
    """
    road = grid_road_network(3, 3, spacing=70.0)
    cams, gts = [], []
    for s in range(n_scenes):
        c, g = _scene(
            road,
            f"scene-{s:04d}",
            seed + s,
            n_frames,
            fps,
            oid_offset=s * 1000,
            wrong_way=(s % 3 == 2),
            n_cars=n_cars,
            n_trucks=n_trucks,
            n_persons=n_persons,
            n_lights=n_lights,
        )
        cams.append(c)
        gts.append(g)
    return Dataset("nuscenes_lite", road, pd.concat(cams, ignore_index=True),
                   pd.concat(gts, ignore_index=True), fps)


def jackson_lite(
    n_clips: int = 4,
    *,
    seed: int = 0,
    n_frames: int = 150,
    fps: float = 30.0,
) -> Dataset:
    """Static pole-mounted camera watching one intersection (VIVA's data).

    5 s @ 30 FPS clips; the camera sits 22 m from the central
    intersection at 8 m height, looking at it.
    """
    import numpy as np

    road = grid_road_network(3, 3, spacing=60.0)
    center = road.nodes[(1, 1)]
    cam_pos = center + np.array([-22.0, -16.0])
    heading = float(np.rad2deg(np.arctan2(center[1] - cam_pos[1], center[0] - cam_pos[0])))
    cams, gts = [], []
    for c in range(n_clips):
        vid = f"jackson-{c:04d}"
        path = pd.DataFrame(
            {
                "frame_idx": np.arange(n_frames),
                "x": cam_pos[0],
                "y": cam_pos[1],
                "heading": heading % 360.0,
            }
        )
        cams.append(camera_table(vid, path, fps, height=8.0, pitch_deg=12.0))
        g = simulate_objects(
            road,
            n_frames=n_frames,
            fps=fps,
            seed=seed + 300 + c,
            oid_offset=c * 1000,
            n_cars=10,
            n_trucks=1,
            n_persons=6,
            n_lights=4,
        )
        g.insert(0, "video_id", vid)
        gts.append(g)
    return Dataset("jackson_lite", road, pd.concat(cams, ignore_index=True),
                   pd.concat(gts, ignore_index=True), fps)


def skyquery_lite(
    *,
    seed: int = 0,
    n_frames: int = 720,
    fps: float = 12.0,
    altitude: float = 60.0,
) -> Dataset:
    """Aerial top-down drone video with per-frame GPS (SkyQuery's data).

    The drone flies along a bike-lane road, then cuts across block
    interiors (where no bike lane is within view — the frames the Road
    Visibility Pruner can drop for Q10), on a 3x3 grid with 150 m blocks.
    Some cars are parked ("stopped") inside bike lanes.
    """
    road = grid_road_network(3, 3, spacing=150.0, bike_lanes=True)
    # Bike lanes exist on EW roads at j even (y=0 and y=300 rows).
    path = waypoint_path(
        [(10, 0), (290, 0), (225, 75), (75, 75), (10, 0)],  # road leg + block-interior leg
        speed=14.0,
        n_frames=n_frames,
        fps=fps,
    )
    cams = camera_table(
        "drone-0000", path, fps, height=altitude, pitch_deg=90.0, intrinsic=NUSC_INTRINSIC
    )
    gt = simulate_objects(
        road,
        n_frames=n_frames,
        fps=fps,
        seed=seed + 77,
        n_cars=14,
        n_trucks=2,
        n_persons=4,
        n_lights=0,
        n_stopped_bike=4,
    )
    gt.insert(0, "video_id", "drone-0000")
    return Dataset("skyquery_lite", road, cams, gt, fps)
