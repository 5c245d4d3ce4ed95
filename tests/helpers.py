"""Shared test helpers: hand-crafted frames/objects for operator tests."""
import numpy as np
import pandas as pd

from repro.geo.polygon import polygon_bbox
from repro.world.agents import DIMS
from repro.world.roadnetwork import RoadNetwork
from repro.world.scenes import camera_table


def road_of(constructs) -> RoadNetwork:
    """A road holding only ``constructs``: (cid, type, polygon, heading)."""
    rows = [
        {"cid": cid, "type": ctype, "poly": np.asarray(poly).tolist(), "heading": heading,
         **dict(zip(("xmin", "ymin", "xmax", "ymax"), polygon_bbox(poly)))}
        for cid, ctype, poly, heading in constructs
    ]
    return RoadNetwork(df=pd.DataFrame(rows))


def make_frames(
    n: int = 1,
    *,
    video_id: str = "v0",
    heading: float = 0.0,
    pos: tuple = (0.0, 0.0),
    fps: float = 12.0,
    height: float = 1.6,
    pitch: float = 0.0,
    xs=None,
) -> pd.DataFrame:
    """Camera frames: static (default) or moving along given xs."""
    path = pd.DataFrame(
        {
            "frame_idx": np.arange(n),
            "x": xs if xs is not None else pos[0],
            "y": pos[1],
            "heading": heading,
        }
    )
    return camera_table(video_id, path, fps, height=height, pitch_deg=pitch)


def make_gt(
    objs: list[dict],
    n_frames: int = 1,
    *,
    video_id: str = "v0",
    fps: float = 12.0,
) -> pd.DataFrame:
    """Ground-truth rows from specs like dict(oid=1, otype='car', x=20, y=0).

    Objects are static across frames unless the spec provides callables
    ``fx(frame)`` / ``fy(frame)`` for motion.
    """
    rows = []
    for spec in objs:
        otype = spec.get("otype", "car")
        l, w, h = DIMS[otype]
        for f in range(n_frames):
            x = spec["fx"](f) if "fx" in spec else spec["x"]
            y = spec["fy"](f) if "fy" in spec else spec["y"]
            rows.append(
                {
                    "video_id": video_id,
                    "oid": spec["oid"],
                    "otype": otype,
                    "frame_idx": f,
                    "ts": f / fps,
                    "x": float(x),
                    "y": float(y),
                    "z": spec.get("z", h / 2),
                    "heading": spec.get("heading", 0.0),
                    "speed": spec.get("speed", 0.0),
                    "dim_l": l,
                    "dim_w": w,
                    "dim_h": h,
                }
            )
    return pd.DataFrame(rows)


def joined_frame_objects(frames: pd.DataFrame, gt: pd.DataFrame) -> pd.DataFrame:
    """The pandas equivalent of the detector's frames x gt join."""
    return frames.merge(gt.drop(columns=["ts"]), on=["video_id", "frame_idx"])
