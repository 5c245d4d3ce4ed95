"""Camera-configuration builder: ego paths → per-frame Camera rows.

A Camera is a Movable Object with type=camera (§4.1.3): per frame it has
a translation, a rotation quaternion, an intrinsic and a timestamp —
exactly the 4 fields S-Flow's ``Camera`` takes (§4.2.1). This module
turns a simulated ego path (or an arbitrary waypoint path, for the
drone) into the ``cameras`` table consumed by the whole pipeline.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.geo.quaternion import heading_to_camera_quat

__all__ = ["NUSC_INTRINSIC", "camera_table", "waypoint_path"]

# nuScenes-like front camera: 1600x900, fx=fy~=1266.
NUSC_INTRINSIC = {"fx": 1266.4, "fy": 1266.4, "sk": 0.0, "x0": 800.0, "y0": 450.0,
                  "img_w": 1600.0, "img_h": 900.0}


def camera_table(
    video_id: str,
    path: pd.DataFrame,
    fps: float,
    *,
    height: float = 1.6,
    pitch_deg: float = 0.0,
) -> pd.DataFrame:
    """Build per-frame camera rows from a path with frame_idx/x/y/heading.

    ``height`` is the camera z above ground; ``pitch_deg=90`` gives the
    top-down aerial camera. Every camera has the ``NUSC_INTRINSIC``
    intrinsic. The quaternion is stored (the paper's data model stores
    rotations as quaternions) and ``cam_heading`` is kept as a derived
    convenience column.
    """
    quats = np.stack(
        [heading_to_camera_quat(h, pitch_deg) for h in path["heading"].to_numpy()]
    )
    n = len(path)
    return pd.DataFrame(
        {
            "video_id": video_id,
            "frame_idx": path["frame_idx"].to_numpy(),
            "ts": path["frame_idx"].to_numpy() / fps,
            "cam_x": path["x"].to_numpy(),
            "cam_y": path["y"].to_numpy(),
            "cam_z": np.full(n, height),
            "qw": quats[:, 0],
            "qx": quats[:, 1],
            "qy": quats[:, 2],
            "qz": quats[:, 3],
            **NUSC_INTRINSIC,  # fx, fy, sk, x0, y0, img_w, img_h
            "cam_heading": path["heading"].to_numpy() % 360.0,
        }
    )


def waypoint_path(
    waypoints: list[tuple[float, float]],
    speed: float,
    n_frames: int,
    fps: float,
) -> pd.DataFrame:
    """Constant-speed piecewise-linear path through ``waypoints``, looping
    back to the first.

    Used for the drone (skyquery_lite). Heading follows the direction of
    motion. Returns frame_idx/x/y/heading rows.
    """
    wps = [np.asarray(w, dtype=np.float64) for w in waypoints]
    wps = wps + [wps[0]]
    dt = 1.0 / fps
    rows = []
    seg = 0
    pos = wps[0].copy()
    for f in range(n_frames):
        nxt = wps[(seg + 1) % len(wps)]
        to_next = nxt - pos
        gap = float(np.hypot(*to_next))
        heading = float(np.rad2deg(np.arctan2(to_next[1], to_next[0]))) % 360.0
        rows.append((f, pos[0], pos[1], heading))
        step = speed * dt
        while step > 0:
            if gap > step:
                pos = pos + step * to_next / gap
                step = 0.0
            else:
                pos = nxt.copy()
                step -= gap
                seg = (seg + 1) % (len(wps) - 1)
                nxt = wps[(seg + 1) % len(wps)]
                to_next = nxt - pos
                gap = float(np.hypot(*to_next))
                if gap == 0:
                    break
    return pd.DataFrame(rows, columns=["frame_idx", "x", "y", "heading"])
