"""Geospatial-video datasets at a configurable scale factor.

The paper (Spatialyze, VLDB'24) is evaluated on video datasets. These
wrappers map a scale factor to a dataset size: SF=0.01 ~= 1 scene (unit
tests), SF=0.1 ~= 10 scenes (benchmarks) — each nuscenes_lite scene is a
20 s, 12 FPS video, mirroring the paper's 240-video nuScenes sample.
Full generators (road networks, agents, cameras) live in
``repro.world``.
"""

_SCENES_PER_SF = 100


def geospatial_video_dataset(*, sf: float = 0.01, seed: int = 0, n_frames: int = 240):
    """nuScenes-lite at a scale factor; returns a ``repro.world.Dataset``."""
    from repro.world.datasets import nuscenes_lite

    n_scenes = max(1, int(round(_SCENES_PER_SF * sf)))
    return nuscenes_lite(n_scenes, seed=seed, n_frames=n_frames)


def aerial_video_dataset(*, sf: float = 0.01, seed: int = 0):
    """SkyQuery-lite at a scale factor (sf scales the drone-video length)."""
    from repro.world.datasets import skyquery_lite

    n_frames = max(120, int(72_000 * sf))
    return skyquery_lite(seed=seed, n_frames=n_frames)
