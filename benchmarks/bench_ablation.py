"""T7 benchmark (Fig. 5b): wall-clock of the video processor per ablation
setup on Q2, plus the modeled runtime in ``extra_info``.

Wall-clock at this scale includes Spark overheads; the modeled runtime
(measured row counts x calibrated model costs) is the Fig. 5b quantity —
both are recorded. One round per setup: a full pipeline execution is the
unit of interest, not a microbenchmark.
"""
import pytest

from repro.experiments import SETUPS, run_setup
from repro.world.datasets import nuscenes_lite

SCENES, FRAMES = 2, 96


@pytest.fixture(scope="module")
def ds():
    return nuscenes_lite(SCENES, seed=0, n_frames=FRAMES)


@pytest.mark.parametrize("setup", list(SETUPS))
def test_ablation_setup(benchmark, spark, ds, setup):
    result = benchmark.pedantic(
        lambda: run_setup(spark, ds, "Q2", setup), rounds=1, iterations=1
    )
    benchmark.extra_info["modeled_ms"] = result.cost.total_ms
    benchmark.extra_info["modeled_s_per_video"] = result.cost.total_ms / 1000 / SCENES
    benchmark.extra_info["counts"] = result.cost.entries
