"""Integration tests for the §7 experiment harness (T2-T10 plumbing)."""
import pandas as pd
import pytest

from repro.experiments import (
    SETUPS,
    ablation_accuracy_table,
    ablation_runtime_table,
    fps_of,
    run_setup,
    stage_breakdown,
)
from repro.experiments_compare import (
    devkit_comparison,
    eva_comparison,
    otif_comparison,
    skip_distance_table,
    skyquery_comparison,
    viva_comparison,
)
from repro.video.costmodel import CostReport
from repro.world.datasets import jackson_lite, nuscenes_lite, skyquery_lite


@pytest.fixture(scope="module")
def ds():
    return nuscenes_lite(2, seed=0, n_frames=72)


def test_setups_cover_paper():
    assert set(SETUPS) == {"SB", "S1", "S2", "S3", "S4", "S5", "S6"}
    assert SETUPS["SB"] == frozenset()
    assert SETUPS["S6"] == {"rvp", "otp", "geom3d", "efs"}


@pytest.fixture(scope="module")
def q2_runs(spark, ds):
    return {
        ("Q2", s): run_setup(spark, ds, "Q2", s) for s in ("SB", "S1", "S6")
    }


def test_run_setup_counts_and_cost(q2_runs):
    sb = q2_runs[("Q2", "SB")]
    assert sb.cost.count("decode") == 144
    assert sb.cost.ms("depth") > 0  # baseline uses the depth network
    assert sb.cost.ms("rvp") == 0
    s6 = q2_runs[("Q2", "S6")]
    assert s6.cost.ms("rvp") > 0
    assert s6.cost.ms("geom3d") > 0
    assert s6.cost.count("yolo") <= s6.cost.count("decode")


def test_optimized_cheaper_than_baseline(q2_runs):
    assert q2_runs[("Q2", "S6")].cost.total_ms < q2_runs[("Q2", "SB")].cost.total_ms


def test_ablation_runtime_table_shape(q2_runs):
    t = ablation_runtime_table(q2_runs, n_videos=2)
    assert set(t.columns) == {"query", "setup", "modeled_s_per_video", "speedup_vs_SB"}
    sb_row = t[t["setup"] == "SB"].iloc[0]
    assert sb_row["speedup_vs_SB"] == pytest.approx(1.0)
    s6_row = t[t["setup"] == "S6"].iloc[0]
    assert s6_row["speedup_vs_SB"] > 1.0


def test_ablation_accuracy_table(q2_runs):
    t = ablation_accuracy_table(q2_runs)
    assert set(t["setup"]) == {"S1", "S6"}
    assert ((t["AssA"] >= 0) & (t["AssA"] <= 1)).all()
    # S1 only prunes frames the user excluded: near-perfect association.
    s1 = t[t["setup"] == "S1"]["AssA"].iloc[0]
    assert s1 > 0.9


def test_fps_of():
    c = CostReport().add("x", 10, 1000.0)
    assert fps_of(c, 30) == pytest.approx(30.0)


def test_stage_breakdown_matches_paper_shape(spark, ds):
    t = stage_breakdown(spark, ds)
    shares = dict(zip(t["stage"], t["share"]))
    assert t.iloc[0]["stage"] == "Video Processor"
    assert shares["Video Processor"] > 0.75
    assert shares["Data Integrator"] < 0.01
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_eva_comparison_shape(spark, ds):
    t = eva_comparison(spark, ds)
    assert list(t["query"]) == ["Q5", "Q6", "Q7", "Q8"]
    assert (t["spatialyze_s"] > 0).all() and (t["eva_s"] > 0).all()
    # Q5 (EVA cold): Spatialyze clearly faster.
    assert t.iloc[0]["speedup"] > 1.5


def test_viva_comparison_shape(spark):
    t = viva_comparison(spark, jackson_lite(1, seed=0, n_frames=60))
    assert t.iloc[0]["viva_s"] > 0
    assert t.iloc[0]["speedup"] > 1.0  # Spatialyze wins (§7.1.2: 1.68x)


def test_devkit_comparison_shape(spark, ds):
    # At unit-test scale Spark's fixed overhead can dominate, so the
    # speedup itself is asserted only at benchmark scale (T4); here we
    # check the two engines AGREE and the harness plumbing works.
    t = devkit_comparison(spark, ds, queries=("Q1", "Q4"))
    assert len(t) == 2
    assert {"spark_engine_s", "devkit_s", "speedup", "devkit_oom"} <= set(t.columns)
    q1 = t[t["query"] == "Q1"].iloc[0]
    assert not q1["devkit_oom"]
    assert q1["rows_devkit"] == q1["rows_spark"]
    assert (t["spark_engine_s"] > 0).all() and (t["devkit_s"] > 0).all()


def test_otif_comparison_shape(spark, ds):
    t = otif_comparison(spark, ds)
    assert (t["fps"] > 0).all()
    otif_fps = t[t["system"] == "OTIF"]["fps"].iloc[0]
    sp = t[t["system"] == "Spatialyze"]["fps"]
    # §7.1.4's shape: Spatialyze tracks faster overall; its slowest
    # query may sit near OTIF (paper: 18.3 vs 17.3 FPS is a 6 % margin).
    assert sp.mean() > otif_fps
    assert (sp > 0.9 * otif_fps).all()


def test_skyquery_comparison_shape(spark):
    t = skyquery_comparison(spark, skyquery_lite(seed=0, n_frames=420))
    sq = t[t["system"] == "SkyQuery"].iloc[0]
    sp = t[t["system"] == "Spatialyze"].iloc[0]
    assert sp["fps"] > sq["fps"]  # §7.1.5: 18 % faster
    assert sp["frames_processed"] < sq["frames_processed"]


def test_skip_distance_table(spark, ds):
    t = skip_distance_table(spark, ds, max_skip=6)
    assert {"skip", "f1", "runtime_ratio"} <= set(t.columns)
    assert (t["skip"] <= 6).all()
    assert ((t["f1"] >= 0) & (t["f1"] <= 1)).all()
