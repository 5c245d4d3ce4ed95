"""Unit tests for the calibrated cost model."""
import pytest

from repro.video.costmodel import C, CostReport, tracker_frame_cost


def test_baseline_per_frame_matches_paper_breakdown():
    # §7.2.1: video processor ~= 127.4 ms/frame at ~8 objects/frame;
    # depth is 48 % of it, tracking ~26 % (§6.2/§6.3).
    vp = C.DECODE + C.YOLO + C.DEPTH + tracker_frame_cost(8)
    assert vp == pytest.approx(127.4, rel=0.01)
    assert C.DEPTH / vp == pytest.approx(0.48, abs=0.01)
    assert tracker_frame_cost(8) / vp == pytest.approx(0.26, abs=0.01)


def test_object_type_pruner_tracking_saving():
    # §6.2: pruning 86.3 % of ~8 objects cuts ~69 % of tracking runtime.
    full = tracker_frame_cost(8)
    pruned = tracker_frame_cost(1.1)
    assert 1 - pruned / full == pytest.approx(0.69, abs=0.05)


def test_geom3d_vs_depth_ratio():
    # §6.3: geometric estimator ~192x faster than Monodepth2 per frame.
    assert C.DEPTH / (C.GEOM3D_OBJ * 8) == pytest.approx(192, rel=0.02)


def test_rvp_overhead_fraction():
    vp = C.DECODE + C.YOLO + C.DEPTH + tracker_frame_cost(8)
    assert C.RVP_FRAME / vp == pytest.approx(0.001, rel=0.05)


def test_tracker_variant_ordering():
    assert tracker_frame_cost(8, "sort") < tracker_frame_cost(8, "deepsort")
    assert tracker_frame_cost(8, "deepsort") < tracker_frame_cost(8, "strongsort")


def test_cost_report_accumulates():
    r = CostReport()
    r.add("yolo", 10, 292.0).add("yolo", 5, 146.0).add("decode", 15, 60.0)
    assert r.count("yolo") == 15
    assert r.ms("yolo") == pytest.approx(438.0)
    assert r.total_ms == pytest.approx(498.0)


def test_cost_report_merge():
    a = CostReport().add("x", 1, 75.0)
    b = CostReport().add("x", 1, 25.0).add("y", 1, 100.0)
    a.merge(b)
    assert a.total_ms == 200.0
    assert (a.ms("x"), a.ms("y")) == (100.0, 100.0)


def test_cost_report_empty():
    r = CostReport()
    assert r.total_ms == 0.0
    assert r.ms("nope") == 0.0
