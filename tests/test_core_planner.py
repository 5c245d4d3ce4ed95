"""Tests for the workflow planner's §6 placement rules."""
import pytest

from repro.core import predicates as P
from repro.core.planner import ALL_OPTIMIZATIONS, plan_workflow
from repro.core.queries import query


def test_q1_plan_no_efs():
    # Q1 is person-only: EFS must not fire (§7.2.1: "Q1 does not execute
    # the Exit Frame Sampler as it only works with cars or trucks").
    p = plan_workflow(query("Q1"))
    assert p.use_rvp and p.rvp_types == {"intersection"}
    assert p.use_otp and p.otp_types == {"person"}
    assert p.loc3d_impl == "geometry"  # person is a ground type
    assert p.include_tracker and not p.use_efs


def test_q2_plan_all_optimizations():
    p = plan_workflow(query("Q2"))
    assert p.use_rvp and p.use_otp and p.use_efs
    assert p.loc3d_impl == "geometry"
    assert p.operators == [
        "decode", "rvp", "detect", "otp", "loc3d_geometry", "efs", "track_strongsort",
    ]


def test_q3_rvp_distance_is_10():
    p = plan_workflow(query("Q3"))
    assert p.rvp_distance == 10.0
    assert p.rvp_types == {"lane"}


def test_q5_detection_only_plan():
    # Q5 has no heading predicate: no tracker in the plan (§5.2.2).
    p = plan_workflow(query("Q5"))
    assert not p.include_tracker
    assert p.include_loc3d  # contains() needs 3D locations
    assert not p.use_efs


def test_q9_mixed_types_no_efs():
    p = plan_workflow(query("Q9"))
    assert p.use_otp and p.otp_types == {"car", "person"}
    assert not p.use_efs  # person is not a vehicle


def test_q10_bike_lane_rvp():
    p = plan_workflow(query("Q10"))
    assert p.rvp_types == {"bikeLane"}
    assert p.use_efs  # car-only query with tracks (stopped)


def test_baseline_disables_everything():
    p = plan_workflow(query("Q2"), optimizations=frozenset())
    assert not (p.use_rvp or p.use_otp or p.use_efs)
    assert p.loc3d_impl == "depth"
    assert p.operators == ["decode", "detect", "loc3d_depth", "track_strongsort"]


def test_single_optimization_setups():
    q = query("Q2")
    assert plan_workflow(q, optimizations={"rvp"}).use_rvp
    assert not plan_workflow(q, optimizations={"rvp"}).use_otp
    s3 = plan_workflow(q, optimizations={"geom3d"})
    assert s3.loc3d_impl == "geometry" and not s3.use_rvp
    s4 = plan_workflow(q, optimizations={"efs"})
    assert s4.use_efs and s4.loc3d_impl == "depth"


def test_unconstrained_type_blocks_otp_and_geom3d():
    o = P.obj(0)
    pred = P.And((P.contains(P.geo_construct("lane"), o),
                  P.distance_lt(P.camera(), o, 50)))
    p = plan_workflow(pred)
    assert not p.use_otp
    assert p.loc3d_impl == "depth"  # cannot assume objects touch ground


def test_non_ground_type_uses_depth():
    pred = P.And((P.type_in(P.obj(0), "traffic light"),
                  P.contains(P.geo_construct("intersection"), P.obj(0))))
    p = plan_workflow(pred)
    assert p.use_otp  # type known
    assert p.loc3d_impl == "depth"  # traffic light doesn't touch ground


def test_tracker_variant_passthrough():
    p = plan_workflow(query("Q9"), tracker_variant="deepsort")
    assert p.tracker_variant == "deepsort"
    assert "track_deepsort" in p.operators


def test_unknown_optimization_rejected():
    with pytest.raises(ValueError):
        plan_workflow(query("Q1"), optimizations={"warp_drive"})


def test_predicate_without_objects_rejected():
    # A plan always runs the detector: a camera-only predicate has no plan.
    with pytest.raises(ValueError, match="predicate references no objects"):
        plan_workflow(P.contains(P.geo_construct("lane"), P.camera()))


def test_all_optimizations_constant():
    assert ALL_OPTIMIZATIONS == {"rvp", "otp", "geom3d", "efs"}
