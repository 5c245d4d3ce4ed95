"""Tests for the workflow planner's §6 placement rules."""
import pytest

from repro.core import predicates as P
from repro.core.planner import ALL_OPTIMIZATIONS, plan_workflow
from repro.core.queries import query
from repro.experiments import SETUPS


def test_q1_plan_no_efs():
    # Q1 is person-only: EFS must not fire (§7.2.1: "Q1 does not execute
    # the Exit Frame Sampler as it only works with cars or trucks").
    p = plan_workflow(query("Q1"))
    assert "rvp" in p.operators and p.rvp_types == {"intersection"}
    assert "otp" in p.operators and p.otp_types == {"person"}
    assert "loc3d_geometry" in p.operators  # person is a ground type
    assert "track_strongsort" in p.operators and "efs" not in p.operators


# plan_workflow(query(q), optimizations=SETUPS[s]).operators for Q1-Q10
# under (SB) and (S6), pinned.
D, T = ["decode", "detect", "loc3d_depth"], "track_strongsort"
S6_TYPED = ["decode", "rvp", "detect", "otp", "loc3d_geometry"]
PINNED = {
    **{(f"Q{i}", "SB"): D + [T] for i in (1, 2, 3, 4, 9, 10)},
    **{(f"Q{i}", "SB"): D for i in (5, 6, 7, 8)},
    **{(f"Q{i}", "S6"): S6_TYPED + [T] for i in (1, 9)},
    **{(f"Q{i}", "S6"): S6_TYPED + ["efs", T] for i in (2, 3, 4, 10)},
    **{(f"Q{i}", "S6"): S6_TYPED for i in (5, 6, 7, 8)},
}


@pytest.mark.parametrize("qname,setup", sorted(PINNED))
def test_pinned_operators(qname, setup):
    got = plan_workflow(query(qname), optimizations=SETUPS[setup]).operators
    assert got == PINNED[(qname, setup)]


def test_q2_plan_all_optimizations():
    p = plan_workflow(query("Q2"))
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
    assert not any(op.startswith("track_") for op in p.operators)
    assert "loc3d_geometry" in p.operators  # contains() needs 3D locations
    assert "efs" not in p.operators


def test_q9_mixed_types_no_efs():
    p = plan_workflow(query("Q9"))
    assert "otp" in p.operators and p.otp_types == {"car", "person"}
    assert "efs" not in p.operators  # person is not a vehicle


def test_q10_bike_lane_rvp():
    p = plan_workflow(query("Q10"))
    assert p.rvp_types == {"bikeLane"}
    assert "efs" in p.operators  # car-only query with tracks (stopped)


def test_baseline_disables_everything():
    p = plan_workflow(query("Q2"), optimizations=frozenset())
    assert p.operators == ["decode", "detect", "loc3d_depth", "track_strongsort"]


def test_single_optimization_setups():
    q = query("Q2")
    s1 = plan_workflow(q, optimizations={"rvp"}).operators
    assert "rvp" in s1 and "otp" not in s1
    s3 = plan_workflow(q, optimizations={"geom3d"}).operators
    assert "loc3d_geometry" in s3 and "rvp" not in s3
    s4 = plan_workflow(q, optimizations={"efs"}).operators
    assert "efs" in s4 and "loc3d_depth" in s4


def test_unconstrained_type_blocks_otp_and_geom3d():
    o = P.obj(0)
    pred = P.And((P.contains(P.geo_construct("lane"), o),
                  P.distance_lt(P.camera(), o, 50)))
    p = plan_workflow(pred)
    assert "otp" not in p.operators
    assert "loc3d_depth" in p.operators  # cannot assume objects touch ground


def test_non_ground_type_uses_depth():
    pred = P.And((P.type_in(P.obj(0), "traffic light"),
                  P.contains(P.geo_construct("intersection"), P.obj(0))))
    p = plan_workflow(pred)
    assert "otp" in p.operators  # type known
    assert "loc3d_depth" in p.operators  # traffic light doesn't touch ground


def test_tracker_variant_passthrough():
    p = plan_workflow(query("Q9"), tracker_variant="deepsort")
    assert [op for op in p.operators if op.startswith("track_")] == ["track_deepsort"]


def test_unknown_optimization_rejected():
    with pytest.raises(ValueError):
        plan_workflow(query("Q1"), optimizations={"warp_drive"})


def test_predicate_without_objects_rejected():
    # A plan always runs the detector: a camera-only predicate has no plan.
    with pytest.raises(ValueError, match="predicate references no objects"):
        plan_workflow(P.contains(P.geo_construct("lane"), P.camera()))


def test_all_optimizations_constant():
    assert ALL_OPTIMIZATIONS == {"rvp", "otp", "geom3d", "efs"}
