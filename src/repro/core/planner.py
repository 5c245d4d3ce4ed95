"""Workflow planner (§5.2.2 + §6's operator-placement rules).

Given the user's filter predicate, decides which streaming operators the
video-processing plan needs and which optimization operators to insert:

* predicate needs types only        → decoder + detector;
* needs distance/contains           → + 3D location estimator;
* needs headings/turns/stops        → + object tracker;
* top-level ``contains`` present    → Road Visibility Pruner after the
  decoder (§6.1), pruning at the tightest camera-distance bound;
* all objects type-constrained      → Object Type Pruner after the
  detector (§6.2);
* all types touch the ground        → Geometry-Based 3D Location
  Estimator replaces the depth network (§6.3);
* all types are vehicles            → Exit Frame Sampler between the 3D
  estimator and the tracker (§6.4).

This is the paper's "rule-based plan rewriting driven by predicate
analysis": each rule only fires when the predicate proves it sound.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.predicates import (
    GROUND_TYPES,
    VEHICLE_TYPES,
    Predicate,
    object_refs,
    object_type_constraints,
    required_capabilities,
    rvp_distance,
    rvp_geo_types,
)

__all__ = ["ALL_OPTIMIZATIONS", "Plan", "plan_workflow"]

ALL_OPTIMIZATIONS = frozenset({"rvp", "otp", "geom3d", "efs"})


@dataclass(frozen=True)
class Plan:
    """An executable video-processing plan."""

    include_loc3d: bool
    include_tracker: bool
    loc3d_impl: str  # 'geometry' | 'depth'
    tracker_variant: str
    use_rvp: bool
    rvp_types: frozenset[str]
    rvp_distance: float
    use_otp: bool
    otp_types: frozenset[str]
    use_efs: bool

    @property
    def operators(self) -> list[str]:
        """Ordered operator names, for display/tests."""
        ops = ["decode", "rvp", "detect"] if self.use_rvp else ["decode", "detect"]
        if self.use_otp:
            ops.append("otp")
        if self.include_loc3d:
            ops.append("loc3d_geometry" if self.loc3d_impl == "geometry" else "loc3d_depth")
        if self.use_efs:
            ops.append("efs")
        if self.include_tracker:
            ops.append(f"track_{self.tracker_variant}")
        return ops


def plan_workflow(
    pred: Predicate,
    *,
    optimizations: frozenset[str] | set[str] = ALL_OPTIMIZATIONS,
    tracker_variant: str = "strongsort",
) -> Plan:
    """Build the operator plan for a filter predicate."""
    unknown = set(optimizations) - ALL_OPTIMIZATIONS
    if unknown:
        raise ValueError(f"unknown optimizations: {sorted(unknown)}")
    if not object_refs(pred):
        raise ValueError("predicate references no objects")
    caps = required_capabilities(pred)
    cons = object_type_constraints(pred)
    all_types: frozenset[str] = (
        frozenset().union(*cons.values()) if cons else frozenset()
    )

    include_tracker = "tracks" in caps
    # Trajectories are computed from world-space locations, so tracking
    # implies 3D estimation.
    include_loc3d = "loc3d" in caps or include_tracker

    geo_types = rvp_geo_types(pred)
    use_rvp = "rvp" in optimizations and bool(geo_types)
    use_otp = "otp" in optimizations and cons is not None
    geometry_ok = (
        "geom3d" in optimizations
        and cons is not None
        and all_types <= GROUND_TYPES
        and bool(all_types)
    )
    use_efs = (
        "efs" in optimizations
        and include_tracker
        and cons is not None
        and bool(all_types)
        and all_types <= VEHICLE_TYPES
    )
    return Plan(
        include_loc3d=include_loc3d,
        include_tracker=include_tracker,
        loc3d_impl="geometry" if (geometry_ok and include_loc3d) else "depth",
        tracker_variant=tracker_variant,
        use_rvp=use_rvp,
        rvp_types=frozenset(geo_types),
        rvp_distance=rvp_distance(pred),
        use_otp=use_otp,
        otp_types=all_types if cons is not None else frozenset(),
        use_efs=use_efs,
    )
