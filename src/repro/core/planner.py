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

from dataclasses import dataclass

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
    """An executable video-processing plan: the ordered operator names
    and the parameters those operators take. The tracker's variant is
    part of its name, ``track_<variant>``."""

    operators: list[str]
    rvp_types: frozenset[str]
    rvp_distance: float
    otp_types: frozenset[str]


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

    tracks = "tracks" in caps
    geo_types = rvp_geo_types(pred)
    # Every object is constrained, and to at least one type.
    typed = cons is not None and bool(all_types)
    rvp = "rvp" in optimizations and bool(geo_types)
    ops = ["decode", "rvp", "detect"] if rvp else ["decode", "detect"]
    if "otp" in optimizations and cons is not None:
        ops.append("otp")
    # Trajectories are computed from world-space locations, so tracking
    # implies 3D estimation.
    if "loc3d" in caps or tracks:
        geometry = "geom3d" in optimizations and typed and all_types <= GROUND_TYPES
        ops.append("loc3d_geometry" if geometry else "loc3d_depth")
    if "efs" in optimizations and tracks and typed and all_types <= VEHICLE_TYPES:
        ops.append("efs")
    if tracks:
        ops.append(f"track_{tracker_variant}")
    return Plan(
        ops,
        rvp_types=frozenset(geo_types),
        rvp_distance=rvp_distance(pred),
        otp_types=all_types,
    )
