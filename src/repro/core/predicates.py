"""S-Flow predicate language (§4.2) — AST, helper constructors, analysis.

Users describe *what* their video parts of interest look like with
predicates over arbitrary Movable Objects (``object()``), the Camera
(``camera()``) and Geographic Constructs (``geo_construct(type)``). The
planner (§5.2.2/§6) analyses the AST to decide which streaming
operators the video-processing plan needs and where the optimization
operators go; the Movable Objects Query Engine (§5.2.3) compiles it to
Spark SQL.

Helper predicates mirror Table 1: ``contains``, ``distance_lt``,
``heading_diff``, ``perpendicular``, ``opposite``, ``same_direction``,
``turn_left``, ``stopped``, ``type_in``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

__all__ = [
    "ObjectRef", "CameraRef", "GeoRef",
    "TypeIn", "Contains", "DistanceLt", "HeadingDiffBetween", "TurnLeft", "Stopped",
    "And", "Or", "Not",
    "obj", "camera", "geo_construct",
    "type_in", "contains", "distance_lt", "heading_diff",
    "perpendicular", "opposite", "same_direction", "turn_left", "stopped",
    "walk", "conjuncts", "object_refs", "geo_refs", "camera_used",
    "object_type_constraints", "rvp_geo_types", "rvp_distance",
    "required_capabilities", "DEFAULT_VIEW_DISTANCE", "GROUND_TYPES", "VEHICLE_TYPES",
]

GROUND_TYPES = frozenset({"car", "truck", "person", "bicycle"})
VEHICLE_TYPES = frozenset({"car", "truck"})
DEFAULT_VIEW_DISTANCE = 50.0

# ---------------------------------------------------------------- refs


@dataclass(frozen=True)
class ObjectRef:
    """An arbitrary Movable Object (type != camera) in the World."""

    idx: int


@dataclass(frozen=True)
class CameraRef:
    """The Camera movable object."""


@dataclass(frozen=True)
class GeoRef:
    """An arbitrary Geographic Construct of a given type."""

    gtype: str
    idx: int = 0


Entity = Union[ObjectRef, CameraRef, GeoRef]

# ---------------------------------------------------------------- predicates


@dataclass(frozen=True)
class TypeIn:
    obj: ObjectRef
    types: tuple[str, ...]


@dataclass(frozen=True)
class Contains:
    """``contains(geo, [a, b, ...])``: the construct polygon contains every
    subject's ground point."""

    geo: GeoRef
    subjects: tuple[Entity, ...]


@dataclass(frozen=True)
class DistanceLt:
    a: Entity
    b: Entity
    meters: float


@dataclass(frozen=True)
class HeadingDiffBetween:
    """|heading(a) - heading(b)| circular, within [lo, hi] degrees."""

    a: Entity
    b: Entity
    lo: float
    hi: float


@dataclass(frozen=True)
class TurnLeft:
    obj: ObjectRef


@dataclass(frozen=True)
class Stopped:
    obj: ObjectRef


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Not:
    part: object


Predicate = Union[TypeIn, Contains, DistanceLt, HeadingDiffBetween, TurnLeft, Stopped, And, Or, Not]

# ---------------------------------------------------------------- constructors


def obj(idx: int = 0) -> ObjectRef:
    return ObjectRef(idx)


def camera() -> CameraRef:
    return CameraRef()


def geo_construct(gtype: str, idx: int = 0) -> GeoRef:
    return GeoRef(gtype, idx)


def type_in(o: ObjectRef, *types: str) -> TypeIn:
    return TypeIn(o, tuple(types))


def contains(geo: GeoRef, subjects) -> Contains:
    subs = subjects if isinstance(subjects, (list, tuple)) else [subjects]
    return Contains(geo, tuple(subs))


def distance_lt(a: Entity, b: Entity, meters: float) -> DistanceLt:
    return DistanceLt(a, b, float(meters))


def heading_diff(a: Entity, b: Entity, between: tuple[float, float]) -> HeadingDiffBetween:
    return HeadingDiffBetween(a, b, float(between[0]), float(between[1]))


def perpendicular(a: Entity, b: Entity) -> HeadingDiffBetween:
    return HeadingDiffBetween(a, b, 70.0, 110.0)


def opposite(a: Entity, b: Entity) -> HeadingDiffBetween:
    return HeadingDiffBetween(a, b, 140.0, 180.0)


def same_direction(a: Entity, b: Entity) -> HeadingDiffBetween:
    return HeadingDiffBetween(a, b, 0.0, 40.0)


def turn_left(o: ObjectRef) -> TurnLeft:
    return TurnLeft(o)


def stopped(o: ObjectRef) -> Stopped:
    return Stopped(o)


# ---------------------------------------------------------------- analysis


def walk(pred: Predicate) -> Iterator[Predicate]:
    """Yield every node of the AST (pre-order)."""
    yield pred
    if isinstance(pred, (And, Or)):
        for p in pred.parts:
            yield from walk(p)
    elif isinstance(pred, Not):
        yield from walk(pred.part)


def conjuncts(pred: Predicate) -> list[Predicate]:
    """The top-level AND chain — the only place the optimizer trusts a
    constraint to hold for every result (a disjunct might not)."""
    if isinstance(pred, And):
        out: list[Predicate] = []
        for p in pred.parts:
            out.extend(conjuncts(p))
        return out
    return [pred]


def _entities(pred: Predicate) -> Iterator[Entity]:
    if isinstance(pred, (TypeIn, TurnLeft, Stopped)):
        yield pred.obj
    elif isinstance(pred, Contains):
        yield pred.geo
        yield from pred.subjects
    elif isinstance(pred, (DistanceLt, HeadingDiffBetween)):
        yield from (pred.a, pred.b)


def object_refs(pred: Predicate) -> list[ObjectRef]:
    seen: dict[int, ObjectRef] = {}
    for node in walk(pred):
        for e in _entities(node):
            if isinstance(e, ObjectRef):
                seen[e.idx] = e
    return [seen[i] for i in sorted(seen)]


def geo_refs(pred: Predicate) -> list[GeoRef]:
    out: dict[tuple[str, int], GeoRef] = {}
    for node in walk(pred):
        for e in _entities(node):
            if isinstance(e, GeoRef):
                out[(e.gtype, e.idx)] = e
    return [out[k] for k in sorted(out)]


def camera_used(pred: Predicate) -> bool:
    return any(
        isinstance(e, CameraRef) for node in walk(pred) for e in _entities(node)
    )


def object_type_constraints(pred: Predicate) -> dict[int, frozenset[str]] | None:
    """Per-object type constraints from the top-level conjunction.

    Returns None if *any* referenced object has no type constraint — the
    Object Type Pruner then cannot prune (§6.2 applies only when users
    filter on object types).
    """
    cons: dict[int, set[str]] = {}
    for p in conjuncts(pred):
        if isinstance(p, TypeIn):
            cur = cons.setdefault(p.obj.idx, set(p.types))
            cur &= set(p.types)
    refs = object_refs(pred)
    if any(r.idx not in cons for r in refs):
        return None
    return {i: frozenset(t) for i, t in cons.items()}


def rvp_geo_types(pred: Predicate) -> frozenset[str]:
    """Construct types whose visibility is required by top-level
    ``contains`` predicates — the Road Visibility Pruner's targets."""
    return frozenset(
        p.geo.gtype for p in conjuncts(pred) if isinstance(p, Contains)
    )


def rvp_distance(pred: Predicate) -> float:
    """The pruning distance d: the tightest camera-object distance bound
    (§6.1: contains(road, obj) & distance(cam, obj) < d), else 50 m."""
    best = DEFAULT_VIEW_DISTANCE
    for p in conjuncts(pred):
        if isinstance(p, DistanceLt) and (
            isinstance(p.a, CameraRef) or isinstance(p.b, CameraRef)
        ):
            best = min(best, p.meters)
    return best


def required_capabilities(pred: Predicate) -> frozenset[str]:
    """Which video-processing outputs the predicate needs (§5.2.2):
    'detection' (types/boxes), 'loc3d' (3D locations), 'tracks'
    (trajectories/headings)."""
    caps: set[str] = set()
    for node in walk(pred):
        if isinstance(node, TypeIn):
            caps.add("detection")
        elif isinstance(node, (Contains, DistanceLt)):
            caps.add("detection")
            if any(isinstance(e, ObjectRef) for e in _entities(node)):
                caps.add("loc3d")
        elif isinstance(node, HeadingDiffBetween):
            if any(isinstance(e, ObjectRef) for e in _entities(node)):
                caps.update(("detection", "loc3d", "tracks"))
        elif isinstance(node, (TurnLeft, Stopped)):
            caps.update(("detection", "loc3d", "tracks"))
    if object_refs(pred):
        caps.add("detection")
    return frozenset(caps)
