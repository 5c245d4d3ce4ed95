"""§5.2.3 Movable Objects Query Engine.

The MobilityDB metadata store of the paper becomes Spark SQL over three
tables:

* ``movable_objects`` — one row per (video, track, frame) with the 3D
  location plus track-derived columns (heading, speed, turn_left,
  stopped) computed with Catalyst window functions that share one
  (video, track) partitioning; a tracker-less plan's one-row tracks get
  constant track-derived columns from one narrow select;
* the per-frame ``cameras`` table;
* the ``road`` Geographic Constructs table, read through the shared
  construct index (``road_visibility.construct_index``) in place of
  MobilityDB's spatial index.

``compile_filter`` translates an S-Flow predicate AST into a joined,
filtered DataFrame: multi-object predicates become self-joins on
(video_id, frame_idx) (the "temporal index" equi-join of the paper).
Each construct reference is bound by a lookup, not a join: it explodes
the constructs that contain the first subject of its first top-level
``contains``, and every ``contains`` compiles to membership in the same
lookup. Everything else compiles to Column expressions.
"""
from __future__ import annotations

from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.pipeline import FRAME_KEY, Charge, frame_counts
from repro.core.predicates import (
    And,
    CameraRef,
    Contains,
    DistanceLt,
    Entity,
    GeoRef,
    HeadingDiffBetween,
    Not,
    ObjectRef,
    Or,
    Predicate,
    Stopped,
    TurnLeft,
    TypeIn,
    camera_used,
    conjuncts,
    geo_refs,
    object_refs,
    object_type_constraints,
)
from repro.core.road_visibility import construct_index, containing
from repro.video.costmodel import C, CostReport

__all__ = ["movable_objects", "compile_filter", "result_key_columns", "combination_count",
           "query_engine_charge"]

TURN_WINDOW_S = 2.5
TURN_MIN_DEG = 30.0
TURN_MAX_DEG = 150.0
STOP_WINDOW_S = 1.0
STOP_SPEED_MPS = 0.5


def _constructs_at(road: DataFrame, gtypes: set[str]):
    """The construct lookup over ``road``'s constructs of ``gtypes``:
    ``at(entity, gtype)`` is a column holding the (cid, heading) of every
    construct of ``gtype`` that contains the entity's point."""
    index = construct_index(road, gtypes)
    entries = [
        {"cid": int(c), "heading": None if np.isnan(h) else float(h)}
        for c, h in zip(index.cid, index.heading)
    ]

    @F.pandas_udf("array<struct<cid: long, heading: double>>")
    def lookup(xs: pd.Series, ys: pd.Series, t: pd.Series) -> pd.Series:
        hit = containing(index, xs, ys) & (index.tix == t.to_numpy()[:, None])
        return pd.Series([[entries[j] for j in np.flatnonzero(row)] for row in hit])

    def at(e: Entity, gtype: str) -> Column:
        return lookup(*_xy(e), F.lit(index.types.index(gtype)))

    return at


def _circ_diff(a: Column, b: Column) -> Column:
    d = F.abs(a - b) % 360.0
    return F.least(d, 360.0 - d)


def _motion(dx: Column, dy: Column, dt: Column) -> tuple[Column, Column]:
    """Heading (degrees, null when not moving) and speed (0 without a
    positive time step) of a displacement (dx, dy) over dt seconds."""
    dist = F.sqrt(dx * dx + dy * dy)
    heading = F.when(dist > 1e-3, (F.degrees(F.atan2(dy, dx)) + 360.0) % 360.0)
    return heading, F.when(dt > 0, dist / dt).otherwise(F.lit(0.0))


def _turn_left(ccw: Column) -> Column:
    return F.coalesce((ccw > TURN_MIN_DEG) & (ccw < TURN_MAX_DEG), F.lit(False))


def _stopped(mean_speed: Column) -> Column:
    return F.coalesce(mean_speed < STOP_SPEED_MPS, F.lit(False))


def movable_objects(tracked: DataFrame, *, fps: float) -> DataFrame:
    """Movable Objects table (§4.1.3) from the video processor's output:
    video_id, oid, frame_idx, ts, x, y, z, otype, heading, speed,
    turn_left, stopped. A plan without a 3D stage leaves the location null.

    With a tracker, each track is a Movable Object: its majority-vote
    type, motion heading, speed and the windowed ``turn_left`` /
    ``stopped`` flags are Catalyst window functions over the one
    (video, track) partitioning, so the step shuffles once. Without a
    tracker, each detection is a one-row track. It has no neighbouring
    sample, so the same formulas give it constant trajectory columns
    (heading null, speed 0, turn_left false, stopped true), in one
    narrow select.
    """
    unknown = F.lit(None).cast("double")
    if "wx" in tracked.columns:
        location = [F.col(f"w{c}").alias(c) for c in "xyz"]
    else:
        location = [unknown.alias(c) for c in "xyz"]
    if "track_id" not in tracked.columns:
        heading, speed = _motion(unknown, unknown, unknown)
        return tracked.select(
            "video_id", F.col("det_id").alias("oid"), "frame_idx", "ts", *location, "otype",
            heading.alias("heading"), speed.alias("speed"),
            _turn_left(unknown).alias("turn_left"), _stopped(speed).alias("stopped"),
        )
    by_track = Window.partitionBy("video_id", "oid")
    by_frame = by_track.orderBy("frame_idx")
    # Range windows over time need an integral order key: milliseconds.
    by_time = by_track.orderBy("ts_ms")
    objects = tracked.filter(F.col("track_id") >= 0).select(
        "video_id", F.col("track_id").alias("oid"), "frame_idx", "ts", *location, "otype"
    )

    # Motion over a 3-sample baseline when available (smooths detector
    # jitter on the estimated locations), falling back to adjacent
    # samples for short tracks: the first of 3 ahead, 3 behind, 1 ahead
    # and 1 behind whose x is known. Each (dx, dy, dt) triple comes from
    # the SAME baseline so speeds stay consistent.
    def shifted(c: str, k: int) -> Column:
        return (F.lead(c, k) if k > 0 else F.lag(c, -k)).over(by_frame)

    def delta(c: str) -> Column:
        d = None
        for k in (-1, 1, -3, 3):  # from the last fallback up
            dk = (1.0 if k > 0 else -1.0) * (shifted(c, k) - F.col(c))
            d = dk if d is None else F.when(shifted("x", k).isNotNull(), dk).otherwise(d)
        return d

    objects = objects.withColumns({
        # On a tie the lowest type name wins, whatever the row order.
        "otype": F.mode("otype", deterministic=True).over(by_track),
        "ts_ms": (F.col("ts") * 1000.0).cast("long"),
        "dx": delta("x"), "dy": delta("y"), "dt": delta("ts"),
    })
    heading, speed = _motion(F.col("dx"), F.col("dy"), F.col("dt"))
    objects = objects.withColumns({"heading": heading, "speed": speed})
    # turn_left is centered: the heading ~1.25 s ahead minus the heading
    # ~1.25 s behind turned CCW by 30-150 deg — true *during* the turn
    # (a leading-only window fires before the car reaches the turn).
    half = int(TURN_WINDOW_S * 1000 / 2)
    past_heading = F.first("heading", ignorenulls=True).over(by_time.rangeBetween(-half, 0))
    future_heading = F.last("heading", ignorenulls=True).over(by_time.rangeBetween(0, half))
    stop = int(STOP_WINDOW_S * 1000)
    objects = objects.withColumns({
        "ccw": ((future_heading - past_heading) + 540.0) % 360.0 - 180.0,
        "stopped": _stopped(F.avg("speed").over(by_time.rangeBetween(-stop, stop))),
    })
    return objects.select(
        "video_id", "oid", "frame_idx", "ts", "x", "y", "z", "otype", "heading", "speed",
        _turn_left(F.col("ccw")).alias("turn_left"), "stopped",
    )


def query_engine_charge(k: int) -> Charge:
    """Charge ``query_engine`` for the ordered object tuples a k-object
    self-join evaluates — the work measure of the query-engine stage —
    from the Movable Objects table's own per-frame counts n_f:
    sum_f n_f*(n_f-1)*...*(n_f-k+1); k=1 degenerates to the row count.
    This is why §7.1.1's Q8 (two self-joins) costs Spatialyze as much as
    EVA's simple count."""

    def charge(cost: CostReport, n_in, n: np.ndarray, objects) -> None:
        tuples = int(np.prod([np.maximum(n - i, 0) for i in range(k)], axis=0).sum())
        cost.add("query_engine", tuples, tuples * C.QUERY_ROW)

    return charge


def combination_count(objects: DataFrame, pred: Predicate) -> int:
    """The tuple count :func:`query_engine_charge` charges for ``pred``."""
    cost = CostReport()
    keys = objects.select(*FRAME_KEY).toArrow()
    query_engine_charge(len(object_refs(pred)))(cost, None, frame_counts(keys), keys)
    return int(cost.count("query_engine"))


def _alias_of(e: Entity) -> str:
    if isinstance(e, ObjectRef):
        return f"o{e.idx}"
    if isinstance(e, CameraRef):
        return "cam"
    return f"g_{e.gtype}_{e.idx}"


def _xy(e: Entity) -> tuple[Column, Column]:
    if isinstance(e, CameraRef):
        return F.col("cam.cam_x"), F.col("cam.cam_y")
    if isinstance(e, ObjectRef):
        return F.col(f"{_alias_of(e)}.x"), F.col(f"{_alias_of(e)}.y")
    raise TypeError(f"no point location for {e}")


def _heading(e: Entity) -> Column:
    # The camera's, an object's motion or a construct's heading.
    return F.col("cam.cam_heading" if isinstance(e, CameraRef) else f"{_alias_of(e)}.heading")


def _compile_expr(pred: Predicate, at) -> Column:
    """``at(entity, gtype)`` is the constructs-containing lookup column."""
    if isinstance(pred, And):
        return reduce(lambda a, b: a & b, (_compile_expr(p, at) for p in pred.parts))
    if isinstance(pred, Or):
        return reduce(lambda a, b: a | b, (_compile_expr(p, at) for p in pred.parts))
    if isinstance(pred, Not):
        return ~_compile_expr(pred.part, at)
    if isinstance(pred, TypeIn):
        return F.col(f"{_alias_of(pred.obj)}.otype").isin(*pred.types)
    if isinstance(pred, Contains):
        cid = F.col(f"{_alias_of(pred.geo)}.cid")
        return reduce(
            lambda a, b: a & b,
            (F.array_contains(at(s, pred.geo.gtype)["cid"], cid) for s in pred.subjects),
        )
    if isinstance(pred, DistanceLt):
        ax, ay = _xy(pred.a)
        bx, by = _xy(pred.b)
        return F.sqrt((ax - bx) ** 2 + (ay - by) ** 2) < pred.meters
    if isinstance(pred, HeadingDiffBetween):
        d = _circ_diff(_heading(pred.a), _heading(pred.b))
        return (d >= pred.lo) & (d <= pred.hi)
    if isinstance(pred, TurnLeft):
        return F.col(f"{_alias_of(pred.obj)}.turn_left")
    if isinstance(pred, Stopped):
        return F.col(f"{_alias_of(pred.obj)}.stopped")
    raise TypeError(f"cannot compile {pred!r}")


def _binding_subjects(pred: Predicate) -> dict[GeoRef, Entity]:
    """Each construct reference's binding subject: the first subject of
    its first top-level ``contains``. A reference no top-level
    ``contains`` binds (reachable only through Or/Not, or used only in a
    heading predicate) has no defined set of constructs."""
    bound: dict[GeoRef, Entity] = {}
    for p in conjuncts(pred):
        if isinstance(p, Contains):
            bound.setdefault(p.geo, p.subjects[0])
    for g in geo_refs(pred):
        if g not in bound:
            raise ValueError(f"{g} is not bound by a top-level contains()")
    return bound


def result_key_columns(pred: Predicate) -> list[str]:
    return ["video_id", "frame_idx"] + [f"oid_{r.idx}" for r in object_refs(pred)]


def compile_filter(
    objects: DataFrame, cameras: DataFrame, road: DataFrame, pred: Predicate
) -> DataFrame:
    """Compile + execute a predicate; returns matching combination rows.

    Output: video_id, frame_idx, ts, and per-object oid_i/otype_i/x_i/y_i
    columns. Multi-object predicates self-join ``objects`` on
    (video_id, frame_idx); symmetric same-type pairs are deduplicated by
    requiring increasing oids.
    """
    refs = object_refs(pred)
    cons = object_type_constraints(pred)
    if not refs:
        raise ValueError("predicate references no objects")
    a0 = _alias_of(refs[0])

    def same_frame(a: str) -> Column:
        return (F.col(f"{a0}.video_id") == F.col(f"{a}.video_id")) & (
            F.col(f"{a0}.frame_idx") == F.col(f"{a}.frame_idx")
        )

    df = objects.alias(a0)
    for r in refs[1:]:
        df = df.join(objects.alias(_alias_of(r)), same_frame(_alias_of(r)), "inner")
    # Distinctness across object refs: '<' for interchangeable same-type
    # refs (dedup symmetric pairs), '!=' otherwise.
    for i, ri in enumerate(refs):
        for rj in refs[i + 1 :]:
            same = cons is not None and cons.get(ri.idx) == cons.get(rj.idx)
            ci = F.col(f"{_alias_of(ri)}.oid")
            cj = F.col(f"{_alias_of(rj)}.oid")
            df = df.filter(ci < cj if same else ci != cj)
    if camera_used(pred):
        df = df.join(cameras.alias("cam"), same_frame("cam"), "inner")
    bound = _binding_subjects(pred)
    at = _constructs_at(road, {g.gtype for g in bound}) if bound else None
    for g, subject in bound.items():
        df = df.withColumn(_alias_of(g), F.explode(at(subject, g.gtype)))
    df = df.filter(_compile_expr(pred, at))
    out_cols = [
        F.col(f"{a0}.video_id").alias("video_id"),
        F.col(f"{a0}.frame_idx").alias("frame_idx"),
        F.col(f"{a0}.ts").alias("ts"),
    ]
    for r in refs:
        a = _alias_of(r)
        out_cols += [
            F.col(f"{a}.oid").alias(f"oid_{r.idx}"),
            F.col(f"{a}.otype").alias(f"otype_{r.idx}"),
            F.col(f"{a}.x").alias(f"x_{r.idx}"),
            F.col(f"{a}.y").alias(f"y_{r.idx}"),
        ]
    return df.select(*out_cols).dropDuplicates(result_key_columns(pred))
