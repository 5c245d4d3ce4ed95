"""§5.2.3 Movable Objects Query Engine.

The MobilityDB metadata store of the paper becomes Spark SQL over three
tables:

* ``movable_objects`` — one row per (video, track, frame) with the 3D
  location plus track-derived columns (heading, speed, turn_left,
  stopped) computed with Catalyst window functions;
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


def movable_objects(tracked: DataFrame, *, fps: float) -> DataFrame:
    """Movable Objects table (§4.1.3) from the video processor's output.

    Adds per-track derived columns: majority-vote type, motion heading,
    speed, and the windowed ``turn_left`` / ``stopped`` flags. All via
    Catalyst window/aggregate functions over the (video, track) key.
    A plan without a 3D stage leaves the location null; without a
    tracker, each detection is its own Movable Object.
    """
    if "wx" not in tracked.columns:
        unknown = F.lit(None).cast("double")
        tracked = tracked.withColumns({"wx": unknown, "wy": unknown, "wz": unknown})
    if "track_id" not in tracked.columns:
        tracked = tracked.withColumn("track_id", F.col("det_id"))
    base = tracked.filter(F.col("track_id") >= 0).select(
        "video_id",
        "frame_idx",
        "ts",
        F.col("track_id").alias("oid"),
        "otype",
        F.col("wx").alias("x"),
        F.col("wy").alias("y"),
        F.col("wz").alias("z"),
    )
    # On a tie the lowest type name wins, whatever the row order.
    maj = (
        base.groupBy("video_id", "oid")
        .agg(F.mode("otype", deterministic=True).alias("maj_type"))
    )
    base = base.join(maj, on=["video_id", "oid"]).drop("otype").withColumnRenamed(
        "maj_type", "otype"
    )
    # Motion over a 3-sample baseline when available (smooths detector
    # jitter on the estimated locations), falling back to adjacent
    # samples for short tracks. Each (dx, dy, dt) triple comes from the
    # SAME baseline so speeds stay consistent.
    w = Window.partitionBy("video_id", "oid").orderBy("frame_idx")
    K = 3
    cases = []
    for kind, k in (("lead", K), ("lag", K), ("lead", 1), ("lag", 1)):
        fn = F.lead if kind == "lead" else F.lag
        sign = 1.0 if kind == "lead" else -1.0
        cases.append(
            (
                fn("x", k).over(w).isNotNull(),
                sign * (fn("x", k).over(w) - F.col("x")),
                sign * (fn("y", k).over(w) - F.col("y")),
                sign * (fn("ts", k).over(w) - F.col("ts")),
            )
        )
    dx = dy = dt = None
    for cond, cdx, cdy, cdt in reversed(cases):
        dx = cdx if dx is None else F.when(cond, cdx).otherwise(dx)
        dy = cdy if dy is None else F.when(cond, cdy).otherwise(dy)
        dt = cdt if dt is None else F.when(cond, cdt).otherwise(dt)
    moving = F.sqrt(dx * dx + dy * dy) > 1e-3
    base = base.withColumn(
        "heading",
        F.when(moving, (F.degrees(F.atan2(dy, dx)) + 360.0) % 360.0),
    ).withColumn(
        "speed",
        F.when(dt > 0, F.sqrt(dx * dx + dy * dy) / dt).otherwise(F.lit(0.0)),
    )
    # Range windows over time need an integral order key: milliseconds.
    # turn_left is centered: the heading ~1.25 s ahead minus the heading
    # ~1.25 s behind turned CCW by 30-150 deg — true *during* the turn
    # (a leading-only window fires before the car reaches the turn).
    base = base.withColumn("ts_ms", (F.col("ts") * 1000.0).cast("long"))
    half = int(TURN_WINDOW_S * 1000 / 2)
    w_past = Window.partitionBy("video_id", "oid").orderBy("ts_ms").rangeBetween(-half, 0)
    w_future = Window.partitionBy("video_id", "oid").orderBy("ts_ms").rangeBetween(0, half)
    past_heading = F.first("heading", ignorenulls=True).over(w_past)
    future_heading = F.last("heading", ignorenulls=True).over(w_future)
    ccw = ((future_heading - past_heading) + 540.0) % 360.0 - 180.0
    base = base.withColumn(
        "turn_left", F.coalesce((ccw > TURN_MIN_DEG) & (ccw < TURN_MAX_DEG), F.lit(False))
    )
    ws = (
        Window.partitionBy("video_id", "oid")
        .orderBy("ts_ms")
        .rangeBetween(-int(STOP_WINDOW_S * 1000), int(STOP_WINDOW_S * 1000))
    )
    base = base.withColumn(
        "stopped",
        F.coalesce(F.avg("speed").over(ws) < STOP_SPEED_MPS, F.lit(False)),
    )
    return base.drop("ts_ms")


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
