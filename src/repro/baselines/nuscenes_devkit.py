"""nuScenes-devkit baseline (§7.1.3) — pure-Python annotation queries.

The paper compares only the Movable Objects Query Engine stage: the
devkit operates on already-extracted annotations, evaluating queries
with Python loops that *materialize every combination before filtering*
(the stated cause of its Q4 out-of-memory) and do per-row trigonometry
in interpreted Python. Our naive engine enumerates, per frame, every
ordered object tuple x every binding of the Geographic-Construct
references ("costly joins ... contribute greatly to the large execution
time of Devkit").

``MaterializationLimit`` reproduces the OOM failure mode as a bounded,
deterministic error instead of actually exhausting container memory —
Q4's two lane refs x three car refs blow the default cap immediately,
exactly the query that OOM'd in the paper.
"""
from __future__ import annotations

import math
from itertools import permutations, product

import pandas as pd

from repro.core.predicates import (
    And,
    CameraRef,
    Contains,
    DistanceLt,
    GeoRef,
    HeadingDiffBetween,
    Not,
    ObjectRef,
    Or,
    Stopped,
    TurnLeft,
    TypeIn,
    geo_refs,
    object_refs,
    object_type_constraints,
)

__all__ = ["run_devkit_query", "MaterializationLimit"]


class MaterializationLimit(MemoryError):
    """Raised when the naive engine would materialize too many
    combinations — the devkit's Q4 OOM, surfaced deterministically."""


def _devkit_pose_math(row) -> list[float]:
    """The per-access pose reconstruction the devkit performs (§7.1.3:
    "certain Devkit functions perform costly linear algebra"): a
    pyquaternion-style yaw-quaternion build, normalization and 3x3
    rotation applied to the translation — in interpreted Python, per
    object access, exactly the per-call overhead being simulated."""
    h = row["heading"]
    yaw = math.radians(h if h == h else 0.0)
    w, z = math.cos(yaw / 2), math.sin(yaw / 2)
    n = math.sqrt(w * w + z * z)
    w, z = w / n, z / n
    m = [[1 - 2 * z * z, -2 * w * z, 0.0], [2 * w * z, 1 - 2 * z * z, 0.0], [0.0, 0.0, 1.0]]
    t = [row["x"], row["y"], row["z"]]
    return [sum(m[i][j] * t[j] for j in range(3)) for i in range(3)]


def _heading_diff(a: float, b: float) -> float:
    d = abs(a - b) % 360.0
    return 360.0 - d if d > 180.0 else d


def _in_rect(x: float, y: float, g) -> bool:
    return g["xmin"] <= x <= g["xmax"] and g["ymin"] <= y <= g["ymax"]


def _eval(pred, env: dict, geo_env: dict, cam_row) -> bool:
    """Naive recursive evaluation for one (objects, geo) binding."""
    if isinstance(pred, And):
        return all(_eval(p, env, geo_env, cam_row) for p in pred.parts)
    if isinstance(pred, Or):
        return any(_eval(p, env, geo_env, cam_row) for p in pred.parts)
    if isinstance(pred, Not):
        return not _eval(pred.part, env, geo_env, cam_row)
    if isinstance(pred, TypeIn):
        return env[pred.obj.idx]["otype"] in pred.types
    if isinstance(pred, TurnLeft):
        return bool(env[pred.obj.idx]["turn_left"])
    if isinstance(pred, Stopped):
        return bool(env[pred.obj.idx]["stopped"])

    def xy(e):
        if isinstance(e, CameraRef):
            return cam_row["cam_x"], cam_row["cam_y"]
        return env[e.idx]["x"], env[e.idx]["y"]

    def heading(e):
        if isinstance(e, CameraRef):
            return cam_row["cam_heading"]
        if isinstance(e, GeoRef):
            return geo_env[(e.gtype, e.idx)]["heading"]
        return env[e.idx]["heading"]

    if isinstance(pred, DistanceLt):
        ax, ay = xy(pred.a)
        bx, by = xy(pred.b)
        return math.hypot(ax - bx, ay - by) < pred.meters
    if isinstance(pred, HeadingDiffBetween):
        ha, hb = heading(pred.a), heading(pred.b)
        if ha != ha or hb != hb:  # NaN heading never satisfies
            return False
        return pred.lo <= _heading_diff(ha, hb) <= pred.hi
    if isinstance(pred, Contains):
        g = geo_env[(pred.geo.gtype, pred.geo.idx)]
        return all(_in_rect(*xy(s), g) for s in pred.subjects)
    raise TypeError(f"cannot evaluate {pred!r}")


def run_devkit_query(
    objects: pd.DataFrame,
    cams: pd.DataFrame,
    road: pd.DataFrame,
    pred,
    *,
    max_combinations: int = 5_000_000,
) -> pd.DataFrame:
    """Evaluate a predicate the devkit way: per frame, materialize all
    ordered object tuples x all geo-construct bindings, then filter."""
    refs = object_refs(pred)
    grefs = geo_refs(pred)
    k = len(refs)
    cons = object_type_constraints(pred)
    geo_rows = {
        (g.gtype, g.idx): road[road["type"] == g.gtype].to_dict("records") for g in grefs
    }
    geo_binding_list = (
        [dict(zip(geo_rows.keys(), b)) for b in product(*geo_rows.values())]
        if geo_rows
        else [{}]
    )
    frames = objects.groupby(["video_id", "frame_idx"])
    # The combinations the loop below materializes, counted up front so
    # the limit is hit before any tuple is evaluated.
    total = sum(math.perm(n, k) for n in frames.size()) * len(geo_binding_list)
    if total > max_combinations:
        raise MaterializationLimit(f"would materialize {total} combinations (> {max_combinations})")
    cam_by = {(r["video_id"], r["frame_idx"]): r for r in cams.to_dict("records")}
    out = []
    for (vid, fidx), grp in frames:
        rows = grp.to_dict("records")
        # Materialize ALL (ordered k-tuple x geo binding) combinations
        # *before* filtering — the devkit behavior the paper blames for
        # both the runtime and the Q4 OOM.
        combos = [
            (tup, geo_env)
            for tup in permutations(rows, k)
            for geo_env in geo_binding_list
        ]
        cam_row = cam_by.get((vid, fidx))
        if cam_row is None:
            continue
        seen = set()
        for tup, geo_env in combos:
            env = {r.idx: row for r, row in zip(refs, tup)}
            for row in tup:  # devkit re-derives each object's pose
                _devkit_pose_math(row)
            ok_order = True
            for i, ri in enumerate(refs):
                for rj in refs[i + 1 :]:
                    same = cons is not None and cons.get(ri.idx) == cons.get(rj.idx)
                    a, b = env[ri.idx]["oid"], env[rj.idx]["oid"]
                    if (same and not a < b) or a == b:
                        ok_order = False
            if not ok_order:
                continue
            if _eval(pred, env, geo_env, cam_row):
                key = (vid, fidx) + tuple(env[r.idx]["oid"] for r in refs)
                if key not in seen:
                    seen.add(key)
                    out.append(
                        {"video_id": vid, "frame_idx": fidx,
                         **{f"oid_{r.idx}": env[r.idx]["oid"] for r in refs}}
                    )
    cols = ["video_id", "frame_idx"] + [f"oid_{r.idx}" for r in refs]
    return pd.DataFrame(out, columns=cols)
