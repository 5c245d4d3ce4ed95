"""Video Processor execution (§5.2.2): one executor for every operator plan.

A plan is an ordered list of :class:`Operator`s, run by :func:`execute`.
Each operator applies one DataFrame→DataFrame step; the executor
collects the step's output once, as an Arrow table, and hands that table
to the next step as a local relation. The per-frame row counts come from
the collected rows, and the operator's charge prices them (and its
input's) with the calibrated cost model — pruning effectiveness is
observed, never assumed. Nothing is cached. Spatialyze's plans
(Listing 2 + §6 placements, :func:`video_processor`) and the comparison
systems' plans in ``repro.baselines`` differ only in which operators they list and what
each charges; a workflow appends its Movable Objects step
(``repro.core.sflow.movable_objects_step``) and runs all of it in one
``execute`` call. The paper's O(1)-frames streaming property maps to
Spark's pipelined execution within a step; between steps the frames
pass through the driver.

Operators call the layer functions (``decode``, ``detect``, ...) through
this module's globals when they run, so a wrapper installed here sees
every plan's calls; ``perfbench/tracing.py`` relies on that.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

from repro.core.exit_frame_sampler import MAX_SKIP, sample_frames
from repro.core.geom3d import estimate_3d_geometry
from repro.core.planner import Plan
from repro.core.road_visibility import construct_index, prune_frames
from repro.core.type_pruner import prune_types
from repro.video.costmodel import C, CostReport, tracker_cost
from repro.video.decoder import decode
from repro.video.depth import estimate_3d_depth
from repro.video.detector import detect
from repro.video.tracker import track_objects

__all__ = [
    "DECODE", "LOC3D_DEPTH", "LOC3D_GEOMETRY", "Operator", "VPResult", "detector", "execute",
    "frame_counts", "frames_in", "frames_out", "per", "proxy_gated_detector", "road_visibility",
    "rows_in", "tracker", "video_processor",
]

FRAME_KEY = ["video_id", "frame_idx"]


@dataclass
class VPResult:
    """One executor run: the last operator's output + modeled cost.

    ``outputs`` maps each operator's name to its output DataFrame: a
    local relation over the rows the executor collected, valid after
    ``execute`` has returned. Reading one runs no operator again.
    """

    objects: DataFrame
    cost: CostReport
    outputs: dict[str, DataFrame] = field(default_factory=dict)


# charge(cost, n_in, n_out, rows): n_in and n_out are the frame_counts of
# the operator's input (None for the first operator) and output; rows is
# the output the executor collected.
Charge = Callable[[CostReport, np.ndarray | None, np.ndarray, pa.Table], None]


@dataclass(frozen=True)
class Operator:
    """One plan step. ``apply(run, df)`` maps the previous step's output
    to this step's; ``charge`` then adds the step's modeled cost to the
    run's ``CostReport`` from the per-frame row counts the executor took."""

    name: str
    apply: Callable[[VPResult, DataFrame], DataFrame]
    charge: Charge


def frame_counts(rows: pa.Table) -> np.ndarray:
    """Rows of ``rows`` per (video_id, frame_idx), one entry per frame
    that has any rows, counted on the driver from the collected keys."""
    per_frame = rows.group_by(FRAME_KEY).aggregate([([], "count_all")])
    return per_frame["count_all"].to_numpy()


def execute(operators: list[Operator], source: DataFrame) -> VPResult:
    """Run ``operators`` in order over ``source``; ``objects`` is the last
    operator's output. The only place a plan step is materialized and
    counted: each output is collected once with ``toArrow()``, counted
    per frame from its key columns, and handed on as ``createDataFrame``
    of that table — a local relation with the output's schema and exact
    values (a pandas round trip would merge NaN and null). No job runs
    only to count, nothing is persisted, and outputs stay valid after
    the call.

    Driver memory: the driver holds each operator's output once, rows ×
    columns — about 1.5k detections per operator at ``nuscenes_lite``
    6 × 32 and about 15k rows (a few MB) at the paper's 8 × 240 frames."""
    run = VPResult(source, CostReport())
    n_in = None
    for op in operators:
        out = op.apply(run, run.objects)
        rows = out.toArrow()
        n_out = frame_counts(rows)
        op.charge(run.cost, n_in, n_out, rows)
        run.objects = run.outputs[op.name] = source.sparkSession.createDataFrame(rows, out.schema)
        n_in = n_out
    return run


# The units a charge counts, from its operator's input and output counts.
def frames_in(n_in: np.ndarray, n_out: np.ndarray) -> int:
    return len(n_in)


def rows_in(n_in: np.ndarray, n_out: np.ndarray) -> int:
    return int(n_in.sum())


def frames_out(n_in: np.ndarray, n_out: np.ndarray) -> int:
    return len(n_out)


def per(unit: Callable[[np.ndarray, np.ndarray], int], op: str, ms: float) -> Charge:
    """Charge ``ms`` to ``op`` once per ``unit`` of the operator's counts
    (``frames_in``, ``rows_in`` or ``frames_out``)."""

    def charge(cost: CostReport, n_in, n_out, rows) -> None:
        n = unit(n_in, n_out)
        cost.add(op, n, n * ms)

    return charge


def _charge_geometry(cost: CostReport, n_in, n_out, dets3: pa.Table) -> None:
    per(rows_in, "geom3d", C.GEOM3D_OBJ)(cost, n_in, n_out, dets3)
    # The depth network runs on every frame with a fallback detection.
    fallback = len(frame_counts(dets3.filter(pc.field("est_src") == "depth_fallback")))
    if fallback:
        cost.add("depth", fallback, fallback * C.DEPTH)


DECODE = Operator(
    "decode", lambda run, cameras: decode(cameras), per(frames_out, "decode", C.DECODE)
)
LOC3D_GEOMETRY = Operator(
    "loc3d_geometry", lambda run, dets: estimate_3d_geometry(dets), _charge_geometry
)
LOC3D_DEPTH = Operator(
    "loc3d_depth", lambda run, dets: estimate_3d_depth(dets), per(frames_out, "depth", C.DEPTH)
)


def road_visibility(road: DataFrame, types, distance: float) -> Operator:
    """§6.1 RVP after the decoder: keeps frames where every type is visible."""
    return Operator(
        "rvp",
        lambda run, f: prune_frames(f, road, types, distance),
        per(frames_in, "rvp", C.RVP_FRAME),
    )


def detector(gt: DataFrame) -> Operator:
    """The object detector, charged per frame it is given."""
    return Operator(
        "detect", lambda run, frames: detect(frames, gt), per(frames_in, "yolo", C.YOLO)
    )


def proxy_gated_detector(gt: DataFrame, proxy: str, proxy_ms: float, ms: float) -> Operator:
    """The detector behind a cheap proxy model (OTIF, VIVA): the proxy,
    charged ``proxy_ms`` as ``proxy``, sees every frame it is given; the
    detector, charged ``ms``, runs only on the frames the proxy flags —
    the frames with objects."""
    charge_proxy, charge_yolo = per(frames_in, proxy, proxy_ms), per(frames_out, "yolo", ms)

    def charge(*counts) -> None:
        charge_proxy(*counts)
        charge_yolo(*counts)

    return replace(detector(gt), charge=charge)


def tracker(variant: str) -> Operator:
    """The object tracker, charged by ``costmodel.tracker_cost`` over the
    per-frame detection counts of its output."""

    def charge(cost: CostReport, n_in, n: np.ndarray, tracked) -> None:
        cost.add("track", len(n), tracker_cost(len(n), int(n.sum()), int((n**3).sum()), variant))

    return Operator(
        f"track_{variant}", lambda run, dets: track_objects(dets, variant=variant), charge
    )


def video_processor(
    plan: Plan, gt: DataFrame, road: DataFrame, *, fps: float, efs_max_skip: int = MAX_SKIP,
) -> list[Operator]:
    """Spatialyze's operators for ``plan.operators``, in order, over one
    dataset's frames, ready for :func:`execute`."""

    def sample_exit_frames(run, dets3):
        # The frames the detector saw: after the RVP, if any.
        frames = run.outputs.get("rvp", run.outputs["decode"])
        return sample_frames(
            dets3, frames, construct_index(road, {"lane"}),
            distance=plan.rvp_distance, fps=fps, max_skip=efs_max_skip,
        )

    catalog = (
        DECODE,
        road_visibility(road, plan.rvp_types, plan.rvp_distance),
        detector(gt),
        Operator("otp", lambda run, dets: prune_types(dets, plan.otp_types),
                 per(rows_in, "otp", C.OTP_OBJ)),
        LOC3D_GEOMETRY,
        LOC3D_DEPTH,
        Operator("efs", sample_exit_frames, per(frames_in, "efs", C.EFS_FRAME)),
    )
    by_name = {op.name: op for op in catalog}
    # The tracker is named by its variant: track_<variant>.
    return [tracker(name.removeprefix("track_")) if name.startswith("track_") else by_name[name]
            for name in plan.operators]
