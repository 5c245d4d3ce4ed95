"""Calibrated operator cost model — the substitute for GPU wall-clock.

The paper's runtime numbers are driven by (a) how many frames/objects
each operator processes — which we *measure* by running the real Spark
pipelines — and (b) fixed per-invocation ML model costs on their T4 GPU
— which we *calibrate* from the paper's own published breakdown:

* §7.2.1: baseline workflow = 34 s per 20 s 12 FPS video (240 frames)
  → 141.7 ms/frame end-to-end; 89.9 % Video Processor (127.4 ms/frame),
  9.5 % Query Engine, 0.01 % Data Integrator, 0.6 % Output Composer.
* §6.3: Monodepth2 = 48 % of baseline video processing → 61.1 ms/frame;
  the geometric estimator is 192x faster on average.
* §6.2: tracking ~= 26 % of video processing (33.1 ms/frame at the
  baseline object load of ~8 objects/frame); pruning 86.3 % of objects
  cuts ~69 % of tracking runtime → a large per-object + n^3 Hungarian
  component over a fixed base.
* §6.1/§6.2: pruner overheads are 0.1 % and 0.06 % of video processing.

``CostReport`` accumulates (count x unit-cost) entries per operator; all
modeled-runtime tables in EXPERIMENTS.md are sums over these entries.
"""
from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["C", "CostReport", "tracker_cost", "tracker_frame_cost"]


class C:
    """Per-invocation cost constants, in milliseconds."""

    # -- baseline processing operators (per frame) --
    DECODE = 4.0                 # OpenCV decode
    YOLO = 29.2                  # YOLOv5 detector
    DEPTH = 61.1                 # Monodepth2 whole-image depth (48 % of VP)
    # -- tracker: per-frame base + per-object appearance + Hungarian n^3 --
    TRACK_BASE = {"strongsort": 8.0, "deepsort": 7.0, "sort": 2.0}
    TRACK_OBJ = {"strongsort": 2.5, "deepsort": 2.0, "sort": 0.15}
    TRACK_HUNG = 0.01            # x n^3 per frame
    # -- optimization operators --
    RVP_FRAME = 0.127            # §6.1: 0.1 % of video processing
    OTP_OBJ = 0.01               # §6.2: 0.06 % overhead at ~8 obj/frame
    GEOM3D_OBJ = 0.04            # §6.3: ~61.1/192 per frame at ~8 obj/frame
    # §6.4 sampling algorithm per processed frame. Calibrated from the
    # Fig. 4c runtime-ratio curve: ratio(skip) = (EFS*(skip+1) + T)/(T*(skip+1))
    # hits the paper's 28.27 % at skip 13 when EFS ~= 0.21 x the tracker
    # frame cost — also why §7.2.1 sees only a 0.8 % net gain from EFS.
    EFS_FRAME = 6.9
    # -- non-video stages --
    INTEGRATE_CONSTRUCT = 0.02   # Data Integrator per Geographic Construct
    INTEGRATE_FRAME = 0.012      # Data Integrator per video-camera joined frame
    # Query Engine per evaluated self-join combination. Calibrated so a
    # representative 2-object query at the baseline density (~8 objects
    # /frame → ~56 ordered pairs/frame) costs ~13.5 ms/frame = §7.2.1's
    # 9.5 % stage share; a 3-object query (Q8) then costs ~80 ms/frame,
    # which is why §7.1.1 finds Q8 "comparable" to EVA.
    QUERY_ROW = 0.24
    COMPOSE_FRAME = 0.85         # Output Composer per emitted frame
    # -- other systems' models --
    YOLOV3 = 35.0                # SkyQuery's detector
    SKYQUERY_3D_OBJ = 0.08       # SkyQuery homography ground projection
    VIVA_PROXY = 4.0             # VIVA's cheap proxy model (360x240)
    OTIF_SEG_PROXY = 6.0         # OTIF per-frame segmentation proxy CNN
    # EVA per-frame per-query evaluation. Calibrated from §7.1.1: even
    # with EVA's materialized-UDF cache warm (Q6+ run in series),
    # Spatialyze is still 2-7.3x faster on Q5-Q7 — so cached EVA's
    # frame-by-frame query evaluation must cost ~100 ms+ per frame.
    EVA_UDF_FRAME = 120.0
    EVA_UDF_OBJ = 2.0
    LOWRES_FACTOR = 0.15         # 360x240 vs 1600x900 model-cost scale


def tracker_cost(
    n_frames: float, n_objects: float, n_objects_cubed: float, variant: str = "strongsort"
) -> float:
    """Tracker cost (ms) over ``n_frames`` frames that hold ``n_objects``
    detections in all, where ``n_objects_cubed`` sums each frame's count
    cubed (the Hungarian term)."""
    return (
        n_frames * C.TRACK_BASE[variant]
        + n_objects * C.TRACK_OBJ[variant]
        + n_objects_cubed * C.TRACK_HUNG
    )


def tracker_frame_cost(n_objects: float, variant: str = "strongsort") -> float:
    """Tracker cost for one frame with ``n_objects`` detections (ms)."""
    return tracker_cost(1, n_objects, n_objects**3, variant)


@dataclass
class CostReport:
    """Accumulates modeled cost per operator.

    ``entries`` maps op name → [count, total_ms]. Operators may be
    charged multiple times (e.g. per query); entries accumulate.
    """

    entries: dict[str, list[float]] = field(default_factory=dict)

    def add(self, op: str, count: float, ms: float) -> "CostReport":
        e = self.entries.setdefault(op, [0.0, 0.0])
        e[0] += count
        e[1] += ms
        return self

    def merge(self, other: "CostReport") -> "CostReport":
        for op, (c, ms) in other.entries.items():
            self.add(op, c, ms)
        return self

    @property
    def total_ms(self) -> float:
        return sum(ms for _, ms in self.entries.values())

    def ms(self, op: str) -> float:
        return self.entries.get(op, [0.0, 0.0])[1]

    def count(self, op: str) -> float:
        return self.entries.get(op, [0.0, 0.0])[0]

    def breakdown(self) -> dict[str, float]:
        """Fraction of total per op (empty report → empty dict)."""
        t = self.total_ms
        return {op: ms / t for op, (_, ms) in self.entries.items()} if t else {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rows = ", ".join(f"{op}={ms:.1f}ms" for op, (_, ms) in sorted(self.entries.items()))
        return f"CostReport(total={self.total_ms:.1f}ms, {rows})"
