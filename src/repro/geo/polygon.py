"""2D polygon primitives for Geographic Constructs (§4.1.2) and the
Road Visibility Pruner (§6.1).

No shapely in the container, so everything is implemented here:

* ``convex_hull`` — Andrew's monotone chain (the paper cites Sklansky's
  convex-hull step for the projected view pyramid);
* ``point_in_polygon`` — ray casting, vectorized over points (boundary
  counts as inside, which is what `contains` needs for objects driving
  exactly on a lane edge);
* ``convex_intersects`` — separating-axis theorem for two convex
  polygons (view hull x road polygon overlap test);
* ``polygon_bbox`` — the constructs' bbox columns, which the Road
  Visibility Pruner's bbox index pre-filters on before exact tests.

Polygons are (k,2) float arrays or nested lists; vertex order may be CW
or CCW; the polygon is implicitly closed.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "convex_hull",
    "point_in_polygon",
    "points_in_polygon",
    "convex_intersects",
    "polygon_bbox",
    "rect_polygon",
    "ray_exit_distance",
    "as_poly_array",
]


def as_poly_array(poly) -> np.ndarray:
    """Coerce any nested sequence (incl. Arrow's object-dtype array of
    arrays) to a (k, 2) float64 vertex array."""
    if isinstance(poly, np.ndarray) and poly.dtype != object and poly.ndim == 2:
        return poly.astype(np.float64, copy=False)
    return np.array([[float(v[0]), float(v[1])] for v in poly], dtype=np.float64)


def _as_poly(poly) -> np.ndarray:
    p = as_poly_array(poly)
    if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 3:
        raise ValueError(f"polygon must be (k>=3, 2), got {p.shape}")
    return p


def rect_polygon(xmin: float, ymin: float, xmax: float, ymax: float) -> np.ndarray:
    """Axis-aligned rectangle as a 4-vertex CCW polygon."""
    return np.array(
        [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]], dtype=np.float64
    )


def polygon_bbox(poly) -> tuple[float, float, float, float]:
    p = _as_poly(poly)
    return float(p[:, 0].min()), float(p[:, 1].min()), float(p[:, 0].max()), float(p[:, 1].max())


def convex_hull(points) -> np.ndarray:
    """Convex hull of (n,2) points via Andrew's monotone chain, CCW order.

    Degenerate inputs (collinear, <3 distinct points) return the distinct
    points in sorted order — callers treat a <3-vertex "hull" as an
    empty viewable area.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    # np.unique sorts lexicographically already.
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = np.array(lower[:-1] + upper[:-1])
    return hull


def points_in_polygon(xs, ys, poly) -> np.ndarray:
    """Vectorized ray-casting point-in-polygon test; boundary is inside.

    ``xs``/``ys``: (n,) arrays; ``poly``: (k,2). Returns (n,) bool.
    """
    p = _as_poly(poly)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    x1, y1 = p[:, 0], p[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    inside = np.zeros(xs.shape, dtype=bool)
    on_edge = np.zeros(xs.shape, dtype=bool)
    for i in range(len(p)):
        ax, ay, bx, by = x1[i], y1[i], x2[i], y2[i]
        # Boundary test: point on segment [a,b].
        cross = (bx - ax) * (ys - ay) - (by - ay) * (xs - ax)
        within = (
            (np.abs(cross) < 1e-9)
            & (xs >= min(ax, bx) - 1e-9)
            & (xs <= max(ax, bx) + 1e-9)
            & (ys >= min(ay, by) - 1e-9)
            & (ys <= max(ay, by) + 1e-9)
        )
        on_edge |= within
        # Ray-cast toward +x. (Horizontal edges never satisfy the first
        # clause; the guarded divide only silences the spurious warning.)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            crosses = ((ay > ys) != (by > ys)) & (
                xs < (bx - ax) * (ys - ay) / (by - ay + np.where(by == ay, 1e-300, 0.0)) + ax
            )
        inside ^= crosses
    return inside | on_edge


def point_in_polygon(x: float, y: float, poly) -> bool:
    """Scalar convenience wrapper around :func:`points_in_polygon`."""
    return bool(points_in_polygon(np.array([x]), np.array([y]), poly)[0])


def ray_exit_distance(point, direction_deg: float, poly) -> float:
    """Distance from ``point`` (inside ``poly``) to the polygon boundary
    along heading ``direction_deg`` — §6.4.2's exitsLane geometry: the
    car's motion tuple intersected with its lane polygon.

    Returns ``inf`` if the ray never crosses an edge in the forward
    direction (point outside, or parallel to every edge).
    """
    p = _as_poly(poly)
    px, py = float(point[0]), float(point[1])
    h = np.deg2rad(direction_deg)
    dx, dy = np.cos(h), np.sin(h)
    a = p
    b = np.roll(p, -1, axis=0)
    ex, ey = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    # Solve point + t*(dx,dy) = a + s*e for each edge; keep t>0, s in [0,1].
    denom = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = ((a[:, 0] - px) * ey - (a[:, 1] - py) * ex) / denom
        s = ((a[:, 0] - px) * dy - (a[:, 1] - py) * dx) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (s >= -1e-9) & (s <= 1 + 1e-9)
    return float(t[valid].min()) if valid.any() else float("inf")


def _project(poly: np.ndarray, axis: np.ndarray) -> tuple[float, float]:
    d = poly @ axis
    return float(d.min()), float(d.max())


def convex_intersects(a, b) -> bool:
    """Separating-axis theorem overlap test for two convex polygons.

    Touching boundaries count as intersecting (a road polygon tangent to
    the view hull is "visible"). Either input with <3 vertices is treated
    as empty (no intersection).
    """
    pa, pb = as_poly_array(a), as_poly_array(b)
    if len(pa) < 3 or len(pb) < 3:
        return False
    for poly in (pa, pb):
        edges = np.roll(poly, -1, axis=0) - poly
        for ex, ey in edges:
            axis = np.array([-ey, ex])
            n = np.hypot(axis[0], axis[1])
            if n == 0:
                continue
            axis = axis / n
            amin, amax = _project(pa, axis)
            bmin, bmax = _project(pb, axis)
            if amax < bmin - 1e-12 or bmax < amin - 1e-12:
                return False
    return True
