"""Unit tests for repro.geo.polygon."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.polygon import (
    convex_hull,
    convex_intersects,
    point_in_polygon,
    points_in_polygon,
    polygon_bbox,
    rect_polygon,
)

UNIT = rect_polygon(0, 0, 1, 1)
TRI = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])


def test_rect_polygon_vertices():
    np.testing.assert_allclose(UNIT, [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_polygon_bbox():
    assert polygon_bbox(TRI) == (0.0, 0.0, 4.0, 4.0)


@pytest.mark.parametrize(
    "x,y,inside",
    [
        (0.5, 0.5, True),
        (0.0, 0.0, True),  # vertex counts as inside
        (0.5, 0.0, True),  # edge counts as inside
        (1.5, 0.5, False),
        (-0.1, 0.5, False),
        (0.5, 1.0001, False),
    ],
)
def test_point_in_unit_square(x, y, inside):
    assert point_in_polygon(x, y, UNIT) == inside


def test_point_in_triangle():
    assert point_in_polygon(1.0, 1.0, TRI)
    assert not point_in_polygon(3.0, 3.0, TRI)  # beyond hypotenuse
    assert point_in_polygon(2.0, 2.0, TRI)  # exactly on hypotenuse


def test_point_in_polygon_cw_order():
    cw = UNIT[::-1]
    assert point_in_polygon(0.5, 0.5, cw)
    assert not point_in_polygon(2.0, 0.5, cw)


def test_points_in_polygon_vectorized():
    xs = np.array([0.5, 2.0, 0.9, -1.0])
    ys = np.array([0.5, 2.0, 0.1, 0.5])
    np.testing.assert_array_equal(points_in_polygon(xs, ys, UNIT), [True, False, True, False])


def test_points_in_nonconvex_polygon():
    # U-shaped polygon: the notch (0.5, 0.8) is outside.
    u = np.array([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]], dtype=float)
    assert point_in_polygon(0.5, 2.0, u)
    assert not point_in_polygon(1.5, 2.0, u)  # inside the notch
    assert point_in_polygon(1.5, 0.5, u)


def test_polygon_validation():
    with pytest.raises(ValueError):
        point_in_polygon(0, 0, [[0, 0], [1, 1]])


def test_convex_hull_square_with_interior_points():
    pts = np.vstack([UNIT, [[0.5, 0.5], [0.2, 0.8]]])
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert set(map(tuple, hull)) == set(map(tuple, UNIT))


def test_convex_hull_is_ccw():
    hull = convex_hull(np.array([[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]], dtype=float))
    # Shoelace area positive => CCW.
    x, y = hull[:, 0], hull[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area > 0


def test_convex_hull_collinear_degenerate():
    hull = convex_hull(np.array([[0, 0], [1, 1], [2, 2]], dtype=float))
    assert len(hull) <= 2  # degenerate: treated as empty area by callers


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False)
        ),
        min_size=3,
        max_size=30,
    )
)
def test_convex_hull_contains_all_points(pts):
    pts = np.array(pts, dtype=float)
    hull = convex_hull(pts)
    if len(hull) < 3:
        return
    assert points_in_polygon(pts[:, 0], pts[:, 1], hull).all()


def test_convex_intersects_overlap():
    assert convex_intersects(UNIT, rect_polygon(0.5, 0.5, 2, 2))


def test_convex_intersects_disjoint():
    assert not convex_intersects(UNIT, rect_polygon(2, 2, 3, 3))


def test_convex_intersects_touching_edge():
    assert convex_intersects(UNIT, rect_polygon(1, 0, 2, 1))


def test_convex_intersects_containment():
    assert convex_intersects(rect_polygon(-5, -5, 5, 5), UNIT)
    assert convex_intersects(UNIT, rect_polygon(-5, -5, 5, 5))


def test_convex_intersects_rotated_diamond():
    diamond = np.array([[1.5, 0.5], [2.5, 1.5], [1.5, 2.5], [0.5, 1.5]])
    assert convex_intersects(UNIT, diamond)  # corner pokes into the square
    far = diamond + np.array([10.0, 0.0])
    assert not convex_intersects(UNIT, far)


def test_convex_intersects_diagonal_separation():
    # Axis-aligned bboxes overlap, but the diamond and square do not —
    # exactly the case the SAT test must get right after a bbox pre-filter.
    diamond = np.array([[3.0, 0.0], [6.0, 3.0], [3.0, 6.0], [0.0, 3.0]])
    square = rect_polygon(4.8, 4.8, 5.5, 5.5)
    assert not convex_intersects(diamond, square)


def test_convex_intersects_degenerate_empty():
    assert not convex_intersects(np.array([[0.0, 0.0], [1.0, 1.0]]), UNIT)
