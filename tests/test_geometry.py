"""Unit and property tests for the geometry substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    ConvexHull,
    left_of_line_segment,
    point_in_hull,
    quickhull,
    stay_range,
    union_stay_ranges,
)
from repro.geometry.convexhull import _dedupe


def test_square_hull_is_ccw():
    points = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]], dtype=float)
    hull = quickhull(points)
    assert hull.n_vertices == 4
    assert hull.area() == pytest.approx(1.0)
    # CCW means every original point is left of every edge.
    for x, y in points:
        assert point_in_hull(x, y, hull)


def test_interior_point_excluded_from_vertices():
    points = np.array([[0, 0], [4, 0], [0, 4], [1, 1]], dtype=float)
    hull = quickhull(points)
    assert hull.n_vertices == 3
    assert not any(np.allclose(v, [1, 1]) for v in hull.vertices)


def test_point_hull():
    hull = quickhull(np.array([[2.0, 3.0], [2.0, 3.0]]))
    assert hull.n_vertices == 1
    assert point_in_hull(2.0, 3.0, hull)
    assert not point_in_hull(2.1, 3.0, hull)
    assert stay_range(hull, 2.0) == (3.0, 3.0)
    assert stay_range(hull, 5.0) is None


def test_segment_hull():
    hull = quickhull(np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]]))
    assert hull.n_vertices == 2
    assert point_in_hull(1.0, 1.0, hull)
    assert not point_in_hull(1.0, 1.5, hull)
    low, high = stay_range(hull, 1.0)
    assert low == pytest.approx(1.0)
    assert high == pytest.approx(1.0)


def test_empty_input_raises():
    with pytest.raises(GeometryError):
        quickhull(np.zeros((0, 2)))


def test_bad_shape_raises():
    with pytest.raises(GeometryError):
        quickhull(np.zeros((3, 3)))


def test_left_of_line_segment_sign():
    start = np.array([0.0, 0.0])
    end = np.array([1.0, 0.0])
    assert left_of_line_segment(0.5, 0.5, start, end)
    assert not left_of_line_segment(0.5, -0.5, start, end)
    assert left_of_line_segment(0.5, 0.0, start, end)  # boundary inclusive


def test_stay_range_on_triangle():
    hull = quickhull(np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 4.0]]))
    low, high = stay_range(hull, 2.0)
    assert low == pytest.approx(0.0)
    assert high == pytest.approx(4.0)
    low, high = stay_range(hull, 1.0)
    assert low == pytest.approx(0.0)
    assert high == pytest.approx(2.0)
    assert stay_range(hull, 5.0) is None


def test_union_stay_ranges_merges_overlaps():
    h1 = quickhull(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]))
    h2 = quickhull(np.array([[0.0, 1.5], [2.0, 1.5], [2.0, 3.0], [0.0, 3.0]]))
    h3 = quickhull(np.array([[0.0, 5.0], [2.0, 5.0], [2.0, 6.0], [0.0, 6.0]]))
    merged = union_stay_ranges([h1, h2, h3], 1.0)
    assert len(merged) == 2
    assert merged[0] == (0.0, 3.0)
    assert merged[1] == (5.0, 6.0)


def test_union_stay_ranges_empty_when_missed():
    hull = quickhull(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]]))
    assert union_stay_ranges([hull], 9.0) == []


@pytest.mark.parametrize("seed", range(6))
def test_dedupe_returns_np_unique_rows_in_order(seed):
    """Integer and float point sets with repeated rows, from one point
    to past the size where ``np.unique`` stops insertion-sorting, and a
    set with NaN rows (never equal, so all kept)."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        n = int(rng.integers(1, 60))
        if rng.random() < 0.5:
            points = rng.integers(0, 6, size=(n, 2)).astype(float)
        else:
            pool = rng.uniform(0, 1440, size=(max(1, n // 3), 2))
            points = pool[rng.integers(0, len(pool), size=n)]
            points[:, 1][rng.random(n) < 0.3] = pool[0, 1]
        if seed == 5:
            points[rng.random(n) < 0.2, int(rng.integers(0, 2))] = np.nan
        got = _dedupe(points)
        want = np.unique(points, axis=0)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@st.composite
def _point_clouds(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    coords = st.floats(min_value=-100, max_value=100, allow_nan=False)
    return np.array(
        [[draw(coords), draw(coords)] for _ in range(n)], dtype=float
    )


@settings(max_examples=60, deadline=None)
@given(_point_clouds())
def test_hull_contains_all_inputs(points):
    hull = quickhull(points)
    for x, y in points:
        assert point_in_hull(x, y, hull, tolerance=1e-6)


@settings(max_examples=60, deadline=None)
@given(_point_clouds())
def test_hull_is_idempotent(points):
    hull = quickhull(points)
    rehull = quickhull(hull.vertices)
    assert rehull.area() == pytest.approx(hull.area(), abs=1e-6)
    assert rehull.n_vertices == hull.n_vertices


@settings(max_examples=60, deadline=None)
@given(_point_clouds())
def test_hull_vertices_are_subset_of_input(points):
    hull = quickhull(points)
    for vertex in hull.vertices:
        assert any(np.allclose(vertex, p) for p in points)


@settings(max_examples=40, deadline=None)
@given(_point_clouds())
def test_centroid_inside_hull(points):
    hull = quickhull(points)
    if hull.is_degenerate:
        return
    cx, cy = hull.centroid()
    assert point_in_hull(cx, cy, hull, tolerance=1e-6)
