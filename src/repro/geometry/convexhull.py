"""Quickhull in two dimensions.

The paper extracts ADM constraints from cluster convex hulls computed
with the quickhull algorithm [17].  This is a from-scratch
implementation producing counter-clockwise vertex order, which is the
orientation the half-plane membership test (Eq. 10) assumes.

Degenerate inputs are handled explicitly because small ADM clusters do
occur: one point yields a point-hull, collinear points yield a
segment-hull.  Both still answer membership and slice queries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError

_EPS = 1e-9


def _cross(origin: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Z-component of ``(a - origin) × (b - origin)``.

    Positive means ``b`` is left of the directed line ``origin -> a``.
    """
    return float(
        (a[0] - origin[0]) * (b[1] - origin[1])
        - (a[1] - origin[1]) * (b[0] - origin[0])
    )


@dataclass(frozen=True)
class ConvexHull:
    """A 2-D convex hull with counter-clockwise vertices.

    Attributes:
        vertices: float array of shape ``[n, 2]``.  ``n == 1`` is a point
            hull, ``n == 2`` a segment hull, ``n >= 3`` a polygon in CCW
            order with no repeated first/last vertex.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise GeometryError(
                f"hull vertices must be [n, 2], got {self.vertices.shape}"
            )
        if len(self.vertices) == 0:
            raise GeometryError("a hull needs at least one vertex")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_degenerate(self) -> bool:
        """True for point or segment hulls."""
        return self.n_vertices < 3

    def edges(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Directed CCW edges ``(start, end)``; empty for a point hull."""
        n = self.n_vertices
        if n == 1:
            return []
        if n == 2:
            return [(self.vertices[0], self.vertices[1])]
        return [
            (self.vertices[i], self.vertices[(i + 1) % n]) for i in range(n)
        ]

    def area(self) -> float:
        """Polygon area via the shoelace formula (0 for degenerate hulls)."""
        if self.is_degenerate:
            return 0.0
        x = self.vertices[:, 0]
        y = self.vertices[:, 1]
        return 0.5 * abs(
            float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        )

    def x_range(self) -> tuple[float, float]:
        xs = self.vertices[:, 0]
        return float(xs.min()), float(xs.max())

    def y_range(self) -> tuple[float, float]:
        ys = self.vertices[:, 1]
        return float(ys.min()), float(ys.max())

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


def _dedupe(points: np.ndarray) -> np.ndarray:
    """Unique rows of an ``[n, 2]`` array, sorted by x, then y.

    Returns the rows ``np.unique(points, axis=0)`` returns, in the same
    order: a stable lexsort, then a compare of each row with its sorted
    predecessor.  NaN never equals itself, so rows holding a NaN are all
    kept, as ``np.unique`` keeps them.  On tiny ADM clusters this is
    several times faster than ``np.unique``'s structured-dtype sort.
    """
    ordered = points[np.lexsort((points[:, 1], points[:, 0]))]
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    keep[1:] = (ordered[1:, 0] != ordered[:-1, 0]) | (
        ordered[1:, 1] != ordered[:-1, 1]
    )
    return ordered[keep]


def _farthest_from_line(
    points: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[int, float]:
    """Index and signed distance of the point farthest left of start->end."""
    direction = end - start
    # Cross products of direction with (point - start); positive = left.
    offsets = points - start
    distances = direction[0] * offsets[:, 1] - direction[1] * offsets[:, 0]
    index = int(np.argmax(distances))
    return index, float(distances[index])


def _hull_side(points: np.ndarray, start: np.ndarray, end: np.ndarray) -> list[np.ndarray]:
    """Quickhull recursion: hull vertices strictly left of start->end.

    Returns the chain of vertices between ``start`` and ``end``
    (exclusive of both endpoints), ordered from ``start`` to ``end``.

    Leftness thresholds scale with the anchor segment's length: the raw
    cross product is an *area*, so testing it against an absolute
    epsilon misclassifies points that are far from a microscopically
    short segment (area = distance x tiny length).  Scaling by the
    segment length turns every test into "perpendicular distance >
    epsilon", which is length-invariant.
    """
    if len(points) == 0:
        return []
    index, distance = _farthest_from_line(points, start, end)
    if distance <= _EPS * _segment_scale(start, end):
        return []
    apex = points[index]
    offsets_start = points - start
    direction_sa = apex - start
    left_of_sa = (
        direction_sa[0] * offsets_start[:, 1] - direction_sa[1] * offsets_start[:, 0]
    ) > _EPS * _segment_scale(start, apex)
    offsets_apex = points - apex
    direction_ae = end - apex
    left_of_ae = (
        direction_ae[0] * offsets_apex[:, 1] - direction_ae[1] * offsets_apex[:, 0]
    ) > _EPS * _segment_scale(apex, end)
    before = _hull_side(points[left_of_sa], start, apex)
    after = _hull_side(points[left_of_ae], apex, end)
    return before + [apex] + after


def _segment_scale(start: np.ndarray, end: np.ndarray) -> float:
    """Length of start->end: the cross-product epsilon's scale factor."""
    return float(np.hypot(end[0] - start[0], end[1] - start[1]))


def _segment_extremes(unique: np.ndarray) -> np.ndarray:
    """The two endpoints of a (near-)collinear point set.

    Sorts along the axis with the larger spread (the other axis breaks
    ties), so the endpoints always bracket the segment's full extent.
    For well-spread-in-x inputs this picks exactly the quickhull
    anchors it replaces.
    """
    spread = unique.max(axis=0) - unique.min(axis=0)
    if spread[1] > spread[0]:
        order = np.lexsort((unique[:, 0], unique[:, 1]))  # y primary
    else:
        order = np.lexsort((unique[:, 1], unique[:, 0]))  # x primary
    return np.array([unique[order[0]], unique[order[-1]]], dtype=float)


def quickhull(points: np.ndarray) -> ConvexHull:
    """Convex hull of 2-D points in counter-clockwise order.

    Args:
        points: float array of shape ``[n, 2]`` with ``n >= 1``.

    Returns:
        The hull; degenerate hulls (point, segment) for degenerate input.

    Raises:
        GeometryError: On empty or misshapen input.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise GeometryError(f"points must be [n, 2], got {points.shape}")
    if len(points) == 0:
        raise GeometryError("cannot build a hull from zero points")
    return _hull_of_unique(_dedupe(points))


def _hull_of_unique(unique: np.ndarray) -> ConvexHull:
    """:func:`quickhull` of distinct points in :func:`_dedupe` order.

    One point is a point hull, two are the segment
    :func:`_segment_extremes` picks, and three or more recurse.
    """
    if len(unique) == 1:
        return ConvexHull(vertices=unique.copy())
    if len(unique) == 2:
        return ConvexHull(vertices=_segment_extremes(unique))
    # Extreme points in x (ties broken by y) anchor the two recursions.
    order = np.lexsort((unique[:, 1], unique[:, 0]))
    leftmost = unique[order[0]]
    rightmost = unique[order[-1]]
    upper = _hull_side(unique, leftmost, rightmost)
    lower = _hull_side(unique, rightmost, leftmost)
    chain = [leftmost] + upper + [rightmost] + lower
    vertices = np.array(chain, dtype=float)
    if len(vertices) == 2 or _collinear(vertices):
        # Segment hull: keep the two extreme endpoints only — extremes
        # along the axis of largest spread, not the x-lexsort anchors.
        # For a (near-)vertical point set the x extremes can sit at the
        # same end of the segment, which would silently drop its far
        # end.
        return ConvexHull(vertices=_segment_extremes(unique))
    if _signed_area(vertices) < 0:
        vertices = vertices[::-1].copy()
    return ConvexHull(vertices=vertices)


def cluster_hulls(
    points: np.ndarray, groups: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, list[ConvexHull]]:
    """The :func:`quickhull` of every (group, label) cluster, from one sort.

    Row ``i`` of ``points`` (``[P, 2]``) belongs to cluster
    ``(groups[i], labels[i])``; a row with a negative label belongs to
    none.  Returns ``(hull_groups, hulls)``: one hull per cluster, in
    (group, label) order, each equal to ``quickhull`` of the cluster's
    rows.  One lexsort of (group, label, x, y) puts every cluster's
    distinct points in :func:`_dedupe` order, so each cluster's hull is
    :func:`_hull_of_unique` of its slice.
    """
    keep = labels >= 0
    group, label = groups[keep], labels[keep]
    xs, ys = points[keep, 0], points[keep, 1]
    order = np.lexsort((ys, xs, label, group))
    group, label, xs, ys = group[order], label[order], xs[order], ys[order]
    new_cluster = np.ones(len(order), dtype=bool)
    new_cluster[1:] = (group[1:] != group[:-1]) | (label[1:] != label[:-1])
    distinct = new_cluster.copy()
    distinct[1:] |= (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    unique = np.column_stack((xs[distinct], ys[distinct]))
    starts = np.flatnonzero(new_cluster[distinct])
    ends = np.append(starts[1:], len(unique))
    hulls = [
        _hull_of_unique(unique[start:end])
        for start, end in zip(starts.tolist(), ends.tolist())
    ]
    return group[distinct][starts], hulls


def _signed_area(vertices: np.ndarray) -> float:
    """Shoelace signed area; positive for counter-clockwise order."""
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _collinear(vertices: np.ndarray) -> bool:
    """True if every vertex lies on the line through the first two.

    The cross product scales with the baseline's length (it is an
    area), so the epsilon does too — an absolute threshold would call
    a unit-tall triangle "collinear" whenever its baseline is tiny.
    """
    if len(vertices) < 3:
        return True
    origin = vertices[0]
    direction = vertices[1] - origin
    offsets = vertices[2:] - origin
    cross = direction[0] * offsets[:, 1] - direction[1] * offsets[:, 0]
    return bool(np.all(np.abs(cross) <= _EPS * _segment_scale(origin, vertices[1])))
