"""Half-plane membership and vertical-slice queries over convex hulls.

These are the geometric primitives behind the paper's ADM constraints:

* ``left_of_line_segment`` is Eq. 10 — the cross-product sign test.
* ``point_in_hull`` is Eq. 9's ``withinCluster`` for a single hull — a
  point is inside iff it is left of every counter-clockwise edge.
* ``stay_range`` supports ``maxStay``/``minStay`` (Section IV-C): for a
  fixed arrival time ``t1`` (the x coordinate) it returns the interval of
  stay durations ``t2`` (the y coordinate) admitted by the hull, i.e. the
  intersection of the vertical line ``x = t1`` with the hull.

Two execution tiers share these semantics:

* The scalar functions above are the *reference* tier — one point or one
  arrival per call.  They stay importable forever: the equivalence
  property tests and the Fig. 11 exhaustive-engine study use them as the
  oracle, and hot paths are forbidden (by a CI grep gate) from calling
  them per element.
* ``points_in_hulls`` and ``stay_range_table`` are the *batched* tier —
  edge-matrix array programs over ``[N]`` query points/arrivals at once,
  guaranteed bit-identical to looping the scalar tier (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.convexhull import ConvexHull

_EPS = 1e-9

# How far outside a hull's vertex x-range an arrival may lie and still
# go through the edge-matrix pass.  Any value above the slice epsilon is
# exact; this one is a thousand times above it, so rounding near the
# bound can never drop an arrival the slice tests would admit.
_CANDIDATE_MARGIN = 1e-6


def left_of_line_segment(
    x: float, y: float, start: np.ndarray, end: np.ndarray, tolerance: float = _EPS
) -> bool:
    """Whether point ``(x, y)`` lies left of (or on) the segment start->end.

    This is Eq. 10 of the paper with an inclusive boundary.  The
    tolerance is a *distance* (in the feature units, i.e. minutes): the
    signed cross product is normalised by the edge length so a point up
    to ``tolerance`` outside the edge still passes.
    """
    cross = (end[0] - start[0]) * (y - start[1]) - (end[1] - start[1]) * (x - start[0])
    length = float(np.hypot(end[0] - start[0], end[1] - start[1]))
    if length <= _EPS:
        return True  # zero-length edge constrains nothing
    return cross / length >= -tolerance


def point_in_hull(
    x: float, y: float, hull: ConvexHull, tolerance: float = _EPS
) -> bool:
    """Whether ``(x, y)`` lies inside (or on the boundary of) ``hull``."""
    if hull.n_vertices == 1:
        vertex = hull.vertices[0]
        return abs(x - vertex[0]) <= tolerance and abs(y - vertex[1]) <= tolerance
    if hull.n_vertices == 2:
        return _on_segment(x, y, hull.vertices[0], hull.vertices[1], tolerance)
    return all(
        left_of_line_segment(x, y, start, end, tolerance)
        for start, end in hull.edges()
    )


def _on_segment(
    x: float, y: float, start: np.ndarray, end: np.ndarray, tolerance: float
) -> bool:
    """Whether ``(x, y)`` lies on the closed segment start-end."""
    cross = (end[0] - start[0]) * (y - start[1]) - (end[1] - start[1]) * (x - start[0])
    if abs(cross) > tolerance * max(
        1.0, abs(end[0] - start[0]) + abs(end[1] - start[1])
    ):
        return False
    within_x = min(start[0], end[0]) - tolerance <= x <= max(start[0], end[0]) + tolerance
    within_y = min(start[1], end[1]) - tolerance <= y <= max(start[1], end[1]) + tolerance
    return within_x and within_y


def stay_range(hull: ConvexHull, x: float) -> tuple[float, float] | None:
    """Interval of y values where the vertical line ``x`` crosses the hull.

    Returns ``None`` when the line misses the hull entirely.  For a
    point hull the interval collapses to that point's y; for a segment
    hull it is the interpolated y (again a single value) when ``x`` is
    within the segment's x projection.
    """
    if hull.n_vertices == 1:
        vertex = hull.vertices[0]
        if abs(x - vertex[0]) <= _EPS:
            return float(vertex[1]), float(vertex[1])
        return None
    if hull.n_vertices == 2:
        return _segment_slice(hull.vertices[0], hull.vertices[1], x)
    low, high = hull.x_range()
    if x < low - _EPS or x > high + _EPS:
        return None
    ys: list[float] = []
    for start, end in hull.edges():
        y = _edge_crossing(start, end, x)
        if y is not None:
            ys.append(y)
    if not ys:
        return None
    return min(ys), max(ys)


def _segment_slice(
    start: np.ndarray, end: np.ndarray, x: float
) -> tuple[float, float] | None:
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = float(end[0]), float(end[1])
    if abs(x1 - x0) <= _EPS:
        # Vertical segment: the slice is the whole y extent.
        if abs(x - x0) <= _EPS:
            return min(y0, y1), max(y0, y1)
        return None
    if x < min(x0, x1) - _EPS or x > max(x0, x1) + _EPS:
        return None
    t = (x - x0) / (x1 - x0)
    y = y0 + t * (y1 - y0)
    return y, y


def _edge_crossing(start: np.ndarray, end: np.ndarray, x: float) -> float | None:
    """Y value where edge start->end crosses the vertical line at ``x``."""
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = float(end[0]), float(end[1])
    if abs(x1 - x0) <= _EPS:
        if abs(x - x0) <= _EPS:
            # Vertical edge lying on the query line: both endpoints count.
            return max(y0, y1)
        return None
    if x < min(x0, x1) - _EPS or x > max(x0, x1) + _EPS:
        return None
    t = (x - x0) / (x1 - x0)
    return y0 + t * (y1 - y0)


def union_stay_ranges(
    hulls: list[ConvexHull], x: float
) -> list[tuple[float, float]]:
    """All (merged) stay intervals over a set of hulls at arrival ``x``.

    The ADM admits a stay duration if *any* cluster hull contains the
    (arrival, stay) point, so the feasible set at a fixed arrival time is
    the union of per-hull intervals.  Overlapping or touching intervals
    are merged; the result is sorted by lower bound.
    """
    intervals = [r for r in (stay_range(hull, x) for hull in hulls) if r is not None]
    if not intervals:
        return []
    intervals.sort()
    merged = [intervals[0]]
    for low, high in intervals[1:]:
        last_low, last_high = merged[-1]
        if low <= last_high + _EPS:
            merged[-1] = (last_low, max(last_high, high))
        else:
            merged.append((low, high))
    return merged


# ----------------------------------------------------------------------
# Batched tier: edge-matrix kernels over many query points at once.
#
# Every comparison and arithmetic expression below mirrors its scalar
# counterpart operation for operation, so the batched results are
# bit-identical to looping the scalar functions (the property tests in
# tests/test_vectorized_kernels.py enforce exact equality).
# ----------------------------------------------------------------------


def points_in_hulls(
    points: np.ndarray, hulls: list[ConvexHull], tolerance: float = _EPS
) -> np.ndarray:
    """Batched hull membership: which points lie in which hulls.

    Args:
        points: Query points, float array of shape ``[N, 2]``.
        hulls: Hulls to test against (point/segment/polygon all handled).
        tolerance: Same distance slack as :func:`point_in_hull`.

    Returns:
        Boolean array of shape ``[N, H]``; entry ``(i, j)`` equals
        ``point_in_hull(points[i, 0], points[i, 1], hulls[j], tolerance)``
        bit for bit.  ``membership.any(axis=1)`` is Eq. 9's
        ``withinCluster`` over a cluster set.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be [N, 2], got {points.shape}")
    xs, ys = points[:, 0], points[:, 1]
    out = np.zeros((len(points), len(hulls)), dtype=bool)
    for j, hull in enumerate(hulls):
        out[:, j] = _points_in_hull(xs, ys, hull, tolerance)
    return out


def _points_in_hull(
    xs: np.ndarray, ys: np.ndarray, hull: ConvexHull, tolerance: float
) -> np.ndarray:
    """Vectorized :func:`point_in_hull` for one hull, ``[N]`` bools."""
    if hull.n_vertices == 1:
        vertex = hull.vertices[0]
        return (np.abs(xs - vertex[0]) <= tolerance) & (
            np.abs(ys - vertex[1]) <= tolerance
        )
    if hull.n_vertices == 2:
        return _on_segment_batch(
            xs, ys, hull.vertices[0], hull.vertices[1], tolerance
        )
    inside = np.ones(len(xs), dtype=bool)
    for start, end in hull.edges():
        cross = (end[0] - start[0]) * (ys - start[1]) - (end[1] - start[1]) * (
            xs - start[0]
        )
        length = float(np.hypot(end[0] - start[0], end[1] - start[1]))
        if length <= _EPS:
            continue  # zero-length edge constrains nothing
        inside &= cross / length >= -tolerance
    return inside


def _on_segment_batch(
    xs: np.ndarray,
    ys: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    tolerance: float,
) -> np.ndarray:
    """Vectorized :func:`_on_segment`."""
    cross = (end[0] - start[0]) * (ys - start[1]) - (end[1] - start[1]) * (
        xs - start[0]
    )
    bound = tolerance * max(1.0, abs(end[0] - start[0]) + abs(end[1] - start[1]))
    on_line = np.abs(cross) <= bound
    within_x = (min(start[0], end[0]) - tolerance <= xs) & (
        xs <= max(start[0], end[0]) + tolerance
    )
    within_y = (min(start[1], end[1]) - tolerance <= ys) & (
        ys <= max(start[1], end[1]) + tolerance
    )
    return on_line & within_x & within_y


@dataclass(frozen=True)
class StayRangeTable:
    """Merged stay intervals for a batch of arrival times.

    Row ``i`` holds the same merged interval list that
    ``union_stay_ranges(hulls, arrivals[i])`` returns: ``counts[i]``
    intervals, with bounds in ``lows[i, :counts[i]]`` /
    ``highs[i, :counts[i]]`` sorted by lower bound.  Padding entries are
    ``+inf`` lows and ``-inf`` highs so that interval-membership tests
    (``low <= s <= high``) are vacuously false on padding.

    Attributes:
        arrivals: The queried arrival times, ``[N]``.
        lows: Interval lower bounds, ``[N, K]`` (``K`` = max intervals).
        highs: Interval upper bounds, ``[N, K]``.
        counts: Number of valid intervals per arrival, ``[N]``.
    """

    arrivals: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray

    @property
    def n_arrivals(self) -> int:
        return len(self.arrivals)

    @property
    def max_intervals(self) -> int:
        return self.lows.shape[1]

    def intervals(self, index: int) -> list[tuple[float, float]]:
        """The merged interval list for arrival ``arrivals[index]``."""
        count = int(self.counts[index])
        return [
            (float(self.lows[index, k]), float(self.highs[index, k]))
            for k in range(count)
        ]


def _hull_stay_slices(
    hull: ConvexHull, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`stay_range` for one hull over arrivals ``xs``.

    Returns ``(low, high, valid)`` arrays of shape ``[N]``; entries with
    ``valid[i] == False`` correspond to scalar ``stay_range`` returning
    ``None`` and carry ``+inf``/``-inf`` sentinels.
    """
    n = len(xs)
    low = np.full(n, np.inf)
    high = np.full(n, -np.inf)
    if hull.n_vertices == 1:
        vertex = hull.vertices[0]
        valid = np.abs(xs - vertex[0]) <= _EPS
        vy = float(vertex[1])
        low[valid] = vy
        high[valid] = vy
        return low, high, valid
    if hull.n_vertices == 2:
        return _segment_slices(hull.vertices[0], hull.vertices[1], xs)
    x_low, x_high = hull.x_range()
    in_range = ~((xs < x_low - _EPS) | (xs > x_high + _EPS))
    got = np.zeros(n, dtype=bool)
    for start, end in hull.edges():
        y, crossed = _edge_crossings(start, end, xs)
        update = in_range & crossed
        low = np.where(update & (y < low), y, low)
        high = np.where(update & (y > high), y, high)
        got |= update
    # First-crossing bookkeeping: min/max over an empty set stays at the
    # sentinels, matching the scalar "no ys -> None" branch.
    return low, high, got


def _segment_slices(
    start: np.ndarray, end: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`_segment_slice`."""
    n = len(xs)
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = float(end[0]), float(end[1])
    low = np.full(n, np.inf)
    high = np.full(n, -np.inf)
    if abs(x1 - x0) <= _EPS:
        valid = np.abs(xs - x0) <= _EPS
        low[valid] = min(y0, y1)
        high[valid] = max(y0, y1)
        return low, high, valid
    valid = ~((xs < min(x0, x1) - _EPS) | (xs > max(x0, x1) + _EPS))
    t = (xs - x0) / (x1 - x0)
    y = y0 + t * (y1 - y0)
    low = np.where(valid, y, low)
    high = np.where(valid, y, high)
    return low, high, valid


def _edge_crossings(
    start: np.ndarray, end: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`_edge_crossing`: ``(y, crossed)`` arrays."""
    x0, y0 = float(start[0]), float(start[1])
    x1, y1 = float(end[0]), float(end[1])
    if abs(x1 - x0) <= _EPS:
        crossed = np.abs(xs - x0) <= _EPS
        y = np.full(len(xs), max(y0, y1))
        return y, crossed
    crossed = ~((xs < min(x0, x1) - _EPS) | (xs > max(x0, x1) + _EPS))
    t = (xs - x0) / (x1 - x0)
    return y0 + t * (y1 - y0), crossed


def stay_range_table(
    hulls: list[ConvexHull], arrivals: np.ndarray
) -> StayRangeTable:
    """Batched :func:`union_stay_ranges` over many arrival times.

    Computes the merged admissible stay intervals at every arrival in
    ``arrivals`` — the table the attack scheduler's
    ``maxStay``/``minStay``/feasibility arrays are derived from.  Row
    ``i`` of the result reproduces ``union_stay_ranges(hulls,
    arrivals[i])`` bit for bit.

    Rows are independent, so the edge-matrix pass
    (:func:`_merged_stay_rows`) runs only on the *candidate* arrivals:
    those inside some hull's vertex x-range widened by
    ``_CANDIDATE_MARGIN``.  Every other arrival misses every hull by
    more than the slice epsilon, so its row is empty and stays padding.
    ADM hulls fitted on a few training days are mostly points and short
    segments, so a full day of arrivals usually has only a handful of
    candidates.

    Args:
        hulls: The cluster hulls of one (occupant, zone) pair.
        arrivals: Arrival times (x coordinates), ``[N]``.

    Returns:
        The packed :class:`StayRangeTable`.

    Raises:
        ValueError: An arrival is NaN.  The scalar tier slices a hull at
            NaN into NaN bounds, which merge in no defined order, so no
            table could reproduce it.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if np.isnan(arrivals).any():
        raise ValueError("stay_range_table: an arrival time is NaN")
    n = len(arrivals)
    rows = _candidate_rows(hulls, arrivals)
    if len(rows) == 0:
        return StayRangeTable(
            arrivals=arrivals,
            lows=np.full((n, 1), np.inf),
            highs=np.full((n, 1), -np.inf),
            counts=np.zeros(n, dtype=np.int64),
        )
    row_low, row_high, row_counts = _merged_stay_rows(hulls, arrivals[rows])
    width = max(1, int(row_counts.max()))
    lows = np.full((n, width), np.inf)
    highs = np.full((n, width), -np.inf)
    counts = np.zeros(n, dtype=np.int64)
    lows[rows] = row_low[:, :width]
    highs[rows] = row_high[:, :width]
    counts[rows] = row_counts
    return StayRangeTable(arrivals=arrivals, lows=lows, highs=highs, counts=counts)


def _candidate_rows(hulls: list[ConvexHull], arrivals: np.ndarray) -> np.ndarray:
    """Indices of the arrivals some hull's slice test could admit."""
    inside = np.zeros(len(arrivals), dtype=bool)
    for hull in hulls:
        low, high = hull.x_range()
        inside |= ~(
            (arrivals < low - _CANDIDATE_MARGIN) | (arrivals > high + _CANDIDATE_MARGIN)
        )
    return np.flatnonzero(inside)


def _merged_stay_rows(
    hulls: list[ConvexHull], arrivals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edge-matrix pass: merged intervals at every arrival given.

    Returns ``(lows, highs, counts)`` with ``[N, H]`` bound arrays
    (``H = len(hulls)``, padded with ``+inf``/``-inf``) and ``[N]``
    counts.  ``hulls`` must not be empty.
    """
    n = len(arrivals)
    n_hulls = len(hulls)
    per_low = np.full((n, n_hulls), np.inf)
    per_high = np.full((n, n_hulls), -np.inf)
    per_valid = np.zeros((n, n_hulls), dtype=bool)
    for j, hull in enumerate(hulls):
        per_low[:, j], per_high[:, j], per_valid[:, j] = _hull_stay_slices(
            hull, arrivals
        )
    # Sort each row's intervals by (low, high), exactly like the scalar
    # ``intervals.sort()`` on (low, high) tuples; invalid slots carry
    # +inf lows, so they sort to the end of every row.
    sort_high = np.where(per_valid, per_high, np.inf)
    order = np.lexsort((sort_high, per_low))
    rows = np.arange(n)[:, None]
    lo = per_low[rows, order]
    hi = per_high[rows, order]
    valid = per_valid[rows, order]

    out_low = np.full((n, n_hulls), np.inf)
    out_high = np.full((n, n_hulls), -np.inf)
    counts = np.zeros(n, dtype=np.int64)
    cur_low = lo[:, 0].copy()
    cur_high = hi[:, 0].copy()
    open_ = valid[:, 0].copy()
    for j in range(1, n_hulls):
        vj = valid[:, j]
        # Merge rule, verbatim from union_stay_ranges: touching means
        # low <= last_high + eps.
        touch = open_ & vj & (lo[:, j] <= cur_high + _EPS)
        cur_high = np.where(touch, np.maximum(cur_high, hi[:, j]), cur_high)
        emit = open_ & vj & ~touch
        if emit.any():
            where = np.flatnonzero(emit)
            slot = counts[where]
            out_low[where, slot] = cur_low[where]
            out_high[where, slot] = cur_high[where]
            counts[where] += 1
            cur_low = np.where(emit, lo[:, j], cur_low)
            cur_high = np.where(emit, hi[:, j], cur_high)
        open_ = open_ | vj
    if open_.any():
        where = np.flatnonzero(open_)
        slot = counts[where]
        out_low[where, slot] = cur_low[where]
        out_high[where, slot] = cur_high[where]
        counts[where] += 1
    return out_low, out_high, counts
