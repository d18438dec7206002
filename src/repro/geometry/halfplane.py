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
  arrival per call.  They stay importable forever: ``ClusterADM``'s
  scalar queries (``is_benign_visit``, ``stay_ranges``) and the
  equivalence property tests use them as the oracle, and the
  ``hot-path-scalar-calls`` lint rule keeps the schedule drivers from
  calling them per element.
* ``points_in_hulls``, ``stay_range_rows`` and ``stay_range_table`` are
  the *batched* tier — array programs over ``[N]`` query
  points/arrivals at once, guaranteed bit-identical to looping the
  scalar tier (property-tested).  ``stay_range_rows`` slices the hulls
  of many (occupant, zone) groups in one pass; ``stay_range_table`` is
  its one-group call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.convexhull import ConvexHull

_EPS = 1e-9

# How far outside a hull's vertex x-range an arrival may lie and still
# be sliced by that hull.  Any value above the slice epsilon is
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


@dataclass(frozen=True)
class StayRangeRows:
    """The non-empty rows of many stay tables at once.

    Row ``r`` holds the merged interval list that
    ``union_stay_ranges(hull_groups[group[r]], arrivals[arrival[r]])``
    returns: ``counts[r]`` (at least one) intervals, with bounds in
    ``lows[r, :counts[r]]`` / ``highs[r, :counts[r]]`` sorted by lower
    bound and padded with ``+inf`` / ``-inf``.  Rows are sorted by
    ``(group, arrival)``; a pair with no row admits no stay.

    Attributes:
        group: Hull-group index of each row, ``[R]``.
        arrival: Arrival index of each row, ``[R]``.
        lows: Interval lower bounds, ``[R, K]`` (``K`` = max intervals,
            at least one).
        highs: Interval upper bounds, ``[R, K]``.
        counts: Number of valid intervals per row, ``[R]``.
    """

    group: np.ndarray
    arrival: np.ndarray
    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class _PackedHulls:
    """Every hull of many groups in flat arrays: hull ``h`` of group
    ``group[h]`` has vertices ``xs/ys[start[h] : start[h] + size[h]]``
    and vertex x-range ``[x_low[h], x_high[h]]``."""

    group: np.ndarray
    size: np.ndarray
    start: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    x_low: np.ndarray
    x_high: np.ndarray

    @classmethod
    def of(cls, hull_groups: Sequence[Sequence[ConvexHull]]) -> "_PackedHulls":
        group = np.repeat(
            np.arange(len(hull_groups)),
            [len(hulls) for hulls in hull_groups],
        )
        vertices = [hull.vertices for hulls in hull_groups for hull in hulls]
        size = np.array([len(v) for v in vertices], dtype=np.int64)
        start = np.cumsum(size) - size
        flat = np.concatenate(vertices) if vertices else np.zeros((0, 2))
        xs, ys = flat[:, 0], flat[:, 1]
        if vertices:
            x_low = np.minimum.reduceat(xs, start)
            x_high = np.maximum.reduceat(xs, start)
        else:
            x_low = x_high = np.zeros(0)
        return cls(group, size, start, xs, ys, x_low, x_high)


def stay_range_rows(
    hull_groups: Sequence[Sequence[ConvexHull]], arrivals: np.ndarray
) -> StayRangeRows:
    """Batched :func:`union_stay_ranges` over many hull groups and arrivals.

    One pass for every group: the merged admissible stay intervals of
    each ``(group, arrival)`` pair, bit for bit what
    ``union_stay_ranges(hull_groups[g], arrivals[a])`` returns, as the
    rows that hold an interval.  The pass

    * pairs each hull with the arrivals inside its vertex x-range
      widened by ``_CANDIDATE_MARGIN`` (a sorted-arrival range, so the
      cost follows the pairs, not groups x arrivals).  Any other arrival
      misses the hull by more than the slice epsilon, so its slice is
      empty;
    * slices every hull at its paired arrivals (points, segments
      including vertical ones, polygon edges) in flat arrays; and
    * merges each ``(group, arrival)`` row's slices with the scalar
      tier's sort-and-merge over padded ``[rows, slices]`` arrays.

    ADM hulls fitted on a few training days are mostly points and short
    segments, so a day of arrivals has few pairs per hull, and one call
    over a whole schedule batch's groups replaces a call per group.

    Args:
        hull_groups: The cluster hulls of each group (one (occupant,
            zone) pair); a group may have none.
        arrivals: Arrival times (x coordinates), ``[N]``, shared by
            every group.

    Returns:
        The :class:`StayRangeRows` of every non-empty row.

    Raises:
        ValueError: An arrival is NaN.  The scalar tier slices a hull at
            NaN into NaN bounds, which merge in no defined order, so no
            row could reproduce it.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if np.isnan(arrivals).any():
        raise ValueError("stay range rows: an arrival time is NaN")
    hulls = _PackedHulls.of(hull_groups)
    # Each hull's candidates are one range of the sorted arrivals:
    # exactly those with low - margin <= arrival <= high + margin.
    order = np.argsort(arrivals, kind="stable")
    ordered = arrivals[order]
    first = np.searchsorted(ordered, hulls.x_low - _CANDIDATE_MARGIN, side="left")
    stop = np.searchsorted(ordered, hulls.x_high + _CANDIDATE_MARGIN, side="right")
    per_hull = stop - first
    pair_hull = np.repeat(np.arange(len(per_hull)), per_hull)
    offset = np.arange(len(pair_hull)) - np.repeat(
        np.cumsum(per_hull) - per_hull, per_hull
    )
    pair_arrival = order[first[pair_hull] + offset]
    pair_group = hulls.group[pair_hull]
    row_keys, row_pair, pair_row = np.unique(
        pair_group * len(arrivals) + pair_arrival,
        return_index=True,
        return_inverse=True,
    )
    lows, highs, counts = _merge_pairs(
        hulls, pair_hull, pair_row, arrivals[pair_arrival], len(row_keys)
    )
    kept = counts > 0
    width = max(1, int(counts.max(initial=0)))
    return StayRangeRows(
        group=pair_group[row_pair[kept]],
        arrival=pair_arrival[row_pair[kept]],
        lows=lows[kept, :width],
        highs=highs[kept, :width],
        counts=counts[kept],
    )


def stay_range_table(
    hulls: list[ConvexHull], arrivals: np.ndarray
) -> StayRangeTable:
    """Batched :func:`union_stay_ranges` over many arrival times.

    Computes the merged admissible stay intervals at every arrival in
    ``arrivals``.  Row ``i`` of the result reproduces
    ``union_stay_ranges(hulls, arrivals[i])`` bit for bit.  This is the
    one-group call of :func:`stay_range_rows`: its rows fill the table
    and every other row is padding.

    Args:
        hulls: The cluster hulls of one (occupant, zone) pair.
        arrivals: Arrival times (x coordinates), ``[N]``.

    Returns:
        The packed :class:`StayRangeTable`.

    Raises:
        ValueError: An arrival is NaN (see :func:`stay_range_rows`).
    """
    arrivals = np.asarray(arrivals, dtype=float)
    rows = stay_range_rows([hulls], arrivals)
    n = len(arrivals)
    width = rows.lows.shape[1]
    lows = np.full((n, width), np.inf)
    highs = np.full((n, width), -np.inf)
    counts = np.zeros(n, dtype=np.int64)
    lows[rows.arrival] = rows.lows
    highs[rows.arrival] = rows.highs
    counts[rows.arrival] = rows.counts
    return StayRangeTable(arrivals=arrivals, lows=lows, highs=highs, counts=counts)


def _merged_stay_rows(
    hulls: list[ConvexHull], arrivals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The slice-and-merge pass of one group at *every* arrival given.

    Pairs every hull with every arrival, with no candidate pruning, and
    returns ``(lows, highs, counts)``: ``[N, K]`` bound arrays (``K`` at
    least the largest count, padded with ``+inf``/``-inf``) and ``[N]``
    counts.  The equivalence tests hold :func:`stay_range_table` to it,
    which shows that pruning drops no interval.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    n_hulls, n = len(hulls), len(arrivals)
    pair_hull = np.tile(np.arange(n_hulls), n)
    pair_row = np.repeat(np.arange(n), n_hulls)
    return _merge_pairs(
        _PackedHulls.of([hulls]), pair_hull, pair_row, arrivals[pair_row], n
    )


def _merge_pairs(
    hulls: _PackedHulls,
    pair_hull: np.ndarray,
    pair_row: np.ndarray,
    xs: np.ndarray,
    n_rows: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice hull ``pair_hull[p]`` at ``xs[p]`` and merge each row's slices.

    Returns ``([n_rows, K] lows, [n_rows, K] highs, [n_rows] counts)``.
    Empty slices are dropped before the merge: the scalar tier skips
    them, and padded they would sort last and merge as no-ops.
    """
    low, high, valid = _slice_pairs(hulls, pair_hull, xs)
    pair_row = pair_row[valid]
    order = np.argsort(pair_row, kind="stable")
    pair_row = pair_row[order]
    per_row = np.bincount(pair_row, minlength=n_rows)
    width = max(1, int(per_row.max(initial=0)))
    column = np.arange(len(pair_row)) - np.repeat(
        np.cumsum(per_row) - per_row, per_row
    )
    per_low = np.full((n_rows, width), np.inf)
    per_high = np.full((n_rows, width), -np.inf)
    per_low[pair_row, column] = low[valid][order]
    per_high[pair_row, column] = high[valid][order]
    per_valid = np.arange(width)[None, :] < per_row[:, None]
    return _merge_sorted_rows(per_low, per_high, per_valid)


def _slice_pairs(
    hulls: _PackedHulls, pair_hull: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`stay_range` of hull ``pair_hull[p]`` at ``xs[p]``.

    Returns ``(low, high, valid)`` arrays of shape ``[P]``; entries with
    ``valid[p] == False`` correspond to scalar ``stay_range`` returning
    ``None`` and carry ``+inf``/``-inf`` sentinels.  Each hull kind runs
    its scalar expressions, operation for operation, over its pairs.
    """
    low = np.full(len(xs), np.inf)
    high = np.full(len(xs), -np.inf)
    size = hulls.size[pair_hull]
    first = hulls.start[pair_hull]

    point = np.flatnonzero(size == 1)
    hit = np.abs(xs[point] - hulls.xs[first[point]]) <= _EPS
    low[point[hit]] = high[point[hit]] = hulls.ys[first[point[hit]]]

    seg = np.flatnonzero(size == 2)
    x = xs[seg]
    x0, y0 = hulls.xs[first[seg]], hulls.ys[first[seg]]
    x1, y1 = hulls.xs[first[seg] + 1], hulls.ys[first[seg] + 1]
    vertical = np.abs(x1 - x0) <= _EPS
    # A vertical segment's slice is its whole y extent.
    on_line = vertical & (np.abs(x - x0) <= _EPS)
    across = ~vertical & ~(
        (x < np.minimum(x0, x1) - _EPS) | (x > np.maximum(x0, x1) + _EPS)
    )
    t = (x - x0) / np.where(vertical, 1.0, x1 - x0)
    y = y0 + t * (y1 - y0)
    low[seg] = np.where(on_line, np.minimum(y0, y1), np.where(across, y, np.inf))
    high[seg] = np.where(on_line, np.maximum(y0, y1), np.where(across, y, -np.inf))

    poly = np.flatnonzero(size >= 3)
    low[poly], high[poly] = _polygon_slices(hulls, pair_hull[poly], xs[poly])
    return low, high, low <= high


def _polygon_slices(
    hulls: _PackedHulls, pair_hull: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized polygon :func:`stay_range`: ``(low, high)`` per pair,
    ``(+inf, -inf)`` where no edge crosses.

    Edge ``k`` of every pair's polygon advances together; min/max keep
    the first extreme crossing in edge order, like the scalar
    ``min(ys)``/``max(ys)``.
    """
    low = np.full(len(x), np.inf)
    high = np.full(len(x), -np.inf)
    if len(x) == 0:
        return low, high
    size = hulls.size[pair_hull]
    first = hulls.start[pair_hull]
    in_range = ~(
        (x < hulls.x_low[pair_hull] - _EPS) | (x > hulls.x_high[pair_hull] + _EPS)
    )
    for k in range(int(size.max())):
        start = first + k % size
        end = first + (k + 1) % size
        x0, y0 = hulls.xs[start], hulls.ys[start]
        x1, y1 = hulls.xs[end], hulls.ys[end]
        vertical = np.abs(x1 - x0) <= _EPS
        # A vertical edge on the query line counts its upper endpoint.
        crossed = np.where(
            vertical,
            np.abs(x - x0) <= _EPS,
            ~((x < np.minimum(x0, x1) - _EPS) | (x > np.maximum(x0, x1) + _EPS)),
        )
        t = (x - x0) / np.where(vertical, 1.0, x1 - x0)
        y = np.where(vertical, np.maximum(y0, y1), y0 + t * (y1 - y0))
        update = (k < size) & in_range & crossed
        low = np.where(update & (y < low), y, low)
        high = np.where(update & (y > high), y, high)
    return low, high


def _merge_sorted_rows(
    per_low: np.ndarray, per_high: np.ndarray, per_valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort each row's slices and merge them, as :func:`union_stay_ranges`
    does one arrival's.

    Returns ``(lows, highs, counts)`` shaped like the inputs (bounds)
    and ``[N]`` (counts).
    """
    n, width = per_low.shape
    # Sort each row's intervals by (low, high), exactly like the scalar
    # ``intervals.sort()`` on (low, high) tuples; invalid slots carry
    # +inf lows, so they sort to the end of every row.
    sort_high = np.where(per_valid, per_high, np.inf)
    order = np.lexsort((sort_high, per_low))
    rows = np.arange(n)[:, None]
    lo = per_low[rows, order]
    hi = per_high[rows, order]
    valid = per_valid[rows, order]

    out_low = np.full((n, width), np.inf)
    out_high = np.full((n, width), -np.inf)
    counts = np.zeros(n, dtype=np.int64)
    cur_low = lo[:, 0].copy()
    cur_high = hi[:, 0].copy()
    open_ = valid[:, 0].copy()
    for j in range(1, width):
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
