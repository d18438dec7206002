"""Computational geometry for the convex-hull ADM formalisation.

The paper turns every ADM cluster into a convex hull (quickhull, Barber
et al. [17]) and every hull into half-plane constraints: a point is
inside the hull iff it is left of every counter-clockwise edge (Eqs. 9
and 10).  This package supplies the hull construction and the queries
the attack scheduler is built on — membership, and the vertical-slice
"stay range" used by ``maxStay``/``minStay``.
"""

from repro.geometry.convexhull import ConvexHull, cluster_hulls, quickhull
from repro.geometry.halfplane import (
    StayRangeRows,
    StayRangeTable,
    left_of_line_segment,
    point_in_hull,
    points_in_hulls,
    stay_range,
    stay_range_rows,
    stay_range_table,
    union_stay_ranges,
)

__all__ = [
    "ConvexHull",
    "StayRangeRows",
    "StayRangeTable",
    "cluster_hulls",
    "left_of_line_segment",
    "point_in_hull",
    "points_in_hulls",
    "quickhull",
    "stay_range",
    "stay_range_rows",
    "stay_range_table",
    "union_stay_ranges",
]
