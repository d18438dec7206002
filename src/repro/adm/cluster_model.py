"""The clustering-based ADM with convex-hull membership (Section IV-B).

:class:`ClusterADM` learns, for every (occupant, zone) pair, the set of
benign (arrival-time, stay-duration) regions: it clusters the training
visits with DBSCAN or k-means and wraps each cluster in a convex hull.
A visit is *benign* iff its point lies in some hull (``withinCluster``,
Eq. 9); the hull geometry also answers the scheduler's queries —
``maxStay``/``minStay`` (the longest/shortest stay the ADM tolerates for
a given arrival) and the full list of admissible stay intervals.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.adm.dbscan import DBSCAN_NOISE, dbscan
from repro.adm.kmeans import kmeans, kmeans_groups
from repro.dataset.features import (
    Visit,
    extract_visits,
    group_visit_points,
    visits_to_points,
)
from repro.errors import ClusteringError
from repro.geometry import (
    ConvexHull,
    StayRangeTable,
    cluster_hulls,
    point_in_hull,
    points_in_hulls,
    quickhull,
    stay_range_table,
    union_stay_ranges,
)
from repro.home.state import HomeTrace
from repro.units import MINUTES_PER_DAY


class ClusterBackend(enum.Enum):
    """Which clustering algorithm backs the ADM."""

    DBSCAN = "dbscan"
    KMEANS = "kmeans"


@dataclass(frozen=True)
class AdmParams:
    """Hyperparameters of the ADM.

    Attributes:
        backend: DBSCAN or k-means.
        eps: DBSCAN neighbourhood radius in minutes.
        min_pts: DBSCAN core-point threshold (the paper tunes this).
        k: k-means cluster count per (occupant, zone).
        seed: k-means++ seed.
        tolerance: Geometric slack (minutes) for hull membership; 0 is
            the paper's strict test.
    """

    backend: ClusterBackend = ClusterBackend.DBSCAN
    eps: float = 40.0
    min_pts: int = 5
    k: int = 6
    seed: int = 0
    tolerance: float = 1e-9


@dataclass
class _GroupModel:
    """Fitted clusters for one (occupant, zone) pair."""

    points: np.ndarray
    labels: np.ndarray
    hulls: list[ConvexHull] = field(default_factory=list)


class ClusterADM:
    """Clustering-based anomaly detection over occupant visits.

    Usage::

        adm = ClusterADM(AdmParams(backend=ClusterBackend.DBSCAN))
        adm.fit(training_trace, n_zones=5)
        adm.is_benign_visit(occupant, zone, arrival, stay)
        adm.max_stay(occupant, zone, arrival)
    """

    def __init__(self, params: AdmParams | None = None) -> None:
        self.params = params or AdmParams()
        self._groups: dict[tuple[int, int], _GroupModel] = {}
        self._n_zones: int | None = None
        self._n_occupants: int | None = None
        self._stay_tables: dict[tuple[int, int], StayRangeTable] = {}

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, trace: HomeTrace, n_zones: int) -> "ClusterADM":
        """Learn hulls from a benign training trace.

        One array program over the home's (occupant, zone) groups: one
        visit pass yields every group's points
        (:func:`group_visit_points`), :func:`kmeans_groups` labels all
        k-means groups together (DBSCAN labels group by group), and one
        sort builds every cluster's hull (:func:`cluster_hulls`).  The
        points, labels and hulls equal :meth:`_fit_reference`'s bit for
        bit.
        """
        points, sizes = group_visit_points(trace, n_zones)
        bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
        if self.params.backend is ClusterBackend.DBSCAN:
            labels = np.empty(len(points), dtype=np.int64)
            for start, end in zip(bounds[:-1], bounds[1:]):
                if end > start:
                    labels[start:end] = dbscan(
                        points[start:end],
                        eps=self.params.eps,
                        min_pts=self.params.min_pts,
                    )
        else:
            filled = sizes[sizes > 0]
            labels = kmeans_groups(
                points,
                filled,
                np.minimum(self.params.k, filled),
                seed=self.params.seed,
            )
        groups = np.repeat(np.arange(len(sizes)), sizes)
        hull_groups, hulls = cluster_hulls(points, groups, labels)
        hull_bounds = np.searchsorted(hull_groups, np.arange(len(sizes) + 1)).tolist()
        self._n_zones = n_zones
        self._n_occupants = trace.n_occupants
        self._stay_tables = {}
        self._groups = {
            (g // n_zones, g % n_zones): _GroupModel(
                points=points[bounds[g] : bounds[g + 1]],
                labels=labels[bounds[g] : bounds[g + 1]],
                hulls=hulls[hull_bounds[g] : hull_bounds[g + 1]],
            )
            for g in range(len(sizes))
        }
        return self

    def _fit_reference(self, trace: HomeTrace, n_zones: int) -> "ClusterADM":
        """:meth:`fit` as a per-group loop: the equivalence oracle.

        Extracts the visits, then clusters each (occupant, zone) group
        with :func:`dbscan` or :func:`kmeans` and hulls each cluster
        with :func:`quickhull`, one group at a time.
        """
        visits = extract_visits(trace)
        self._n_zones = n_zones
        self._n_occupants = trace.n_occupants
        self._groups = {}
        self._stay_tables = {}
        for occupant in range(trace.n_occupants):
            for zone in range(n_zones):
                points = visits_to_points(visits, occupant, zone)
                if len(points) == 0:
                    labels = np.zeros(0, dtype=np.int64)
                elif self.params.backend is ClusterBackend.DBSCAN:
                    labels = dbscan(
                        points, eps=self.params.eps, min_pts=self.params.min_pts
                    )
                else:
                    k = min(self.params.k, len(points))
                    labels, _ = kmeans(points, k=k, seed=self.params.seed)
                clusters = sorted(set(int(c) for c in labels) - {DBSCAN_NOISE})
                self._groups[(occupant, zone)] = _GroupModel(
                    points=points,
                    labels=labels,
                    hulls=[quickhull(points[labels == c]) for c in clusters],
                )
        return self

    def _require_fitted(self) -> None:
        if self._n_zones is None:
            raise ClusteringError("ADM used before fit()")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n_zones(self) -> int:
        self._require_fitted()
        return int(self._n_zones)  # type: ignore[arg-type]

    @property
    def n_occupants(self) -> int:
        self._require_fitted()
        return int(self._n_occupants)  # type: ignore[arg-type]

    def hulls(self, occupant: int, zone: int) -> list[ConvexHull]:
        """Benign-region hulls for an (occupant, zone) pair."""
        self._require_fitted()
        group = self._groups.get((occupant, zone))
        return list(group.hulls) if group else []

    def group_points(self, occupant: int, zone: int) -> np.ndarray:
        """Training points for an (occupant, zone) pair (for plots)."""
        self._require_fitted()
        group = self._groups.get((occupant, zone))
        return group.points.copy() if group is not None else np.zeros((0, 2))

    def group_labels(self, occupant: int, zone: int) -> np.ndarray:
        self._require_fitted()
        group = self._groups.get((occupant, zone))
        return group.labels.copy() if group is not None else np.zeros(0, dtype=np.int64)

    def is_benign_visit(
        self, occupant: int, zone: int, arrival: float, stay: float
    ) -> bool:
        """``withinCluster(t1, t2, C_{z,o})`` — Eq. 9 of the paper."""
        return any(
            point_in_hull(arrival, stay, hull, tolerance=self.params.tolerance)
            for hull in self.hulls(occupant, zone)
        )

    def stay_ranges(
        self, occupant: int, zone: int, arrival: float
    ) -> list[tuple[float, float]]:
        """Admissible stay intervals for a given arrival time."""
        return union_stay_ranges(self.hulls(occupant, zone), arrival)

    def max_stay(self, occupant: int, zone: int, arrival: float) -> float | None:
        """``maxStay``: longest stay the ADM tolerates, or None if any
        stay at this arrival would alarm."""
        ranges = self.stay_ranges(occupant, zone, arrival)
        return ranges[-1][1] if ranges else None

    def min_stay(self, occupant: int, zone: int, arrival: float) -> float | None:
        """``minStay``: shortest tolerated stay, or None."""
        ranges = self.stay_ranges(occupant, zone, arrival)
        return ranges[0][0] if ranges else None

    # ------------------------------------------------------------------
    # Batched queries (the hot-path tier)
    # ------------------------------------------------------------------

    def stay_table(self, occupant: int, zone: int) -> StayRangeTable:
        """Admissible stay intervals for *every* minute-of-day arrival.

        Row ``a`` of the returned table equals
        ``self.stay_ranges(occupant, zone, float(a))`` bit for bit, for
        all 1440 arrivals, and is cached until the next :meth:`fit`.
        :func:`stay_range_table` slices the hulls only at the arrivals
        inside some hull's x-range; every other row is empty.  The
        attack scheduler builds no such table: its stealth oracles read
        the rows of all their (occupant, zone) groups from one
        :func:`~repro.geometry.stay_range_rows` pass per schedule batch.
        """
        self._require_fitted()
        key = (occupant, zone)
        table = self._stay_tables.get(key)
        if table is None:
            table = stay_range_table(
                self.hulls(occupant, zone), np.arange(MINUTES_PER_DAY, dtype=float)
            )
            self._stay_tables[key] = table
        return table

    def benign_mask(
        self, occupant: int, zone: int, points: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`is_benign_visit` over ``[N, 2]`` (arrival, stay)
        points for one (occupant, zone) pair; returns ``[N]`` bools."""
        self._require_fitted()
        points = np.asarray(points, dtype=float)
        hulls = self.hulls(occupant, zone)
        if not hulls:
            return np.zeros(len(points), dtype=bool)
        membership = points_in_hulls(
            points, hulls, tolerance=self.params.tolerance
        )
        return membership.any(axis=1)

    # ------------------------------------------------------------------
    # Trace-level detection
    # ------------------------------------------------------------------

    def flag_visits(self, trace: HomeTrace) -> list[tuple[Visit, bool]]:
        """Classify every visit in a trace; True means flagged anomalous.

        Visits are grouped by (occupant, zone) and classified through
        the batched containment kernel (:func:`points_in_hulls`); the
        verdicts are identical to calling :meth:`is_benign_visit` per
        visit, which the equivalence property tests assert.
        """
        self._require_fitted()
        visits = extract_visits(trace)
        groups: dict[tuple[int, int], list[int]] = {}
        for index, visit in enumerate(visits):
            groups.setdefault((visit.occupant_id, visit.zone_id), []).append(index)
        anomalous = np.zeros(len(visits), dtype=bool)
        for (occupant, zone), indices in groups.items():
            points = np.array(
                [visits[i].point for i in indices], dtype=float
            ).reshape(len(indices), 2)
            benign = self.benign_mask(occupant, zone, points)
            anomalous[indices] = ~benign
        return [(visit, bool(anomalous[i])) for i, visit in enumerate(visits)]

    def is_benign_trace(self, trace: HomeTrace) -> bool:
        """``consistent(S^OT)`` — Eq. 8: no visit outside every hull."""
        return not any(anomalous for _, anomalous in self.flag_visits(trace))

    def anomaly_rate(self, trace: HomeTrace) -> float:
        """Fraction of visits flagged anomalous."""
        flags = self.flag_visits(trace)
        if not flags:
            return 0.0
        return sum(anomalous for _, anomalous in flags) / len(flags)
