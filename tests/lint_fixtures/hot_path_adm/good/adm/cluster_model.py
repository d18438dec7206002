"""ADM fixture whose fit is one array program over its groups; the
per-group calls live in the _fit_reference oracle alone."""

from repro.adm.kmeans import kmeans, kmeans_groups
from repro.dataset.features import extract_visits, group_visit_points, visits_to_points
from repro.geometry import cluster_hulls, quickhull


class ClusterADM:
    def fit(self, trace, n_zones):
        points, sizes = group_visit_points(trace, n_zones)
        labels = kmeans_groups(points, sizes, sizes.clip(max=2))
        return cluster_hulls(points, sizes.repeat(sizes), labels)

    def _fit_reference(self, trace, n_zones):
        visits = extract_visits(trace)
        for occupant in range(trace.n_occupants):
            for zone in range(n_zones):
                points = visits_to_points(visits, occupant, zone)
                labels, _ = kmeans(points, k=2)
                self._groups[(occupant, zone)] = quickhull(points[labels == 0])
        return self
