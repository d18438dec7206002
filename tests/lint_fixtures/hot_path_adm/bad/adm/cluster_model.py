"""ADM fixture fitting one (occupant, zone) group at a time outside the
reference: a visits_to_points/kmeans pair per group in fit."""

from repro.adm.kmeans import kmeans, kmeans_groups
from repro.dataset.features import extract_visits, group_visit_points, visits_to_points


class ClusterADM:
    def fit(self, trace, n_zones):
        visits = extract_visits(trace)
        for occupant in range(trace.n_occupants):
            for zone in range(n_zones):
                points = visits_to_points(visits, occupant, zone)
                self._groups[(occupant, zone)] = kmeans(points, k=2)
        return self

    def _fit_reference(self, trace, n_zones):
        points, sizes = group_visit_points(trace, n_zones)
        return kmeans_groups(points, sizes, sizes.clip(max=2))
