"""ADM fixture whose trace classifier runs the batched containment
kernel once per (occupant, zone) group."""

from repro.dataset.features import extract_visits


class ClusterADM:
    def flag_visits(self, trace):
        visits = extract_visits(trace)
        flags = {}
        for key, points in self._group_points(visits).items():
            flags[key] = ~self.benign_mask(*key, points)
        return self._in_visit_order(visits, flags)
