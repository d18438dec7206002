"""ADM fixture whose trace classifier asks the scalar test per visit."""

from repro.dataset.features import extract_visits


class ClusterADM:
    def flag_visits(self, trace):
        return [
            (visit, not self.is_benign_visit(*visit.key()))
            for visit in extract_visits(trace)
        ]
