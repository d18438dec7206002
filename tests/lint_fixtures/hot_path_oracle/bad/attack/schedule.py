"""Oracle fixture building per-(occupant, zone) stay tables one group
at a time instead of reading the batch's multi-group pass."""

import numpy as np

from repro.geometry import stay_range_table


class _StealthOracle:
    def __init__(self, adm, occupant_id, n_zones):
        self.tables = [adm.stay_table(occupant_id, zone) for zone in range(n_zones)]


def _zone_table(adm, occupant_id, zone):
    return stay_range_table(adm.hulls(occupant_id, zone), np.arange(1440.0))
