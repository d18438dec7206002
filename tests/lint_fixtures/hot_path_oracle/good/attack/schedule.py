"""Oracle fixture reading its rows from one multi-group pass."""

import numpy as np

from repro.geometry import stay_range_rows


class _OracleBatch:
    def __init__(self, pairs):
        self.rows = stay_range_rows(
            [
                adm.hulls(occupant_id, zone)
                for adm, occupant_id, n_zones in pairs
                for zone in range(n_zones)
            ],
            np.arange(1440.0),
        )
