"""Visit extraction: from occupancy streams to (arrival, stay) points.

The ADM operates on *visits*: maximal runs of consecutive slots an
occupant spends in one zone.  Eqs. 5-7 of the paper define arrival
(``E^A``), exit (``E^E``), and stay (``E^S``) events from the RFID
stream; ``extract_visits`` computes the same thing directly from the
per-slot zone assignment.  Arrival times are minutes-of-day, so visits
are split at midnight (a day boundary ends one visit and starts the
next), matching the ADM's time-of-day feature space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.home.state import HomeTrace
from repro.units import MINUTES_PER_DAY


@dataclass(frozen=True)
class Visit:
    """A maximal stay of one occupant in one zone.

    Attributes:
        occupant_id: Who.
        zone_id: Where.
        day: Which day of the trace the visit starts in.
        arrival: Minute-of-day of arrival (the ``t1`` feature).
        stay: Duration in minutes (the ``t2`` feature).
    """

    occupant_id: int
    zone_id: int
    day: int
    arrival: int
    stay: int

    @property
    def point(self) -> tuple[float, float]:
        """The (arrival, stay) feature point the ADM clusters."""
        return float(self.arrival), float(self.stay)


def extract_visits(
    trace: HomeTrace, occupant_id: int | None = None
) -> list[Visit]:
    """All visits in a trace, optionally for a single occupant.

    Visits are split at day boundaries so arrival is always a
    minute-of-day; the ADM's feature space (Fig. 6 of the paper) has
    arrival on [0, 1440).
    """
    occupants = (
        range(trace.n_occupants) if occupant_id is None else [occupant_id]
    )
    visits: list[Visit] = []
    for occupant in occupants:
        zones = trace.occupant_zone[:, occupant]
        for day_start in range(0, trace.n_slots, MINUTES_PER_DAY):
            day_end = min(day_start + MINUTES_PER_DAY, trace.n_slots)
            day_zones = zones[day_start:day_end]
            boundaries = np.flatnonzero(np.diff(day_zones)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [len(day_zones)]))
            for start, end in zip(starts, ends):
                visits.append(
                    Visit(
                        occupant_id=occupant,
                        zone_id=int(day_zones[start]),
                        day=day_start // MINUTES_PER_DAY,
                        arrival=int(start),
                        stay=int(end - start),
                    )
                )
    return visits


def visits_to_points(
    visits: list[Visit], occupant_id: int, zone_id: int
) -> np.ndarray:
    """The (arrival, stay) points of one occupant in one zone, ``[n, 2]``."""
    selected = [
        visit.point
        for visit in visits
        if visit.occupant_id == occupant_id and visit.zone_id == zone_id
    ]
    if not selected:
        return np.zeros((0, 2), dtype=float)
    return np.array(selected, dtype=float)


def group_visit_points(
    trace: HomeTrace, n_zones: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every (occupant, zone) group's (arrival, stay) points, from one pass.

    Returns ``(points, sizes)``: group ``g = occupant * n_zones + zone``
    holds ``sizes[g]`` consecutive rows of ``points`` (``[P, 2]``), in
    group order, and those rows are
    ``visits_to_points(extract_visits(trace), occupant, zone)``.  One
    run-length pass over the occupant-major ``[O, T]`` zone matrix
    cuts the visits (a zone change, a midnight and an occupant's first
    slot each start one); visits to zone ids outside ``range(n_zones)``
    belong to no group.
    """
    n_slots, n_occupants = trace.occupant_zone.shape
    zones = trace.occupant_zone.T.ravel()
    cut = np.empty(zones.size, dtype=bool)
    cut[:1] = True
    np.not_equal(zones[1:], zones[:-1], out=cut[1:])
    day_starts = np.arange(0, n_slots, MINUTES_PER_DAY)
    cut[(np.arange(n_occupants)[:, None] * n_slots + day_starts).ravel()] = True
    starts = np.flatnonzero(cut)
    stays = np.diff(starts, append=zones.size)
    occupant, slot = np.divmod(starts, max(n_slots, 1))
    zone = zones[starts].astype(np.int64)
    grouped = (zone >= 0) & (zone < n_zones)
    key = (occupant * n_zones + zone)[grouped]
    order = np.argsort(key, kind="stable")
    points = np.empty((len(order), 2))
    points[:, 0] = (slot % MINUTES_PER_DAY)[grouped][order]
    points[:, 1] = stays[grouped][order]
    sizes = np.bincount(key, minlength=n_occupants * n_zones)
    return points, sizes


def visits_by_zone(
    visits: list[Visit], occupant_id: int, n_zones: int
) -> dict[int, np.ndarray]:
    """Per-zone (arrival, stay) point arrays for one occupant."""
    return {
        zone_id: visits_to_points(visits, occupant_id, zone_id)
        for zone_id in range(n_zones)
    }
