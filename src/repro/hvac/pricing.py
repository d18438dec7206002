"""Time-of-use energy pricing with battery arbitrage (Eq. 4).

The paper prices energy with a PG&E-style TOU plan: a peak window
(4-9 pm) at a high rate and off-peak otherwise, plus home battery
storage that charges off-peak and discharges first during the peak —
so the first ``battery_kwh`` of each day's peak consumption is billed
at the off-peak rate (the paper assumes the battery is always full at
peak start).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.units import MINUTES_PER_DAY


@dataclass(frozen=True)
class TouPricing:
    """A TOU tariff.

    Attributes:
        off_peak_rate: $/kWh outside the peak window (``PCOP``).
        peak_rate: $/kWh inside the peak window (``PCP``).
        peak_start_slot: First minute-of-day of the peak window.
        peak_end_slot: First minute-of-day after the peak window.
        battery_kwh: Storage discharged during the peak (``PBS``); that
            much peak energy per day is billed at the off-peak rate.
    """

    off_peak_rate: float = 0.34
    peak_rate: float = 0.51
    peak_start_slot: int = 16 * 60
    peak_end_slot: int = 21 * 60
    battery_kwh: float = 2.0

    def __post_init__(self) -> None:
        if self.off_peak_rate < 0 or self.peak_rate < 0:
            raise ConfigurationError("rates must be non-negative")
        if not 0 <= self.peak_start_slot < self.peak_end_slot <= MINUTES_PER_DAY:
            raise ConfigurationError(
                "peak window must satisfy 0 <= start < end <= 1440"
            )
        if self.battery_kwh < 0:
            raise ConfigurationError("battery capacity must be non-negative")

    def rate_token(self) -> tuple:
        """The marginal-rate identity of this tariff.

        Two tariffs with equal tokens produce identical
        :meth:`marginal_rates` for every slot, which is what the attack
        scheduler's shared reward-table cache keys on.  The battery does
        not participate: it affects billing (:meth:`cost`), never the
        marginal price signal.
        """
        return (
            self.off_peak_rate,
            self.peak_rate,
            self.peak_start_slot,
            self.peak_end_slot,
        )

    def is_peak(self, slot: int) -> bool:
        """Whether a minute-of-day slot falls in the peak window."""
        minute = slot % MINUTES_PER_DAY
        return self.peak_start_slot <= minute < self.peak_end_slot

    def marginal_rate(self, slot: int) -> float:
        """The worst-case $/kWh at a slot, ignoring the battery.

        The attack scheduler uses this as the price signal: during peak
        hours an extra kWh costs the peak rate once the battery is
        drained, which a cost-maximising attacker ensures.
        """
        return self.peak_rate if self.is_peak(slot) else self.off_peak_rate

    def is_peak_array(self, slots: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_peak` over absolute slots, ``[N]`` bools."""
        minutes = np.asarray(slots) % MINUTES_PER_DAY
        return (self.peak_start_slot <= minutes) & (minutes < self.peak_end_slot)

    def marginal_rates(self, slots: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`marginal_rate` over absolute slots, ``[N]``.

        Returns the same float64 values as calling :meth:`marginal_rate`
        per slot; the attack scheduler's reward tables are built from
        this in one shot instead of 1440 scalar calls.
        """
        return np.where(self.is_peak_array(slots), self.peak_rate, self.off_peak_rate)

    def cost(self, energy_kwh: np.ndarray, start_slot: int = 0) -> float:
        """Total bill for per-slot consumption (Eq. 4).

        Args:
            energy_kwh: Per-slot consumption; slot ``i`` corresponds to
                absolute slot ``start_slot + i``.
            start_slot: Absolute slot of the first entry (day position
                matters because the battery resets daily).

        Returns:
            Total dollars (a numpy float for non-empty input), with each
            day's first ``battery_kwh`` of peak consumption billed
            off-peak.  Bit-identical to :meth:`cost_reference`: the
            loop's terms — one per off-peak slot, two per peak slot —
            are laid out in its order and folded left to right by one
            ``np.add.accumulate`` seeded with ``0.0``.  An array with a
            negative or non-finite entry is billed by the loop itself.
        """
        energy_kwh = np.asarray(energy_kwh, dtype=float)
        if len(energy_kwh) == 0:
            return 0.0
        if not (np.isfinite(energy_kwh).all() and (energy_kwh >= 0).all()):
            return self.cost_reference(energy_kwh, start_slot)
        slots = start_slot + np.arange(len(energy_kwh))
        peak = self.is_peak_array(slots)
        covered = self._battery_covered(energy_kwh, peak, slots // MINUTES_PER_DAY)
        terms = np.empty((len(energy_kwh), 2))
        terms[:, 0] = np.where(peak, covered, energy_kwh) * self.off_peak_rate
        terms[:, 1] = (energy_kwh - covered) * self.peak_rate
        used = np.stack([np.ones_like(peak), peak], axis=1)
        return np.add.accumulate(np.concatenate(([0.0], terms[used])))[-1]

    def _battery_covered(
        self, energy_kwh: np.ndarray, peak: np.ndarray, days: np.ndarray
    ) -> np.ndarray:
        """Per-slot kWh the battery covers (read at peak slots only).

        Each day's peak slots are contiguous.  Over them the battery
        level before each slot is one sequential ``np.subtract.accumulate``
        chain from ``battery_kwh``, which is the loop's level until the
        first slot that needs more than is left: that slot gets the
        rest, and every later one of the day gets nothing.  Entries must
        be finite and non-negative.
        """
        covered = np.zeros(len(energy_kwh))
        peak_slots = np.flatnonzero(peak)
        new_day = np.flatnonzero(np.diff(days[peak_slots])) + 1
        for day_slots in np.split(peak_slots, new_day):
            kwh = energy_kwh[day_slots]
            left = np.subtract.accumulate(np.concatenate(([self.battery_kwh], kwh)))
            share = kwh.copy()
            short = np.flatnonzero(kwh > left[:-1])
            if len(short):
                first = short[0]
                share[first] = left[first]
                share[first + 1 :] = 0.0
            covered[day_slots] = share
        return covered

    def cost_reference(self, energy_kwh: np.ndarray, start_slot: int = 0) -> float:
        """The slot-by-slot billing loop :meth:`cost` is bit-identical to.

        The peak mask and day index are built as arrays once; the
        running sum is a scalar loop, so the additions happen in slot
        order.
        """
        energy_kwh = np.asarray(energy_kwh, dtype=float)
        if len(energy_kwh) == 0:
            return 0.0
        slots = start_slot + np.arange(len(energy_kwh))
        peak = self.is_peak_array(slots).tolist()
        days = (slots // MINUTES_PER_DAY).tolist()
        off_peak_rate, peak_rate = self.off_peak_rate, self.peak_rate
        total = 0.0
        battery_left = self.battery_kwh
        current_day = start_slot // MINUTES_PER_DAY
        for kwh, in_peak, day in zip(energy_kwh.tolist(), peak, days):
            if day != current_day:
                current_day = day
                battery_left = self.battery_kwh
            if not in_peak:
                total += kwh * off_peak_rate
                continue
            covered = min(kwh, battery_left)
            battery_left -= covered
            total += covered * off_peak_rate
            total += (kwh - covered) * peak_rate
        return np.float64(total)
