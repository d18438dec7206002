"""Reimplementation of the BIoTA baseline framework (Haque et al. 2021).

BIoTA is the state of the art the paper measures itself against
(Table I): a *rule-based* defense — zone capacity, occupant-count
conservation, IAQ measurement consistency — and a *greedy* FDI attack
that teleports every accessible occupant to the most rewarding zone
with no regard for temporal behaviour.  Against the rules alone this is
optimal; against a clustering ADM it produces wildly implausible visits,
which is why Table V reports 60-100% of BIoTA vectors being flagged.

The module also generates the labelled attack datasets used to score
the ADMs in Table IV and Fig. 5.

:func:`biota_greedy_attack` is an array program.  The reward table is
day-invariant (the tariff repeats daily), so it is built once per
occupant and ranked once per minute of day with a stable sort, the tie
order of the per-slot ``sorted``.  Occupants are processed in order,
because an occupant's capacity check counts the zones the earlier ones
were spoofed into; for one occupant every slot is independent, so all
eligible slots take their first feasible zone by rank in one pass.  The
chosen rewards are added as a sequential fold in (occupant, slot)
order, the reference's summation order.  :func:`biota_greedy_attack_reference`
keeps the per-slot loop as the oracle the array program matches bit
for bit (``tests/test_vectorized_kernels.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.model import AttackerCapability
from repro.attack.schedule import AttackSchedule, ScheduleConfig, _day_rewards
from repro.errors import AttackError
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.hvac.controller import ControllerConfig
from repro.hvac.pricing import TouPricing
from repro.units import MINUTES_PER_DAY


@dataclass(frozen=True)
class BiotaRules:
    """BIoTA's verification rules.

    Attributes:
        zone_capacity: Maximum headcount per conditioned zone.
        co2_bounds_ppm: Plausible CO2 measurement range.
        temperature_bounds_f: Plausible temperature range.
    """

    zone_capacity: int = 4
    co2_bounds_ppm: tuple[float, float] = (350.0, 2500.0)
    temperature_bounds_f: tuple[float, float] = (50.0, 95.0)

    def occupancy_consistent(
        self, spoofed_zone: np.ndarray, actual_zone: np.ndarray
    ) -> bool:
        """Capacity and count-conservation rules.

        The entrance sensor fixes the number of people inside the home,
        so a consistent spoof keeps the per-slot at-home headcount equal
        to reality and never exceeds zone capacity.
        """
        if spoofed_zone.shape != actual_zone.shape:
            return False
        if spoofed_zone.size == 0:
            return True  # no slot to violate a rule in
        at_home_spoofed = (spoofed_zone != 0).sum(axis=1)
        at_home_actual = (actual_zone != 0).sum(axis=1)
        if not np.array_equal(at_home_spoofed, at_home_actual):
            return False
        n_zones = int(max(spoofed_zone.max(), actual_zone.max())) + 1
        for zone in range(1, n_zones):
            if ((spoofed_zone == zone).sum(axis=1) > self.zone_capacity).any():
                return False
        return True

    def iaq_consistent(self, co2_ppm: np.ndarray, temperature_f: np.ndarray) -> bool:
        """Range rules on the IAQ channels."""
        co2_ok = bool(
            (co2_ppm >= self.co2_bounds_ppm[0]).all()
            and (co2_ppm <= self.co2_bounds_ppm[1]).all()
        )
        temp_ok = bool(
            (temperature_f >= self.temperature_bounds_f[0]).all()
            and (temperature_f <= self.temperature_bounds_f[1]).all()
        )
        return co2_ok and temp_ok


def biota_greedy_attack(
    home: SmartHome,
    capability: AttackerCapability,
    pricing: TouPricing,
    actual_trace: HomeTrace,
    rules: BiotaRules | None = None,
    controller_config: ControllerConfig | None = None,
    config: ScheduleConfig | None = None,
) -> AttackSchedule:
    """BIoTA's greedy FDI: every occupant to the best zone, all day.

    Only the rule set constrains the spoof: at-home occupants are
    re-reported in the most rewarding accessible zone (respecting
    capacity); occupants actually outside stay outside (the entrance
    count rule pins them).
    """
    rules = rules or BiotaRules()
    controller_config = controller_config or ControllerConfig()
    config = config or ScheduleConfig()
    n_slots = actual_trace.n_slots
    if n_slots % MINUTES_PER_DAY != 0:
        raise AttackError("attack traces must cover whole days")

    spoofed_zone = actual_trace.occupant_zone.copy()
    spoofed_activity = actual_trace.occupant_activity.copy()
    zones = [z for z in capability.schedulable_zones(home) if z != 0]
    total_reward = 0.0
    if not zones or not n_slots:
        return AttackSchedule(
            spoofed_zone=spoofed_zone,
            spoofed_activity=spoofed_activity,
            expected_reward=total_reward,
        )

    zone_ids = np.array(zones)
    minute = np.arange(n_slots) % MINUTES_PER_DAY
    attackable = capability.slot_mask(n_slots)
    for occupant in home.occupants:
        column = occupant.occupant_id
        if column not in capability.occupants:
            continue
        actual = actual_trace.occupant_zone[:, column]
        # The entrance count rule pins occupants who are outside.
        slots = np.flatnonzero(
            attackable & (actual != 0) & capability.zone_mask(actual)
        )
        if not len(slots):
            continue
        rewards, best_activity = _day_rewards(
            home, column, zones, pricing, controller_config, config, 0
        )
        # Zones by descending reward per minute of day, ties by zone id.
        ranked = np.argsort(-rewards[zone_ids], axis=0, kind="stable").T
        candidates = zone_ids[ranked[minute[slots]]]  # [S, K] in rank order
        rows = spoofed_zone[slots]
        headcount = (rows[:, :, None] == candidates[:, None, :]).sum(axis=1)
        feasible = (rows[:, column, None] == candidates) | (
            headcount < rules.zone_capacity
        )
        first = feasible.argmax(axis=1)
        found = feasible[np.arange(len(slots)), first]
        if not found.any():
            continue
        slots = slots[found]
        chosen = candidates[found, first[found]]
        activity_of = np.zeros(home.n_zones, dtype=spoofed_activity.dtype)
        for zone in np.unique(chosen).tolist():
            activity_of[zone] = best_activity[zone]
        spoofed_zone[slots, column] = chosen
        spoofed_activity[slots, column] = activity_of[chosen]
        # A sequential fold seeded with the running total, in the
        # loop's order (np.sum would add pairwise and change bits).
        picked = rewards[chosen, minute[slots]]
        total_reward = np.add.accumulate(np.append(total_reward, picked))[-1]
    return AttackSchedule(
        spoofed_zone=spoofed_zone,
        spoofed_activity=spoofed_activity,
        expected_reward=total_reward,
    )


def biota_greedy_attack_reference(
    home: SmartHome,
    capability: AttackerCapability,
    pricing: TouPricing,
    actual_trace: HomeTrace,
    rules: BiotaRules | None = None,
    controller_config: ControllerConfig | None = None,
    config: ScheduleConfig | None = None,
) -> AttackSchedule:
    """The preserved per-slot implementation of :func:`biota_greedy_attack`.

    One zone sort and one headcount per (occupant, slot), with the
    reward table rebuilt every day: the oracle the array program's
    equivalence tests and the hot-path bench run against.  Same
    arguments and result as :func:`biota_greedy_attack`.
    """
    rules = rules or BiotaRules()
    controller_config = controller_config or ControllerConfig()
    config = config or ScheduleConfig()
    n_slots = actual_trace.n_slots
    if n_slots % MINUTES_PER_DAY != 0:
        raise AttackError("attack traces must cover whole days")

    spoofed_zone = actual_trace.occupant_zone.copy()
    spoofed_activity = actual_trace.occupant_activity.copy()
    zones = [z for z in capability.schedulable_zones(home) if z != 0]
    if not zones:
        return AttackSchedule(
            spoofed_zone=spoofed_zone,
            spoofed_activity=spoofed_activity,
            expected_reward=0.0,
        )

    total_reward = 0.0
    n_days = n_slots // MINUTES_PER_DAY
    for occupant in home.occupants:
        if occupant.occupant_id not in capability.occupants:
            continue
        for day in range(n_days):
            day_start = day * MINUTES_PER_DAY
            rewards, best_activity = _day_rewards(
                home,
                occupant.occupant_id,
                zones,
                pricing,
                controller_config,
                config,
                day_start,
            )
            for offset in range(MINUTES_PER_DAY):
                t = day_start + offset
                if not capability.can_attack_slot(t):
                    continue
                actual = int(actual_trace.occupant_zone[t, occupant.occupant_id])
                if actual == 0:
                    continue  # entrance count rule pins them outside
                if not capability.can_spoof_zone(actual):
                    continue
                # Best zone with remaining capacity this slot.
                for zone in sorted(zones, key=lambda z: -rewards[z, offset]):
                    already = int((spoofed_zone[t] == zone).sum())
                    occupied_here = (
                        int(spoofed_zone[t, occupant.occupant_id]) == zone
                    )
                    if not occupied_here and already >= rules.zone_capacity:
                        continue
                    spoofed_zone[t, occupant.occupant_id] = zone
                    spoofed_activity[t, occupant.occupant_id] = best_activity[zone]
                    total_reward += rewards[zone, offset]
                    break
    return AttackSchedule(
        spoofed_zone=spoofed_zone,
        spoofed_activity=spoofed_activity,
        expected_reward=total_reward,
    )


def biota_attack_samples(
    home: SmartHome,
    actual_trace: HomeTrace,
    pricing: TouPricing,
    seed: int = 0,
    windows_per_day: int = 3,
    window_minutes: tuple[int, int] = (30, 150),
) -> tuple[HomeTrace, np.ndarray]:
    """Labelled BIoTA-attacked data for ADM scoring (Table IV, Fig. 5).

    Random windows of each day are attacked with the greedy spoof;
    everything else stays benign.  Returns the attacked *reported*
    trace and a per-slot boolean label array ``[T, O]`` marking which
    (slot, occupant) entries were falsified.
    """
    rng = np.random.default_rng(seed)
    capability = AttackerCapability.full_access(home)
    schedule = biota_greedy_attack(home, capability, pricing, actual_trace)
    reported = actual_trace.copy()
    labels = np.zeros(actual_trace.occupant_zone.shape, dtype=bool)
    n_days = actual_trace.n_slots // MINUTES_PER_DAY
    for day in range(n_days):
        day_start = day * MINUTES_PER_DAY
        for _ in range(windows_per_day):
            length = int(rng.integers(window_minutes[0], window_minutes[1]))
            start = day_start + int(rng.integers(0, MINUTES_PER_DAY - length))
            stop = start + length
            occupant = int(rng.integers(0, actual_trace.n_occupants))
            window_spoof = schedule.spoofed_zone[start:stop, occupant]
            window_actual = actual_trace.occupant_zone[start:stop, occupant]
            if np.array_equal(window_spoof, window_actual):
                continue
            reported.occupant_zone[start:stop, occupant] = window_spoof
            reported.occupant_activity[start:stop, occupant] = (
                schedule.spoofed_activity[start:stop, occupant]
            )
            labels[start:stop, occupant] = (window_spoof != window_actual)
    return reported, labels
