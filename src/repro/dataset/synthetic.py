"""Habit-structured synthetic ARAS-style trace generation.

The ADM's central hypothesis (Section IV-B of the paper) is that
"occupants converge to a set of actions after habit formation": the
(arrival-time, stay-duration) pairs per zone form tight clusters.  The
generator here produces exactly that structure.  Each occupant has a
routine — an ordered list of :class:`RoutineStep` anchors with mean
start time, mean duration, and Gaussian jitter — with separate weekday
and weekend variants, so every zone accumulates one cluster per habitual
visit (plus a weekend cluster where routines differ).

Gaps between anchored steps are filled with the occupant's default
"idle" activity so that every minute of the day has a location and an
activity, as in the real ARAS labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import DatasetError
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.units import MINUTES_PER_DAY


@dataclass(frozen=True)
class RoutineStep:
    """One habitual activity anchor in a daily routine.

    Attributes:
        activity_name: ARAS activity to conduct.
        mean_start: Mean start minute of day (0..1439).
        mean_duration: Mean duration in minutes.
        start_jitter: Standard deviation of the start time (minutes).
        duration_jitter: Standard deviation of the duration (minutes).
        probability: Chance the step occurs on a given day.
    """

    activity_name: str
    mean_start: int
    mean_duration: int
    start_jitter: float = 10.0
    duration_jitter: float = 6.0
    probability: float = 1.0


@dataclass
class Routine:
    """A full daily routine: anchored steps plus a filler activity."""

    steps: list[RoutineStep]
    filler_activity: str = "Using Internet"

    def __post_init__(self) -> None:
        starts = [step.mean_start for step in self.steps]
        if starts != sorted(starts):
            raise DatasetError("routine steps must be ordered by mean start")


@dataclass
class SyntheticConfig:
    """Generation parameters.

    Attributes:
        n_days: Days to generate (the paper uses 30).
        seed: RNG seed; traces are fully deterministic given the seed.
        start_weekday: Weekday of day 0 (0 = Monday); days 5 and 6 of
            each week use the weekend routine.
    """

    n_days: int = 30
    seed: int = 2023
    start_weekday: int = 0


@dataclass
class OccupantRoutines:
    """Weekday and weekend routines for one occupant."""

    weekday: Routine
    weekend: Routine


def default_routines(house: str) -> dict[int, OccupantRoutines]:
    """The built-in routines for ARAS houses ``"A"`` and ``"B"``.

    House A's weekday evening matches the Section V case study: Alice is
    in the livingroom around 6 pm while Bob is still out.  House B's
    residents spend less time at home, which yields the lower benign and
    attack costs the paper reports for it.
    """
    if house not in ("A", "B"):
        raise DatasetError(f"unknown house {house!r}; expected 'A' or 'B'")
    if house == "A":
        alice_weekday = Routine(
            steps=[
                RoutineStep("Sleeping", 0, 420, 0.0, 15.0),
                RoutineStep("Toileting", 422, 12, 6.0, 3.0),
                RoutineStep("Preparing Breakfast", 440, 25, 8.0, 5.0),
                RoutineStep("Having Breakfast", 468, 22, 8.0, 5.0),
                RoutineStep("Going Out", 510, 360, 12.0, 20.0),
                RoutineStep("Having Snack", 880, 15, 10.0, 4.0),
                RoutineStep("Studying", 905, 100, 12.0, 15.0),
                RoutineStep("Toileting", 1015, 10, 12.0, 3.0),
                RoutineStep("Watching TV", 1040, 90, 8.0, 10.0),
                RoutineStep("Having Snack", 1133, 12, 10.0, 3.0, probability=0.8),
                RoutineStep("Preparing Dinner", 1150, 40, 8.0, 6.0),
                RoutineStep("Having Dinner", 1195, 30, 8.0, 5.0),
                RoutineStep("Having Shower", 1240, 25, 8.0, 4.0),
                RoutineStep("Sleeping", 1290, 150, 10.0, 10.0),
            ],
            filler_activity="Using Internet",
        )
        alice_weekend = Routine(
            steps=[
                RoutineStep("Sleeping", 0, 500, 0.0, 20.0),
                RoutineStep("Preparing Breakfast", 520, 30, 12.0, 6.0),
                RoutineStep("Having Breakfast", 555, 25, 10.0, 5.0),
                RoutineStep("Cleaning", 600, 80, 15.0, 12.0),
                RoutineStep("Preparing Lunch", 720, 35, 10.0, 6.0),
                RoutineStep("Having Lunch", 760, 30, 10.0, 5.0),
                RoutineStep("Going Out", 820, 180, 20.0, 25.0, probability=0.8),
                RoutineStep("Watching TV", 1030, 110, 12.0, 12.0),
                RoutineStep("Preparing Dinner", 1155, 40, 10.0, 6.0),
                RoutineStep("Having Dinner", 1200, 35, 8.0, 5.0),
                RoutineStep("Having Shower", 1250, 22, 8.0, 4.0),
                RoutineStep("Sleeping", 1295, 145, 10.0, 10.0),
            ],
            filler_activity="Reading Book",
        )
        bob_weekday = Routine(
            steps=[
                RoutineStep("Sleeping", 0, 400, 0.0, 15.0),
                RoutineStep("Having Shower", 405, 18, 6.0, 3.0),
                RoutineStep("Having Breakfast", 430, 20, 8.0, 4.0),
                RoutineStep("Going Out", 460, 710, 10.0, 15.0),
                RoutineStep("Having Snack", 1178, 10, 8.0, 3.0, probability=0.7),
                RoutineStep("Having Dinner", 1192, 28, 8.0, 5.0),
                RoutineStep("Watching TV", 1225, 62, 10.0, 10.0),
                RoutineStep("Brushing Teeth", 1295, 8, 6.0, 2.0),
                RoutineStep("Sleeping", 1310, 130, 8.0, 8.0),
            ],
            filler_activity="Listening to Music",
        )
        bob_weekend = Routine(
            steps=[
                RoutineStep("Sleeping", 0, 480, 0.0, 20.0),
                RoutineStep("Having Breakfast", 500, 25, 12.0, 5.0),
                RoutineStep("Watching TV", 540, 120, 15.0, 15.0),
                RoutineStep("Preparing Lunch", 700, 30, 10.0, 6.0, probability=0.7),
                RoutineStep("Having Lunch", 735, 30, 10.0, 5.0),
                RoutineStep("Laundry", 790, 50, 15.0, 8.0, probability=0.6),
                RoutineStep("Going Out", 860, 200, 20.0, 25.0, probability=0.7),
                RoutineStep("Having Dinner", 1190, 35, 10.0, 5.0),
                RoutineStep("Using Internet", 1240, 60, 10.0, 10.0),
                RoutineStep("Sleeping", 1310, 130, 10.0, 8.0),
            ],
            filler_activity="Listening to Music",
        )
        return {
            0: OccupantRoutines(weekday=alice_weekday, weekend=alice_weekend),
            1: OccupantRoutines(weekday=bob_weekday, weekend=bob_weekend),
        }
    # House B: both residents out most of the day, shorter home visits.
    carol_weekday = Routine(
        steps=[
            RoutineStep("Sleeping", 0, 390, 0.0, 12.0),
            RoutineStep("Having Shower", 395, 15, 6.0, 3.0),
            RoutineStep("Preparing Breakfast", 415, 18, 8.0, 4.0),
            RoutineStep("Having Breakfast", 436, 15, 6.0, 3.0),
            RoutineStep("Going Out", 465, 640, 12.0, 18.0),
            RoutineStep("Preparing Dinner", 1130, 30, 10.0, 5.0),
            RoutineStep("Having Dinner", 1165, 25, 8.0, 4.0),
            RoutineStep("Watching TV", 1200, 85, 10.0, 10.0),
            RoutineStep("Sleeping", 1300, 140, 8.0, 8.0),
        ],
        filler_activity="Using Internet",
    )
    carol_weekend = Routine(
        steps=[
            RoutineStep("Sleeping", 0, 470, 0.0, 18.0),
            RoutineStep("Having Breakfast", 490, 22, 10.0, 5.0),
            RoutineStep("Cleaning", 530, 60, 12.0, 10.0),
            RoutineStep("Going Out", 620, 420, 20.0, 30.0, probability=0.85),
            RoutineStep("Having Dinner", 1180, 30, 10.0, 5.0),
            RoutineStep("Watching TV", 1220, 75, 10.0, 10.0),
            RoutineStep("Sleeping", 1305, 135, 8.0, 8.0),
        ],
        filler_activity="Reading Book",
    )
    dave_weekday = Routine(
        steps=[
            RoutineStep("Sleeping", 0, 370, 0.0, 12.0),
            RoutineStep("Toileting", 372, 10, 5.0, 3.0),
            RoutineStep("Having Breakfast", 390, 15, 6.0, 3.0),
            RoutineStep("Going Out", 420, 700, 12.0, 15.0),
            RoutineStep("Having Dinner", 1140, 25, 10.0, 4.0),
            RoutineStep("Using Internet", 1175, 75, 10.0, 10.0),
            RoutineStep("Having Shower", 1260, 18, 6.0, 3.0),
            RoutineStep("Sleeping", 1290, 150, 8.0, 8.0),
        ],
        filler_activity="Listening to Music",
    )
    dave_weekend = Routine(
        steps=[
            RoutineStep("Sleeping", 0, 450, 0.0, 15.0),
            RoutineStep("Having Breakfast", 470, 20, 10.0, 4.0),
            RoutineStep("Going Out", 520, 480, 20.0, 30.0, probability=0.9),
            RoutineStep("Having Dinner", 1170, 30, 10.0, 5.0),
            RoutineStep("Watching TV", 1210, 80, 10.0, 10.0),
            RoutineStep("Sleeping", 1300, 140, 8.0, 8.0),
        ],
        filler_activity="Watching TV",
    )
    return {
        0: OccupantRoutines(weekday=carol_weekday, weekend=carol_weekend),
        1: OccupantRoutines(weekday=dave_weekday, weekend=dave_weekend),
    }


def _sample_day_plan(
    routine: Routine, rng: np.random.Generator
) -> list[tuple[str, int, int]]:
    """Sample one day's (activity, start, end) segments from a routine.

    Anchored steps are jittered and clipped so they never overlap; the
    first step always begins at minute 0 and the last one is extended to
    the end of the day (overnight sleep spans midnight in the data, so
    routines end with a Sleeping anchor).
    """
    segments: list[tuple[str, int, int]] = []
    cursor = 0
    for index, step in enumerate(routine.steps):
        if step.probability < 1.0 and rng.random() > step.probability:
            continue
        start = int(round(rng.normal(step.mean_start, step.start_jitter)))
        duration = max(1, int(round(rng.normal(step.mean_duration, step.duration_jitter))))
        if index == 0:
            start = 0
        start = max(start, cursor)
        if start >= MINUTES_PER_DAY:
            break
        end = min(start + duration, MINUTES_PER_DAY)
        gap = start - cursor
        if 0 < gap < 25 and segments:
            # Small jitter gaps are absorbed by the previous activity —
            # people do not detour to another room for a few minutes
            # between habitual steps, and the ADM hypothesis depends on
            # visits being habit-shaped.
            name, seg_start, _ = segments[-1]
            segments[-1] = (name, seg_start, start)
        elif gap > 0:
            segments.append((routine.filler_activity, cursor, start))
        segments.append((step.activity_name, start, end))
        cursor = end
    if cursor < MINUTES_PER_DAY:
        # Extend the final anchored activity (normally Sleeping) to 24:00.
        if segments:
            name, start, _ = segments[-1]
            segments[-1] = (name, start, MINUTES_PER_DAY)
        else:
            segments.append((routine.filler_activity, 0, MINUTES_PER_DAY))
    return segments


def generate_house_trace(
    home: SmartHome,
    house: str | None = None,
    config: SyntheticConfig | None = None,
    routines: dict[int, OccupantRoutines] | None = None,
) -> HomeTrace:
    """Generate a multi-day trace for a home.

    Args:
        home: The home whose activity catalog and appliances to use.
        house: ``"A"`` or ``"B"`` to select the built-in routines
            (ignored when ``routines`` is given).
        config: Generation parameters; defaults to 30 days, seed 2023.
        routines: Explicit per-occupant routines overriding the built-ins.

    Returns:
        A :class:`HomeTrace` of ``config.n_days * 1440`` slots.
    """
    config = config or SyntheticConfig()
    if routines is None:
        if house is None:
            raise DatasetError("either house or routines must be provided")
        routines = default_routines(house)
    missing = [o.occupant_id for o in home.occupants if o.occupant_id not in routines]
    if missing:
        raise DatasetError(f"no routines for occupants {missing}")

    n_slots = config.n_days * MINUTES_PER_DAY
    trace = HomeTrace.empty(n_slots, home.n_occupants, home.n_appliances)

    for occupant in home.occupants:
        rng = np.random.default_rng(
            np.random.SeedSequence([config.seed, occupant.occupant_id])
        )
        plan_routines = routines[occupant.occupant_id]
        for day in range(config.n_days):
            weekday = (config.start_weekday + day) % 7
            routine = plan_routines.weekend if weekday >= 5 else plan_routines.weekday
            segments = _sample_day_plan(routine, rng)
            base = day * MINUTES_PER_DAY
            for activity_name, start, end in segments:
                activity = home.activities.by_name(activity_name)
                zone_id = home.zone_id(activity.zone_name)
                trace.occupant_activity[base + start : base + end, occupant.occupant_id] = (
                    activity.activity_id
                )
                trace.occupant_zone[base + start : base + end, occupant.occupant_id] = zone_id

    _derive_appliance_status(home, trace)
    return trace


def _derive_appliance_status(home: SmartHome, trace: HomeTrace) -> None:
    """Set appliance status from conducted activities (dynamic load model).

    An appliance is on at slot ``t`` iff some occupant's activity at
    ``t`` lists it — the paper's activity-appliance relationship
    (Section II, point 2).  Computed as one boolean gather per occupant
    through an ``[activity, appliance]`` drive table instead of a
    per-slot triple loop (ORing is order-insensitive, so the result is
    identical).
    """
    max_id = max(a.activity_id for a in home.activities)
    drives = np.zeros((max_id + 1, home.n_appliances), dtype=bool)
    for activity in home.activities:
        for appliance_id in home.appliance_ids_for_activity(activity.activity_id):
            drives[activity.activity_id, appliance_id] = True
    for occupant in range(trace.n_occupants):
        trace.appliance_status |= drives[trace.occupant_activity[:, occupant]]


def generate_home_fleet(
    n_homes: int,
    n_zones: int = 4,
    n_days: int = 3,
    seed: int = 2023,
    start: int = 0,
) -> list[tuple[SmartHome, HomeTrace]]:
    """A fleet of synthetic scaled homes with habit-structured traces.

    Every home gets routines derived from the built-in House-A anchors,
    re-targeted onto its own zones with a per-home jitter seed, so the
    fleet exercises distinct-but-realistic occupancy.  This is the
    workload generator behind the ``fleet`` experiment, which simulates
    each chunk through :func:`repro.hvac.simulation.simulate_batch`,
    and the ``fleet_attack`` schedule sweep.

    ``start`` selects a window of the (conceptually infinite) fleet:
    homes ``start .. start + n_homes - 1``.  Home ``i`` is identical no
    matter which window produced it, which is what lets sharded fleet
    experiments generate exactly the homes a shard owns.
    """
    return list(iter_home_fleet(n_homes, n_zones=n_zones, n_days=n_days,
                                seed=seed, start=start))


def iter_home_fleet(
    n_homes: int,
    n_zones: int = 4,
    n_days: int = 3,
    seed: int = 2023,
    start: int = 0,
) -> Iterator[tuple[SmartHome, HomeTrace]]:
    """Lazy :func:`generate_home_fleet`: homes are built one at a time.

    The streaming fleet experiments consume a chunk's homes as they are
    generated, so no caller ever holds more than one chunk of traces in
    memory; arguments are validated eagerly (before the first ``next``)
    so misuse fails at the call site.
    """
    from repro.home.builder import build_scaled_home

    if n_homes < 1:
        raise DatasetError("a fleet needs at least one home")
    if start < 0:
        raise DatasetError("fleet start index must be non-negative")

    def _generate() -> Iterator[tuple[SmartHome, HomeTrace]]:
        for index in range(start, start + n_homes):
            home = build_scaled_home(n_zones, name=f"Fleet Home {index + 1}")
            routines = {
                occupant.occupant_id: _touring_routines(home, occupant.occupant_id)
                for occupant in home.occupants
            }
            trace = generate_house_trace(
                home,
                config=SyntheticConfig(n_days=n_days, seed=seed + 7919 * index),
                routines=routines,
            )
            yield home, trace

    return _generate()


def _touring_routines(home: SmartHome, occupant_id: int) -> OccupantRoutines:
    """Zone-touring weekday/weekend routines for a scaled home.

    Anchors a sleep block, a morning Going Out block, and an evening
    tour across the home's conditioned zones, so every zone accumulates
    the habit clusters the ADM hypothesis needs.
    """
    zone_activities = [
        home.activities_in_zone(zone)[0].name
        for zone in home.layout.conditioned_ids
    ]
    filler = zone_activities[occupant_id % len(zone_activities)]
    steps = [
        RoutineStep(zone_activities[0], 0, 400, 0.0, 12.0),
        RoutineStep("Going Out", 480, 420 + 17 * occupant_id, 10.0, 15.0),
    ]
    cursor = 940
    tour = zone_activities[1:] or zone_activities
    span = max(8, 340 // len(tour))
    for name in tour:
        steps.append(RoutineStep(name, cursor, max(2, span - 6), 6.0, 4.0))
        cursor += span
    steps.append(RoutineStep(zone_activities[0], 1300, 140, 8.0, 8.0))
    routine = Routine(steps=steps, filler_activity=filler)
    return OccupantRoutines(weekday=routine, weekend=routine)
