"""Table III — the Section V case study (single unit of work)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.model import AttackerCapability
from repro.attack.trigger import appliance_triggering_decisions
from repro.core.report import format_table
from repro.core.shatter import StudyConfig
from repro.runner.common import analysis_for_house
from repro.runner.registry import Param, experiment
from repro.units import clock_to_slot, slot_to_clock


@dataclass
class Tab3Result:
    slots: list[int]
    actual: np.ndarray
    greedy: np.ndarray
    shatter: np.ndarray
    stay_ranges: dict[int, list[str]]
    trigger_status: np.ndarray
    rendered: str = ""


@experiment(
    name="tab3",
    artifact="Table III",
    title="Section V case study",
    render=lambda result: result.rendered,
    params=(
        Param("n_days", 10),
        Param("training_days", 7),
        Param("seed", 2023),
        Param("day", 3),
        Param("start_clock", "18:00"),
        Param("n_slots", 10),
    ),
    tags=frozenset({"table", "attack", "case-study"}),
    scale_days=lambda days: {"n_days": days, "training_days": days - 3},
)
def run_tab3(
    n_days: int = 10,
    training_days: int = 7,
    seed: int = 2023,
    day: int = 3,
    start_clock: str = "18:00",
    n_slots: int = 10,
) -> Tab3Result:
    """The Section V case study: ten evening slots, both occupants."""
    config = StudyConfig(n_days=n_days, training_days=training_days, seed=seed)
    analysis = analysis_for_house("A", config)
    capability = AttackerCapability.full_access(analysis.home)
    shatter = analysis.shatter_attack(capability)
    greedy = analysis.greedy_attack(capability)
    triggered, decisions = appliance_triggering_decisions(
        analysis.home, analysis.attacker_adm, shatter, analysis.eval, capability
    )

    day = min(day, analysis.eval.n_days - 1)
    start = day * 1440 + clock_to_slot(start_clock)
    slots = list(range(start, start + n_slots))
    trigger_by_slot = np.zeros((n_slots, analysis.home.n_occupants), dtype=bool)
    for decision in decisions:
        if start <= decision.slot < start + n_slots:
            trigger_by_slot[decision.slot - start, decision.occupant_id] = True

    stay_ranges: dict[int, list[str]] = {}
    for occupant in range(analysis.home.n_occupants):
        ranges = []
        for t in slots:
            zone = int(shatter.spoofed_zone[t, occupant])
            minute = t % 1440
            intervals = analysis.attacker_adm.stay_ranges(occupant, zone, minute)
            if intervals:
                low, high = intervals[0][0], intervals[-1][1]
                ranges.append(f"[{low:.0f}-{high:.0f}]")
            else:
                ranges.append("[]")
        stay_ranges[occupant] = ranges

    headers = ["Schedule", "Occupant"] + [slot_to_clock(t) for t in slots]
    rows = []
    names = [occupant.name for occupant in analysis.home.occupants]
    for label, array in (
        ("Actual", analysis.eval.occupant_zone),
        ("Greedy", greedy.spoofed_zone),
        ("SHATTER", shatter.spoofed_zone),
    ):
        for occupant, name in enumerate(names):
            rows.append([label, name] + [int(array[t, occupant]) for t in slots])
    for occupant, name in enumerate(names):
        rows.append(["Range", name] + stay_ranges[occupant])
    for occupant, name in enumerate(names):
        rows.append(
            ["Trigger", name]
            + [str(bool(trigger_by_slot[i, occupant])) for i in range(n_slots)]
        )
    rendered = format_table("Table III: case study (zone ids per slot)", headers, rows)
    return Tab3Result(
        slots=slots,
        actual=analysis.eval.occupant_zone[start : start + n_slots].copy(),
        greedy=greedy.spoofed_zone[start : start + n_slots].copy(),
        shatter=shatter.spoofed_zone[start : start + n_slots].copy(),
        stay_ranges=stay_ranges,
        trigger_status=trigger_by_slot,
        rendered=rendered,
    )
