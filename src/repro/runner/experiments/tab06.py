"""Tables VI — attack impact vs zone-sensor access, sharded by house."""

from __future__ import annotations

from dataclasses import dataclass

from repro.attack.model import AttackerCapability
from repro.core.report import format_table
from repro.core.shatter import StudyConfig
from repro.runner.common import analysis_for_house, triggering_impact
from repro.runner.registry import Experiment, Param, register

_ZONE_SETS = {
    "4 zones": [1, 2, 3, 4],
    "3 zones": [1, 2, 3],
    "2 zones": [1, 3],
}


@dataclass
class CapabilitySweepResult:
    label: str
    rows: list[tuple[str, float, float]]  # (access, house A $, house B $)
    rendered: str = ""


def _run_house(
    house: str, n_days: int = 12, training_days: int = 9, seed: int = 2023
) -> list[float]:
    """Impact per zone set for one house, in _ZONE_SETS order."""
    analysis = analysis_for_house(
        house,
        StudyConfig(n_days=n_days, training_days=training_days, seed=seed),
    )
    return [
        triggering_impact(analysis, AttackerCapability.with_zones(analysis.home, zones))
        for zones in _ZONE_SETS.values()
    ]


def _shards(params: dict) -> list[dict]:
    return [{"house": "A"}, {"house": "B"}]


def _merge(params: dict, shards: list[dict], parts: list) -> CapabilitySweepResult:
    impacts_a, impacts_b = parts
    rows = [
        (label, impacts_a[index], impacts_b[index])
        for index, label in enumerate(_ZONE_SETS)
    ]
    rendered = format_table(
        "Table VI: attack impact ($) vs zone sensor access",
        ["Access", "House A", "House B"],
        [[label, a, b] for label, a, b in rows],
    )
    return CapabilitySweepResult(label="zones", rows=rows, rendered=rendered)


EXPERIMENT = register(
    Experiment(
        name="tab6",
        artifact="Table VI",
        title="impact vs zone access",
        render=lambda result: result.rendered,
        params=(
            Param("n_days", 12),
            Param("training_days", 9),
            Param("seed", 2023),
        ),
        tags=frozenset({"table", "attack", "capability", "sweep"}),
        scale_days=lambda days: {"n_days": days, "training_days": days - 3},
        shards=_shards,
        run_shard=_run_house,
        merge=_merge,
    )
)


def run_tab6(
    n_days: int = 12, training_days: int = 9, seed: int = 2023
) -> CapabilitySweepResult:
    """Attack impact vs number of accessible zones (4 / 3 / 2)."""
    return EXPERIMENT.execute(
        {"n_days": n_days, "training_days": training_days, "seed": seed}
    )
