"""Table VII — attack impact vs appliance access, sharded by house."""

from __future__ import annotations

from repro.attack.model import AttackerCapability
from repro.core.report import format_table
from repro.core.shatter import StudyConfig
from repro.runner.common import analysis_for_house, triggering_impact
from repro.runner.experiments.tab06 import CapabilitySweepResult
from repro.runner.registry import Experiment, Param, register

_APPLIANCE_SETS = {
    "13 appliances": list(range(13)),
    "8 appliances": [0, 1, 3, 4, 6, 7, 9, 11],
    "3 appliances": [6, 9, 11],
}


def _run_house(
    house: str, n_days: int = 12, training_days: int = 9, seed: int = 2023
) -> list[float]:
    """Impact per appliance set for one house, in _APPLIANCE_SETS order."""
    analysis = analysis_for_house(
        house,
        StudyConfig(n_days=n_days, training_days=training_days, seed=seed),
    )
    return [
        triggering_impact(
            analysis,
            AttackerCapability.with_appliances(analysis.home, appliances),
        )
        for appliances in _APPLIANCE_SETS.values()
    ]


def _shards(params: dict) -> list[dict]:
    return [{"house": "A"}, {"house": "B"}]


def _merge(params: dict, shards: list[dict], parts: list) -> CapabilitySweepResult:
    impacts_a, impacts_b = parts
    rows = [
        (label, impacts_a[index], impacts_b[index])
        for index, label in enumerate(_APPLIANCE_SETS)
    ]
    rendered = format_table(
        "Table VII: attack impact ($) vs appliance access",
        ["Access", "House A", "House B"],
        [[label, a, b] for label, a, b in rows],
    )
    return CapabilitySweepResult(label="appliances", rows=rows, rendered=rendered)


EXPERIMENT = register(
    Experiment(
        name="tab7",
        artifact="Table VII",
        title="impact vs appliance access",
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


def run_tab7(
    n_days: int = 12, training_days: int = 9, seed: int = 2023
) -> CapabilitySweepResult:
    """Attack impact vs number of accessible appliances (13 / 8 / 3)."""
    return EXPERIMENT.execute(
        {"n_days": n_days, "training_days": training_days, "seed": seed}
    )
