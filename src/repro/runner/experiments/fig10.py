"""Fig. 10 — appliance-triggering contribution, sharded by house."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.model import AttackerCapability
from repro.core.report import format_series
from repro.core.shatter import StudyConfig
from repro.hvac.pricing import TouPricing
from repro.runner.common import analysis_for_house
from repro.runner.registry import Experiment, Param, register


@dataclass
class Fig10Result:
    house: str
    benign_daily: np.ndarray
    without_trigger_daily: np.ndarray
    with_trigger_daily: np.ndarray
    increase_percent: float
    rendered: str = ""


def _run_house(
    house: str, n_days: int = 12, training_days: int = 9, seed: int = 2023
) -> Fig10Result:
    pricing = TouPricing()
    config = StudyConfig(n_days=n_days, training_days=training_days, seed=seed)
    analysis = analysis_for_house(house, config)
    capability = AttackerCapability.full_access(analysis.home)
    schedule = analysis.shatter_attack(capability)
    benign = analysis.benign_result().daily_costs(pricing)
    without_trigger = analysis.execute(
        schedule, capability, enable_triggering=False
    ).result.daily_costs(pricing)
    with_trigger = analysis.execute(
        schedule, capability, enable_triggering=True
    ).result.daily_costs(pricing)
    increase = 100.0 * (
        with_trigger.sum() - without_trigger.sum()
    ) / without_trigger.sum()
    rendered = format_series(
        f"Fig. 10 ({house}): daily control cost ($)",
        list(range(1, len(benign) + 1)),
        {
            "Benign": [float(c) for c in benign],
            "No triggering": [float(c) for c in without_trigger],
            "With triggering": [float(c) for c in with_trigger],
        },
    )
    return Fig10Result(
        house=house,
        benign_daily=benign,
        without_trigger_daily=without_trigger,
        with_trigger_daily=with_trigger,
        increase_percent=increase,
        rendered=rendered,
    )


def _shards(params: dict) -> list[dict]:
    return [{"house": "A"}, {"house": "B"}]


def _merge(params: dict, shards: list[dict], parts: list) -> list[Fig10Result]:
    return list(parts)


EXPERIMENT = register(
    Experiment(
        name="fig10",
        artifact="Fig. 10",
        title="appliance-triggering contribution",
        render=lambda results: "\n\n".join(r.rendered for r in results),
        params=(
            Param("n_days", 12),
            Param("training_days", 9),
            Param("seed", 2023),
        ),
        tags=frozenset({"figure", "attack", "cost"}),
        scale_days=lambda days: {"n_days": days, "training_days": days - 3},
        shards=_shards,
        run_shard=_run_house,
        merge=_merge,
    )
)


def run_fig10(
    n_days: int = 12, training_days: int = 9, seed: int = 2023
) -> list[Fig10Result]:
    """Daily cost with and without appliance triggering, both houses."""
    return EXPERIMENT.execute(
        {"n_days": n_days, "training_days": training_days, "seed": seed}
    )
