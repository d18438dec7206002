"""Fig. 3 — ASHRAE vs proposed control cost, sharded by house."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.report import format_series
from repro.hvac.ashrae import AshraeController
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import simulate
from repro.runner.common import house_trace
from repro.runner.registry import Experiment, Param, register


@dataclass
class Fig3Result:
    house: str
    ashrae_daily: np.ndarray
    shatter_daily: np.ndarray
    savings_percent: float
    rendered: str = ""


def _run_house(house: str, n_days: int = 7, seed: int = 2023) -> Fig3Result:
    pricing = TouPricing()
    home, trace = house_trace(house, n_days, seed)
    dchvac = simulate(home, trace, DemandControlledHVAC(home))
    baseline = AshraeController(home, ControllerConfig()).calibrate(trace)
    ashrae = simulate(home, trace, baseline)
    ashrae_daily = ashrae.daily_costs(pricing)
    shatter_daily = dchvac.daily_costs(pricing)
    savings = 100.0 * (1.0 - shatter_daily.sum() / ashrae_daily.sum())
    rendered = format_series(
        f"Fig. 3 ({house}): daily control cost ($), ARAS House {house}",
        list(range(1, n_days + 1)),
        {
            "ASHRAE": [float(c) for c in ashrae_daily],
            "SHATTER": [float(c) for c in shatter_daily],
        },
    )
    return Fig3Result(
        house=house,
        ashrae_daily=ashrae_daily,
        shatter_daily=shatter_daily,
        savings_percent=savings,
        rendered=rendered,
    )


def _shards(params: dict) -> list[dict]:
    return [{"house": "A"}, {"house": "B"}]


def _merge(params: dict, shards: list[dict], parts: list) -> list[Fig3Result]:
    return list(parts)


def _render(results: list[Fig3Result]) -> str:
    return "\n\n".join(result.rendered for result in results)


EXPERIMENT = register(
    Experiment(
        name="fig3",
        artifact="Fig. 3",
        title="ASHRAE vs proposed controller cost",
        render=_render,
        params=(Param("n_days", 7), Param("seed", 2023)),
        tags=frozenset({"figure", "hvac", "cost"}),
        scale_days=lambda days: {"n_days": days},
        shards=_shards,
        run_shard=_run_house,
        merge=_merge,
    )
)


def run_fig3(n_days: int = 7, seed: int = 2023) -> list[Fig3Result]:
    """ASHRAE vs activity-aware controller cost per day, both houses."""
    return EXPERIMENT.execute({"n_days": n_days, "seed": seed})
