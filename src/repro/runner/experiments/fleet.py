"""Fleet sweep — benign control cost across a batch of synthetic homes.

Not a paper artifact: this is the scaling workload the ROADMAP's
production north star asks for.  A fleet of scaled synthetic homes
(:func:`repro.dataset.synthetic.iter_home_fleet`) is simulated through
the batched closed-loop entry point
(:func:`repro.hvac.simulation.simulate_batch`), which runs one
per-zone :func:`repro.hvac.simulation.simulate` call per home.

Shards own contiguous home-index chunks (``iter_home_fleet(start=)``
regenerates exactly a shard's homes lazily), so no process ever
materializes more than one chunk of traces: the coordinator folds
fixed-size per-chunk cost rows, which is what keeps its peak RSS flat
as the fleet grows.  Every home is simulated on its own, so chunking
cannot change the numbers, and the rendered table doubles as a
determinism check across chunk compositions and backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.report import format_table
from repro.dataset.synthetic import iter_home_fleet
from repro.hvac.controller import DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import SimulationJob, simulate_batch
from repro.runner.registry import Experiment, Param, register


@dataclass
class FleetResult:
    n_homes: int
    n_zones: int
    n_days: int
    daily_cost: list[float]
    total_kwh: list[float]
    rendered: str = ""


def _run_chunk(
    start: int,
    stop: int,
    n_zones: int = 4,
    n_days: int = 3,
    seed: int = 2023,
    **_: object,
) -> list[tuple[float, float]]:
    """Batched benign simulation of homes ``start .. stop - 1``.

    Returns per-home ``(daily_cost, total_kwh)`` in home order.
    """
    pricing = TouPricing()
    jobs = [
        SimulationJob(home, trace, DemandControlledHVAC(home))
        for home, trace in iter_home_fleet(
            stop - start, n_zones=n_zones, n_days=n_days, seed=seed, start=start
        )
    ]
    results = simulate_batch(jobs)
    return [
        (float(result.cost(pricing)) / n_days, float(result.total_kwh.sum()))
        for result in results
    ]


def _shards(params: dict) -> list[dict]:
    n_homes, chunk = params["n_homes"], params["chunk"]
    return [
        {"start": start, "stop": min(start + chunk, n_homes)}
        for start in range(0, n_homes, chunk)
    ]


def _merge(params: dict, shards: list[dict], parts: list) -> FleetResult:
    rows = [row for part in parts for row in part]
    n_homes, n_zones, n_days = params["n_homes"], params["n_zones"], params["n_days"]
    daily_cost = [row[0] for row in rows]
    total_kwh = [row[1] for row in rows]
    table_rows = [
        [f"home {index + 1}", f"{daily_cost[index]:.3f}", f"{total_kwh[index]:.2f}"]
        for index in range(n_homes)
    ]
    table_rows.append(
        [
            "fleet total",
            f"{float(np.sum(daily_cost)):.3f}",
            f"{float(np.sum(total_kwh)):.2f}",
        ]
    )
    rendered = format_table(
        f"Fleet sweep: {n_homes} homes x {n_zones} zones, "
        f"{n_days}-day benign cost (batched simulation)",
        ["home", "$/day", "kWh"],
        table_rows,
    )
    return FleetResult(
        n_homes=n_homes,
        n_zones=n_zones,
        n_days=n_days,
        daily_cost=daily_cost,
        total_kwh=total_kwh,
        rendered=rendered,
    )


EXPERIMENT = register(
    Experiment(
        name="fleet",
        artifact="Ext. Fleet",
        title="fleet benign-cost sweep via batched simulation",
        render=lambda result: result.rendered,
        params=(
            Param("n_homes", 12),
            Param("n_zones", 4),
            Param("n_days", 3),
            Param("seed", 2023),
            Param("chunk", 4, "homes per shard (one simulate_batch call)"),
        ),
        tags=frozenset({"sweep", "scaling", "extension"}),
        scale_days=lambda days: {"n_days": max(1, days // 2)},
        shards=_shards,
        run_shard=_run_chunk,
        merge=_merge,
    )
)


def run_fleet(
    n_homes: int = 12,
    n_zones: int = 4,
    n_days: int = 3,
    seed: int = 2023,
    chunk: int = 4,
) -> FleetResult:
    """Benign cost of every home in a synthetic fleet, batched.

    Args:
        n_homes: Fleet size.
        n_zones: Conditioned zones per home.
        n_days: Trace length per home.
        seed: Fleet generation seed.
        chunk: Homes per shard, each shard one
            :func:`~repro.hvac.simulation.simulate_batch` call (the
            memory and parallelism granularity; results are
            chunk-invariant).
    """
    return EXPERIMENT.execute(
        {
            "n_homes": n_homes,
            "n_zones": n_zones,
            "n_days": n_days,
            "seed": seed,
            "chunk": chunk,
        }
    )
