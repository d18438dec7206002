"""Fleet attack sweep — SHATTER impact across a batch of synthetic homes.

Not a paper artifact: the attack-side counterpart of the benign
``fleet`` experiment and the ROADMAP's city-scale north star.  A fleet
of scaled synthetic homes (:func:`repro.dataset.synthetic.generate_home_fleet`)
each gets its own fitted ADM, and the SHATTER schedules for the whole
fleet are synthesized through the *batched* DP entry point
(:func:`repro.core.shatter.shatter_attack_batch`) — all attackable days
of all occupants of all homes advance through one stacked array
program, and the day-periodic reward tables are shared across the fleet
through the artifact cache's rewards tier.

Shards own contiguous home-index chunks (``generate_home_fleet(start=)``
regenerates exactly a shard's homes), and each shard fits its own homes'
ADMs through the cache's ADM tier, so a rerun against a warm disk tier
loads them instead.  The rendered table reports per-home expected
attack reward and feasibility bookkeeping, so the artifact doubles as a
determinism check on the batched scheduler (results must match per-home
scheduling bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adm.cluster_model import ClusterBackend
from repro.core.report import format_table
from repro.core.shatter import ShatterAnalysis, StudyConfig, shatter_attack_batch
from repro.dataset.synthetic import generate_home_fleet
from repro.runner.common import params_for
from repro.runner.registry import Experiment, Param, register


@dataclass
class FleetAttackResult:
    n_homes: int
    n_zones: int
    n_days: int
    expected_reward: list[float]
    infeasible_days: list[int]
    substituted_days: list[int]
    spoofed_slots: list[int]
    rendered: str = ""


def _fleet_analysis(
    index: int,
    n_zones: int,
    n_days: int,
    training_days: int,
    seed: int,
    backend: str,
) -> ShatterAnalysis:
    """The full pipeline for fleet home ``index``.

    The ADM fits route through the cache's ADM tier under a
    fleet-specific provenance.  Deliberately *not* memoized as a whole:
    pinning every home's full analysis in the process-local analysis
    tier made coordinator RSS grow linearly with fleet size, while
    rebuilding from the ADM tier is cheap (vectorized trace regen +
    cached fits) and keeps only the active chunk's analyses alive.
    """
    ((home, trace),) = generate_home_fleet(
        1, n_zones=n_zones, n_days=n_days, seed=seed, start=index
    )
    config = StudyConfig(
        n_days=n_days,
        training_days=training_days,
        seed=seed,
        adm_params=params_for(ClusterBackend(backend)),
    )
    return ShatterAnalysis(
        home,
        trace,
        config,
        provenance=("fleet", index, n_zones, n_days, seed),
    )


def _run_chunk(
    start: int,
    stop: int,
    n_zones: int = 4,
    n_days: int = 4,
    training_days: int = 2,
    seed: int = 2023,
    backend: str = "kmeans",
    **_: object,
) -> list[tuple[float, int, int, int]]:
    """Batched SHATTER over homes ``start .. stop - 1``.

    Returns per-home ``(expected_reward, infeasible, substituted,
    spoofed_slots)`` in home order.
    """
    analyses = [
        _fleet_analysis(index, n_zones, n_days, training_days, seed, backend)
        for index in range(start, stop)
    ]
    schedules = shatter_attack_batch(analyses)
    rows: list[tuple[float, int, int, int]] = []
    for analysis, schedule in zip(analyses, schedules):
        spoofed = int(
            np.sum(schedule.spoofed_zone != analysis.eval.occupant_zone)
        )
        rows.append(
            (
                float(schedule.expected_reward),
                len(schedule.infeasible_days),
                len(schedule.substituted_days),
                spoofed,
            )
        )
    return rows


def _shards(params: dict) -> list[dict]:
    n_homes, chunk = params["n_homes"], params["chunk"]
    return [
        {"start": start, "stop": min(start + chunk, n_homes)}
        for start in range(0, n_homes, chunk)
    ]


def _merge(params: dict, shards: list[dict], parts: list) -> FleetAttackResult:
    rows = [row for part in parts for row in part]
    n_homes, n_days = params["n_homes"], params["n_days"]
    eval_days = n_days - params["training_days"]
    table_rows = [
        [
            f"home {index + 1}",
            f"{reward / eval_days:.3f}",
            f"{infeasible}",
            f"{substituted}",
            f"{spoofed}",
        ]
        for index, (reward, infeasible, substituted, spoofed) in enumerate(rows)
    ]
    table_rows.append(
        [
            "fleet total",
            f"{sum(row[0] for row in rows) / eval_days:.3f}",
            f"{sum(row[1] for row in rows)}",
            f"{sum(row[2] for row in rows)}",
            f"{sum(row[3] for row in rows)}",
        ]
    )
    rendered = format_table(
        f"Fleet attack sweep: {n_homes} homes x {params['n_zones']} zones, "
        f"{eval_days}-day SHATTER reward (batched DP)",
        ["home", "reward $/day", "infeasible", "substituted", "spoofed slots"],
        table_rows,
    )
    return FleetAttackResult(
        n_homes=n_homes,
        n_zones=params["n_zones"],
        n_days=n_days,
        expected_reward=[row[0] for row in rows],
        infeasible_days=[row[1] for row in rows],
        substituted_days=[row[2] for row in rows],
        spoofed_slots=[row[3] for row in rows],
        rendered=rendered,
    )


EXPERIMENT = register(
    Experiment(
        name="fleet_attack",
        artifact="Ext. Fleet Attack",
        title="fleet SHATTER sweep via batched schedule DP",
        render=lambda result: result.rendered,
        params=(
            Param("n_homes", 6),
            Param("n_zones", 4),
            Param("n_days", 4),
            Param("training_days", 2),
            Param("seed", 2023),
            Param("chunk", 3, "homes per shard"),
            Param("backend", "kmeans", "ADM backend for every home"),
        ),
        tags=frozenset({"sweep", "scaling", "extension", "attack"}),
        scale_days=lambda days: {
            "n_days": max(2, days),
            "training_days": max(1, max(2, days) // 2),
        },
        shards=_shards,
        run_shard=_run_chunk,
        merge=_merge,
    )
)


def run_fleet_attack(
    n_homes: int = 6,
    n_zones: int = 4,
    n_days: int = 4,
    training_days: int = 2,
    seed: int = 2023,
    chunk: int = 3,
    backend: str = "kmeans",
) -> FleetAttackResult:
    """Batched SHATTER impact across a synthetic home fleet."""
    return EXPERIMENT.execute(
        {
            "n_homes": n_homes,
            "n_zones": n_zones,
            "n_days": n_days,
            "training_days": training_days,
            "seed": seed,
            "chunk": chunk,
            "backend": backend,
        }
    )
