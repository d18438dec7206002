"""Table V — attack impact comparison, sharded by (house, ADM, knowledge)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.cluster_model import ClusterBackend
from repro.core.report import AttackReport, format_table
from repro.core.shatter import StudyConfig
from repro.dataset.splits import KnowledgeLevel
from repro.runner.common import analysis_for_house, params_for
from repro.runner.registry import Experiment, Param, register

_BACKENDS = (ClusterBackend.DBSCAN, ClusterBackend.KMEANS)
_KNOWLEDGE = (KnowledgeLevel.ALL_DATA, KnowledgeLevel.PARTIAL_DATA)


@dataclass
class Tab5Result:
    reports: dict[tuple[str, str, str], AttackReport]
    rendered: str = ""


def _run_cell(
    house: str,
    backend: str,
    knowledge: str,
    n_days: int = 12,
    training_days: int = 9,
    seed: int = 2023,
) -> AttackReport:
    config = StudyConfig(
        n_days=n_days,
        training_days=training_days,
        seed=seed,
        adm_params=params_for(ClusterBackend(backend)),
        knowledge=KnowledgeLevel(knowledge),
    )
    return analysis_for_house(house, config).run()


def _shards(params: dict) -> list[dict]:
    return [
        {
            "house": house,
            "backend": backend.value,
            "knowledge": knowledge.value,
        }
        for house in ("A", "B")
        for backend in _BACKENDS
        for knowledge in _KNOWLEDGE
    ]


def _merge(params: dict, shards: list[dict], parts: list) -> Tab5Result:
    reports: dict[tuple[str, str, str], AttackReport] = {}
    rows = []
    for shard, report in zip(shards, parts):
        key = (shard["house"], shard["backend"], shard["knowledge"])
        reports[key] = report
        rows.append(
            [
                *key,
                report.benign.total,
                report.biota.total,
                report.greedy.total,
                report.shatter.total,
                report.biota_flagged,
                report.shatter_flagged,
            ]
        )
    rendered = format_table(
        "Table V: attack cost ($) and detection, by framework",
        [
            "House",
            "ADM",
            "Knowledge",
            "Benign",
            "BIoTA",
            "Greedy",
            "SHATTER",
            "BIoTA flagged",
            "SHATTER flagged",
        ],
        rows,
    )
    return Tab5Result(reports=reports, rendered=rendered)


EXPERIMENT = register(
    Experiment(
        name="tab5",
        artifact="Table V",
        title="attack impact comparison",
        render=lambda result: result.rendered,
        params=(
            Param("n_days", 12),
            Param("training_days", 9),
            Param("seed", 2023),
        ),
        tags=frozenset({"table", "attack", "cost", "sweep"}),
        scale_days=lambda days: {"n_days": days, "training_days": days - 3},
        shards=_shards,
        run_shard=_run_cell,
        merge=_merge,
    )
)


def run_tab5(n_days: int = 12, training_days: int = 9, seed: int = 2023) -> Tab5Result:
    """BIoTA vs greedy vs SHATTER energy cost, both houses and ADMs."""
    return EXPERIMENT.execute(
        {"n_days": n_days, "training_days": training_days, "seed": seed}
    )
