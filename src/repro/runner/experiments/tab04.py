"""Table IV — ADM comparison, sharded by (backend, knowledge, dataset)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.cluster_model import ClusterBackend
from repro.adm.metrics import BinaryMetrics
from repro.core.report import format_table
from repro.dataset.splits import KnowledgeLevel
from repro.runner.common import DATASET_NAMES, dataset_metrics
from repro.runner.registry import Experiment, Param, register

_BACKENDS = (ClusterBackend.DBSCAN, ClusterBackend.KMEANS)
_KNOWLEDGE = (KnowledgeLevel.ALL_DATA, KnowledgeLevel.PARTIAL_DATA)


@dataclass
class Tab4Row:
    adm: str
    knowledge: str
    dataset: str
    metrics: BinaryMetrics


@dataclass
class Tab4Result:
    rows: list[Tab4Row]
    rendered: str = ""


def _run_cell(
    backend: str,
    knowledge: str,
    dataset: str,
    n_days: int = 14,
    training_days: int = 10,
    seed: int = 2023,
) -> BinaryMetrics:
    return dataset_metrics(
        dataset,
        ClusterBackend(backend),
        KnowledgeLevel(knowledge),
        n_days,
        training_days,
        seed,
    )


def _shards(params: dict) -> list[dict]:
    return [
        {
            "backend": backend.value,
            "knowledge": knowledge.value,
            "dataset": dataset,
        }
        for backend in _BACKENDS
        for knowledge in _KNOWLEDGE
        for dataset in DATASET_NAMES
    ]


def _merge(params: dict, shards: list[dict], parts: list) -> Tab4Result:
    rows = [
        Tab4Row(
            adm=shard["backend"],
            knowledge=shard["knowledge"],
            dataset=shard["dataset"],
            metrics=metrics,
        )
        for shard, metrics in zip(shards, parts)
    ]
    rendered = format_table(
        "Table IV: ADM comparison on BIoTA attack samples",
        ["ADM", "Knowledge", "Dataset", "Accuracy", "Precision", "Recall", "F1"],
        [
            [
                row.adm,
                row.knowledge,
                row.dataset,
                row.metrics.accuracy,
                row.metrics.precision,
                row.metrics.recall,
                row.metrics.f1,
            ]
            for row in rows
        ],
    )
    return Tab4Result(rows=rows, rendered=rendered)


EXPERIMENT = register(
    Experiment(
        name="tab4",
        artifact="Table IV",
        title="ADM detection comparison",
        render=lambda result: result.rendered,
        params=(
            Param("n_days", 14),
            Param("training_days", 10),
            Param("seed", 2023),
        ),
        tags=frozenset({"table", "adm", "detection", "sweep"}),
        scale_days=lambda days: {"n_days": days, "training_days": days - 4},
        shards=_shards,
        run_shard=_run_cell,
        merge=_merge,
    )
)


def run_tab4(n_days: int = 14, training_days: int = 10, seed: int = 2023) -> Tab4Result:
    """Accuracy/precision/recall/F1 for both ADMs and knowledge levels."""
    return EXPERIMENT.execute(
        {"n_days": n_days, "training_days": training_days, "seed": seed}
    )
