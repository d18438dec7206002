"""Fig. 5 — progressive F1 vs training days, sharded by (backend, dataset)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.cluster_model import ClusterBackend
from repro.core.report import format_series
from repro.dataset.splits import KnowledgeLevel
from repro.runner.common import DATASET_NAMES, dataset_metrics
from repro.runner.registry import Experiment, Param, register

_BACKENDS = (ClusterBackend.DBSCAN, ClusterBackend.KMEANS)


@dataclass
class Fig5Result:
    backend: str
    training_days: list[int]
    f1_by_dataset: dict[str, list[float]]
    rendered: str = ""


def _run_cell(
    backend: str,
    dataset: str,
    n_days: int,
    training_day_values: list[int],
    seed: int,
) -> list[float]:
    """F1 scores over the training-day sweep for one (backend, dataset)."""
    scores = []
    for days in training_day_values:
        metrics = dataset_metrics(
            dataset,
            ClusterBackend(backend),
            KnowledgeLevel.ALL_DATA,
            n_days,
            days,
            seed,
        )
        scores.append(100.0 * metrics.f1)
    return scores


def _shards(params: dict) -> list[dict]:
    return [
        {"backend": backend.value, "dataset": dataset}
        for backend in _BACKENDS
        for dataset in DATASET_NAMES
    ]


def _merge(params: dict, shards: list[dict], parts: list) -> list[Fig5Result]:
    values = list(params["training_day_values"])
    by_cell = {
        (shard["backend"], shard["dataset"]): part
        for shard, part in zip(shards, parts)
    }
    results = []
    for backend in _BACKENDS:
        f1_by_dataset = {
            dataset: by_cell[(backend.value, dataset)]
            for dataset in DATASET_NAMES
        }
        rendered = format_series(
            f"Fig. 5 ({backend.value}): F1 (%) vs training days",
            values,
            f1_by_dataset,
        )
        results.append(
            Fig5Result(
                backend=backend.value,
                training_days=values,
                f1_by_dataset=f1_by_dataset,
                rendered=rendered,
            )
        )
    return results


EXPERIMENT = register(
    Experiment(
        name="fig5",
        artifact="Fig. 5",
        title="progressive F1 vs training days",
        render=lambda results: "\n\n".join(r.rendered for r in results),
        params=(
            Param("n_days", 14),
            Param("training_day_values", [6, 8, 10, 12]),
            Param("seed", 2023),
        ),
        tags=frozenset({"figure", "adm", "detection", "sweep"}),
        scale_days=lambda days: {
            "n_days": days,
            "training_day_values": [
                max(2, days // 2),
                max(3, days // 2 + 2),
                days - 2,
            ],
        },
        shards=_shards,
        run_shard=_run_cell,
        merge=_merge,
    )
)


def run_fig5(
    n_days: int = 14,
    training_day_values: list[int] | None = None,
    seed: int = 2023,
) -> list[Fig5Result]:
    """Progressive F1 for both ADMs over the four datasets.

    ``training_day_values=None`` runs the experiment's default sweep,
    which :meth:`Experiment.resolve` checks against ``n_days`` like an
    explicit one.
    """
    params: dict = {"n_days": n_days, "seed": seed}
    if training_day_values is not None:
        params["training_day_values"] = training_day_values
    return EXPERIMENT.execute(params)
