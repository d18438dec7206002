"""Fig. 4 — ADM hyperparameter tuning sweeps, sharded by backend."""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.tuning import SweepPoint, sweep_dbscan_min_pts, sweep_kmeans_k
from repro.core.report import format_series
from repro.runner.common import house_trace
from repro.runner.registry import Experiment, Param, register


@dataclass
class Fig4Result:
    dbscan: list[SweepPoint]
    kmeans: list[SweepPoint]
    rendered: str = ""


def _run_sweep(
    sweep: str,
    n_days: int = 8,
    seed: int = 2023,
    min_pts_values: list[int] | None = None,
    k_values: list[int] | None = None,
) -> list[SweepPoint]:
    home, trace = house_trace("A", n_days, seed)
    if sweep == "dbscan":
        return sweep_dbscan_min_pts(
            trace,
            home.n_zones,
            min_pts_values=min_pts_values or [2, 4, 6, 8, 12, 16, 24, 32],
        )
    return sweep_kmeans_k(
        trace, home.n_zones, k_values=k_values or [2, 4, 6, 8, 12, 16]
    )


def _shards(params: dict) -> list[dict]:
    return [{"sweep": "dbscan"}, {"sweep": "kmeans"}]


def _merge(params: dict, shards: list[dict], parts: list) -> Fig4Result:
    dbscan, kmeans = parts
    rendered = "\n\n".join(
        [
            format_series(
                "Fig. 4(a): DBSCAN hyperparameter sweep (HAO1)",
                [p.value for p in dbscan],
                {
                    "DBI": [p.davies_bouldin for p in dbscan],
                    "Silhouette": [p.silhouette for p in dbscan],
                    "CHI": [p.calinski_harabasz for p in dbscan],
                },
            ),
            format_series(
                "Fig. 4(b): k-means hyperparameter sweep (HAO1)",
                [p.value for p in kmeans],
                {
                    "DBI": [p.davies_bouldin for p in kmeans],
                    "Silhouette": [p.silhouette for p in kmeans],
                    "CHI": [p.calinski_harabasz for p in kmeans],
                },
            ),
        ]
    )
    return Fig4Result(dbscan=dbscan, kmeans=kmeans, rendered=rendered)


EXPERIMENT = register(
    Experiment(
        name="fig4",
        artifact="Fig. 4",
        title="ADM hyperparameter tuning sweeps",
        render=lambda result: result.rendered,
        params=(
            Param("n_days", 8),
            Param("seed", 2023),
            Param("min_pts_values", None),
            Param("k_values", None),
        ),
        tags=frozenset({"figure", "adm", "sweep"}),
        scale_days=lambda days: {"n_days": days},
        shards=_shards,
        run_shard=_run_sweep,
        merge=_merge,
    )
)


def run_fig4(
    n_days: int = 8,
    seed: int = 2023,
    min_pts_values: list[int] | None = None,
    k_values: list[int] | None = None,
) -> Fig4Result:
    """DBI / Silhouette / CHI sweeps for DBSCAN minPts and k-means k."""
    return EXPERIMENT.execute(
        {
            "n_days": n_days,
            "seed": seed,
            "min_pts_values": min_pts_values,
            "k_values": k_values,
        }
    )
