"""Fig. 6 — cluster inventory (HAO1), sharded by clustering backend."""

from __future__ import annotations

from dataclasses import dataclass

from repro.adm.cluster_model import ClusterBackend
from repro.core.report import format_table
from repro.runner.common import fitted_adm, house_trace, params_for
from repro.runner.registry import Experiment, Param, register


@dataclass
class Fig6Result:
    backend: str
    clusters_per_zone: dict[str, int]
    hull_area_per_zone: dict[str, float]
    total_area: float
    rendered: str = ""


def _run_backend(backend: str, n_days: int = 10, seed: int = 2023) -> Fig6Result:
    home, trace = house_trace("A", n_days, seed)
    adm = fitted_adm(
        trace,
        home.n_zones,
        params_for(ClusterBackend(backend)),
        cache_token=("house-full", "A", n_days, seed),
    )
    clusters: dict[str, int] = {}
    areas: dict[str, float] = {}
    for zone in home.layout:
        hulls = adm.hulls(0, zone.zone_id)
        clusters[zone.name] = len(hulls)
        areas[zone.name] = float(sum(hull.area() for hull in hulls))
    total = sum(areas.values())
    rendered = format_table(
        f"Fig. 6 ({backend}): HAO1 clusters per zone",
        ["Zone", "Clusters", "Hull area (min^2)"],
        [[name, clusters[name], areas[name]] for name in clusters],
    )
    return Fig6Result(
        backend=backend,
        clusters_per_zone=clusters,
        hull_area_per_zone=areas,
        total_area=total,
        rendered=rendered,
    )


def _shards(params: dict) -> list[dict]:
    return [{"backend": "dbscan"}, {"backend": "kmeans"}]


def _merge(params: dict, shards: list[dict], parts: list) -> list[Fig6Result]:
    return list(parts)


EXPERIMENT = register(
    Experiment(
        name="fig6",
        artifact="Fig. 6",
        title="cluster inventory, DBSCAN vs k-means",
        render=lambda results: "\n\n".join(r.rendered for r in results),
        params=(Param("n_days", 10), Param("seed", 2023)),
        tags=frozenset({"figure", "adm", "geometry"}),
        scale_days=lambda days: {"n_days": days},
        shards=_shards,
        run_shard=_run_backend,
        merge=_merge,
    )
)


def run_fig6(n_days: int = 10, seed: int = 2023) -> list[Fig6Result]:
    """Cluster inventory behind Fig. 6 (HAO1): counts and hull areas.

    The paper's qualitative claim — k-means hulls cover a larger area
    than DBSCAN's because every sample is clustered — becomes a
    quantitative comparison of total hull area here.
    """
    return EXPERIMENT.execute({"n_days": n_days, "seed": seed})
