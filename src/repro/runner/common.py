"""Shared helpers for the experiment registry.

These used to be private functions of the ``analysis.experiments``
monolith; every per-artifact module under :mod:`repro.runner.experiments`
now imports them from here.  The two hot paths — synthetic trace
generation and ADM fitting — are memoized through
:mod:`repro.runner.cache`, which is what lets a full suite run stop
regenerating identical traces ~10x.
"""

from __future__ import annotations

import numpy as np

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.adm.metrics import BinaryMetrics, binary_metrics
from repro.attack.biota import biota_attack_samples
from repro.core.shatter import ShatterAnalysis, StudyConfig
from repro.dataset.splits import KnowledgeLevel, split_days
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace
from repro.home.builder import SmartHome, build_house_a, build_house_b
from repro.home.state import HomeTrace
from repro.hvac.pricing import TouPricing
from repro.runner.cache import adm_params_token, get_cache

# The paper's four datasets: (house, occupant) pairs.
DATASET_NAMES = {
    "HAO1": ("A", 0),
    "HAO2": ("A", 1),
    "HBO1": ("B", 0),
    "HBO2": ("B", 1),
}

_BUILDERS = {"A": build_house_a, "B": build_house_b}

# Standard experiment hyperparameters.  DBSCAN drops noise points and
# keeps tight hulls; k-means (no noise concept) wraps every sample, so
# its hulls cover several times the area — the Section VII-A regime.
DBSCAN_PARAMS = AdmParams(
    backend=ClusterBackend.DBSCAN, eps=40.0, min_pts=4, tolerance=20.0
)
KMEANS_PARAMS = AdmParams(backend=ClusterBackend.KMEANS, k=4, tolerance=20.0)


def params_for(backend: ClusterBackend) -> AdmParams:
    """The standard ADM hyperparameters for a backend."""
    if backend is ClusterBackend.DBSCAN:
        return DBSCAN_PARAMS
    return KMEANS_PARAMS


def build_home(house: str) -> SmartHome:
    return _BUILDERS[house]()


def house_trace(house: str, n_days: int, seed: int) -> tuple[SmartHome, HomeTrace]:
    """The standard synthetic trace for a house, memoized by
    ``(house, n_days, seed)``.

    Homes are rebuilt each call (cheap, and builders are pure); traces
    come back as defensive copies of the cache entry.
    """
    home = build_home(house)
    cache = get_cache()
    trace = cache.get_trace(house, n_days, seed)
    if trace is None:
        trace = generate_house_trace(
            home, house=house, config=SyntheticConfig(n_days=n_days, seed=seed)
        )
        cache.put_trace(house, n_days, seed, trace)
    return home, trace


def fitted_adm(
    train: HomeTrace,
    n_zones: int,
    params: AdmParams,
    cache_token: tuple | None = None,
) -> ClusterADM:
    """Fit (or fetch) a cluster ADM.

    ``cache_token`` names the training data's provenance — e.g.
    ``("house-full", house, n_days, seed)`` for a whole trace — so the
    cache key is content-determined without hashing the trace itself.
    Pass ``None`` for ad-hoc training data that should never be cached.
    """
    if cache_token is None:
        return ClusterADM(params).fit(train, n_zones)
    token = cache_token + adm_params_token(params)
    cache = get_cache()
    adm = cache.get_adm(token)
    if adm is None:
        adm = ClusterADM(params).fit(train, n_zones)
        cache.put_adm(token, adm)
    return adm


def evaluate_adm_on_attacked(
    adm: ClusterADM,
    reported: HomeTrace,
    labels: np.ndarray,
    occupant_id: int,
) -> BinaryMetrics:
    """Visit-level detection metrics against labelled attacked data.

    A visit of ``occupant_id`` counts as attacked (positive) when any of
    its slots was falsified; the ADM's prediction is its hull-membership
    flag from :meth:`ClusterADM.flag_visits`.
    """
    y_true, y_pred = [], []
    for visit, anomalous in adm.flag_visits(reported):
        if visit.occupant_id != occupant_id:
            continue
        day_base = visit.day * 1440
        window = labels[
            day_base + visit.arrival : day_base + visit.arrival + visit.stay,
            visit.occupant_id,
        ]
        y_true.append(bool(window.any()))
        y_pred.append(anomalous)
    return binary_metrics(np.array(y_true), np.array(y_pred))


def dataset_metrics(
    dataset: str,
    backend: ClusterBackend,
    knowledge: KnowledgeLevel,
    n_days: int,
    training_days: int,
    seed: int,
) -> BinaryMetrics:
    """Detection metrics for one (dataset, ADM, knowledge) cell of
    Fig. 5 / Table IV."""
    house, occupant = DATASET_NAMES[dataset]
    home, trace = house_trace(house, n_days, seed)
    train, _ = split_days(trace, training_days)
    observed = train
    if knowledge is KnowledgeLevel.PARTIAL_DATA:
        # The attacker generating the samples saw only half the days.
        kept = [train.day(d) for d in range(0, train.n_days, 2)]
        observed = HomeTrace(
            occupant_zone=np.concatenate([d.occupant_zone for d in kept]),
            occupant_activity=np.concatenate([d.occupant_activity for d in kept]),
            appliance_status=np.concatenate([d.appliance_status for d in kept]),
        )
    # The defender's ADM, under the token ShatterAnalysis fits it with
    # (provenance + role), so Fig. 5, Tab. IV and the attack tables
    # share one fit of the same training prefix.
    adm = fitted_adm(
        train,
        home.n_zones,
        params_for(backend),
        cache_token=("house", house, n_days, seed, "defender", training_days),
    )
    # The paper injects BIoTA attack windows into the dataset itself —
    # its quoted attack ratios (12.4% for HAO1 at 10 days, etc.) are
    # relative to the training window — so scoring happens on the
    # attacked training stream.
    reported, labels = biota_attack_samples(home, observed, TouPricing(), seed=seed)
    return evaluate_adm_on_attacked(adm, reported, labels, occupant)


def _study_token(house: str, config: StudyConfig) -> tuple:
    return (
        house,
        config.n_days,
        config.training_days,
        config.seed,
        adm_params_token(config.adm_params),
        config.knowledge.value,
        repr(config.schedule_config),
        repr(config.controller_config),
        repr(config.pricing),
    )


def analysis_for_house(house: str, config: StudyConfig) -> ShatterAnalysis:
    """A :class:`ShatterAnalysis`, reusing the cached trace and — within
    a process — the fully-constructed analysis object.

    Several experiments (Tab. III, V, VI, VII, Fig. 10) build the exact
    same pipeline; memoizing the object skips both the trace generation
    and the two ADM fits on every reuse.  Analysis methods are read-only
    with respect to the object, so sharing is safe.

    The trace provenance is forwarded to :class:`ShatterAnalysis`, which
    routes its defender/attacker ADM fits through the cache's ADM tier —
    so even a *fresh* process with a warm disk cache skips the fits.
    """
    cache = get_cache()
    token = _study_token(house, config)
    analysis = cache.get_analysis(token)
    if analysis is None:
        home, trace = house_trace(house, config.n_days, config.seed)
        analysis = ShatterAnalysis(
            home,
            trace,
            config,
            provenance=("house", house, config.n_days, config.seed),
        )
        cache.put_analysis(token, analysis)
    return analysis


def triggering_impact(analysis: ShatterAnalysis, capability) -> float:
    """Attack-added dollars of the full attack under a capability."""
    pricing = analysis.config.pricing
    schedule = analysis.shatter_attack(capability)
    outcome = analysis.execute(schedule, capability, enable_triggering=True)
    benign = analysis.benign_result().cost(pricing)
    return outcome.cost(pricing) - benign
