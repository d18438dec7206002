"""Tests for the experiment runners (small horizons).

These validate the *shape* assertions each paper artifact rests on, so
regressions in the pipeline surface here before the benchmark run.
"""

import numpy as np
import pytest

from repro.runner.common import DATASET_NAMES
from repro.runner.experiments import (
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig10,
    run_fig11_horizon,
    run_fig11_zones,
    run_sec6,
    run_tab3,
    run_tab4,
    run_tab5,
    run_tab6,
    run_tab7,
)


def test_dataset_names_cover_both_houses():
    houses = {house for house, _ in DATASET_NAMES.values()}
    assert houses == {"A", "B"}
    assert len(DATASET_NAMES) == 4


def test_fig3_shape():
    results = run_fig3(n_days=3, seed=1)
    assert [r.house for r in results] == ["A", "B"]
    for result in results:
        assert len(result.ashrae_daily) == 3
        assert result.savings_percent > 0
        assert "Fig. 3" in result.rendered


def test_fig4_shape():
    result = run_fig4(n_days=5, min_pts_values=[3, 6], k_values=[2, 4])
    assert len(result.dbscan) == 2
    assert len(result.kmeans) == 2
    assert "DBSCAN" in result.rendered


def test_fig5_shape():
    results = run_fig5(n_days=8, training_day_values=[4, 6], seed=3)
    assert len(results) == 2
    for result in results:
        assert set(result.f1_by_dataset.keys()) == set(DATASET_NAMES)
        for scores in result.f1_by_dataset.values():
            assert len(scores) == 2
            assert all(0.0 <= s <= 100.0 for s in scores)


def test_fig6_kmeans_area_dominates():
    results = run_fig6(n_days=8, seed=3)
    by_backend = {r.backend: r for r in results}
    assert by_backend["kmeans"].total_area > by_backend["dbscan"].total_area
    for result in results:
        assert set(result.clusters_per_zone) == {
            "Outside",
            "Bedroom",
            "Livingroom",
            "Kitchen",
            "Bathroom",
        }


@pytest.mark.slow
def test_tab3_structure():
    result = run_tab3(n_days=8, training_days=5, seed=3)
    assert result.actual.shape == (10, 2)
    assert result.greedy.shape == (10, 2)
    assert result.shatter.shape == (10, 2)
    assert len(result.stay_ranges[0]) == 10
    assert result.trigger_status.shape == (10, 2)
    assert "Table III" in result.rendered


def test_tab4_structure():
    result = run_tab4(n_days=8, training_days=6, seed=3)
    assert len(result.rows) == 16
    for row in result.rows:
        assert 0.0 <= row.metrics.accuracy <= 1.0
        assert 0.0 <= row.metrics.f1 <= 1.0


@pytest.mark.slow
def test_tab5_orderings():
    result = run_tab5(n_days=6, training_days=4, seed=3)
    assert len(result.reports) == 8
    for report in result.reports.values():
        assert report.biota.total > report.benign.total
        assert report.biota_flagged > 0.5
        assert report.shatter_flagged < 0.3


@pytest.mark.slow
def test_fig10_triggering_gain():
    results = run_fig10(n_days=6, training_days=4, seed=3)
    assert [r.house for r in results] == ["A", "B"]
    for result in results:
        assert result.with_trigger_daily.sum() >= result.without_trigger_daily.sum()


@pytest.mark.slow
def test_tab6_monotone_zone_access():
    result = run_tab6(n_days=6, training_days=4, seed=3)
    impacts = {label: (a, b) for label, a, b in result.rows}
    assert impacts["4 zones"][0] >= impacts["2 zones"][0] - 0.5


@pytest.mark.slow
def test_tab7_gentle_appliance_degradation():
    result = run_tab7(n_days=6, training_days=4, seed=3)
    impacts = {label: (a, b) for label, a, b in result.rows}
    assert impacts["13 appliances"][0] >= impacts["3 appliances"][0] - 0.5


def test_sec6_increase():
    outcome = run_sec6(n_minutes=30)
    assert outcome.increase_percent > 10.0
    assert outcome.regression_error < 0.02


def test_fig11_horizon_superlinear():
    result = run_fig11_horizon(horizons=[3, 5, 7])
    for series in result.seconds.values():
        assert series[-1] > series[0]


@pytest.mark.slow
def test_fig11_zones_grows():
    result = run_fig11_zones(zone_counts=[4, 8], n_days=4)
    series = result.seconds["Scaled home"]
    assert len(series) == 2
    assert min(series) > 0
