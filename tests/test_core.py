"""Integration tests for the ShatterAnalysis facade."""

import pytest

from repro.adm.cluster_model import AdmParams, ClusterBackend
from repro.attack.model import AttackerCapability
from repro.core.report import CostBreakdown, format_table
from repro.core.shatter import ShatterAnalysis, StudyConfig
from repro.dataset.splits import KnowledgeLevel
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def analysis():
    config = StudyConfig(n_days=10, training_days=7, seed=5)
    return ShatterAnalysis.for_house("A", config)


@pytest.fixture(scope="module")
def report(analysis):
    return analysis.run()


def test_report_cost_ordering(report):
    """The paper's headline ordering: benign < SHATTER < +triggering."""
    assert report.benign.total < report.shatter.total
    assert report.shatter.total < report.shatter_triggered.total


def test_shatter_beats_greedy_cost(report):
    assert report.shatter.total >= report.greedy.total


def test_biota_is_detected_shatter_is_not(report):
    """Table V's core asymmetry."""
    assert report.biota_flagged > 0.5
    assert report.shatter_flagged < 0.05


def test_triggering_gain_positive(report):
    assert report.trigger_count > 0
    assert report.triggering_gain > 0
    assert report.triggering_gain_percent > 0


def test_cost_breakdown_components(report):
    breakdown = report.benign
    # The battery discount applies once per day, so costing the HVAC and
    # appliance streams separately gives each its own allowance: the
    # parts can only undershoot the total, never exceed it.
    assert breakdown.hvac > 0
    assert breakdown.appliance > 0
    assert breakdown.hvac + breakdown.appliance <= breakdown.total + 1e-6
    assert len(breakdown.daily) == 3  # 10 - 7 evaluation days
    assert sum(breakdown.daily) == pytest.approx(breakdown.total, rel=1e-6)


def test_study_config_validation():
    with pytest.raises(ConfigurationError):
        StudyConfig(n_days=5, training_days=5)


def test_partial_knowledge_changes_attacker_adm():
    config = StudyConfig(
        n_days=10,
        training_days=7,
        seed=5,
        knowledge=KnowledgeLevel.PARTIAL_DATA,
    )
    partial = ShatterAnalysis.for_house("A", config)
    schedule = partial.shatter_attack()
    # The attacker's hulls are estimated from half the days, so the
    # schedule differs from the full-knowledge one.
    full = ShatterAnalysis.for_house(
        "A", StudyConfig(n_days=10, training_days=7, seed=5)
    )
    full_schedule = full.shatter_attack()
    assert schedule.expected_reward <= full_schedule.expected_reward + 1e-9
    # Seeing every training day, the attacker extracts exactly the
    # defender's rules: one shared fit.  Half the days need their own.
    assert full.attacker_adm is full.defender_adm
    assert partial.attacker_adm is not partial.defender_adm


def test_zone_capability_reduces_impact(analysis):
    full_report = analysis.run()
    limited = AttackerCapability.with_zones(
        analysis.home, [analysis.home.zone_id("Bathroom")]
    )
    limited_report = analysis.run(capability=limited)
    assert (
        limited_report.shatter_triggered.total
        <= full_report.shatter_triggered.total
    )


def test_kmeans_admits_higher_attack_impact():
    """Section VII-A: k-means' inflated hulls admit stronger attacks."""
    base = dict(n_days=10, training_days=7, seed=5)
    dbscan = ShatterAnalysis.for_house(
        "A",
        StudyConfig(**base, adm_params=AdmParams(backend=ClusterBackend.DBSCAN)),
    )
    kmeans = ShatterAnalysis.for_house(
        "A",
        StudyConfig(**base, adm_params=AdmParams(backend=ClusterBackend.KMEANS, k=6)),
    )
    dbscan_schedule = dbscan.shatter_attack()
    kmeans_schedule = kmeans.shatter_attack()
    assert (
        kmeans_schedule.expected_reward >= 0.9 * dbscan_schedule.expected_reward
    )


def test_format_table_renders():
    table = format_table(
        "Demo", ["a", "b"], [["x", 1.5], ["yy", 2.25]]
    )
    assert "Demo" in table
    assert "1.50" in table
    assert "yy" in table
