"""Robustness and edge-case coverage across the pipeline.

Exercises configurations outside the standard two-occupant ARAS homes:
custom single-occupant homes, minimal traces, hull-free ADMs, and
attackers with nothing to work with — the failure modes a downstream
user hits first.
"""

import numpy as np
import pytest

from repro.adm.cluster_model import AdmParams, ClusterADM
from repro.attack.biota import BiotaRules, biota_greedy_attack
from repro.attack.greedy import greedy_schedule
from repro.attack.model import AttackerCapability
from repro.attack.schedule import shatter_schedule
from repro.dataset.synthetic import (
    OccupantRoutines,
    Routine,
    RoutineStep,
    SyntheticConfig,
    generate_house_trace,
)
from repro.home.activities import default_activity_catalog
from repro.home.appliances import ApplianceCatalog, aras_appliance_catalog
from repro.home.builder import SmartHome
from repro.home.occupants import Occupant
from repro.home.state import HomeTrace
from repro.home.zones import aras_zone_layout
from repro.hvac.controller import DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import simulate


@pytest.fixture(scope="module")
def solo_home():
    """A custom single-occupant home built through the public API."""
    layout = aras_zone_layout(
        {"Bedroom": 900.0, "Livingroom": 1200.0, "Kitchen": 700.0, "Bathroom": 300.0}
    )
    return SmartHome(
        name="Solo Flat",
        layout=layout,
        occupants=[Occupant(0, "Solo", metabolic_factor=0.9)],
        appliances=aras_appliance_catalog(
            {zone.name: zone.zone_id for zone in layout if zone.conditioned}
        ),
    )


@pytest.fixture(scope="module")
def solo_trace(solo_home):
    routine = Routine(
        steps=[
            RoutineStep("Sleeping", 0, 430, 0.0, 12.0),
            RoutineStep("Having Breakfast", 440, 25, 8.0, 5.0),
            RoutineStep("Going Out", 480, 560, 10.0, 15.0),
            RoutineStep("Preparing Dinner", 1100, 40, 8.0, 6.0),
            RoutineStep("Watching TV", 1160, 110, 10.0, 12.0),
            RoutineStep("Sleeping", 1290, 150, 8.0, 8.0),
        ],
        filler_activity="Reading Book",
    )
    routines = {0: OccupantRoutines(weekday=routine, weekend=routine)}
    return generate_house_trace(
        solo_home,
        routines=routines,
        config=SyntheticConfig(n_days=8, seed=13),
    )


def test_single_occupant_pipeline(solo_home, solo_trace):
    """The whole stack works for homes the builders never made."""
    train = solo_trace.slice_slots(0, 6 * 1440)
    evaluation = solo_trace.slice_slots(6 * 1440, 8 * 1440)
    adm = ClusterADM(AdmParams(eps=40.0, min_pts=3, tolerance=20.0))
    adm.fit(train, solo_home.n_zones)
    capability = AttackerCapability.full_access(solo_home)
    pricing = TouPricing()
    schedule = shatter_schedule(
        solo_home, adm, capability, pricing, evaluation
    )
    assert schedule.expected_reward > 0
    benign = simulate(solo_home, evaluation, DemandControlledHVAC(solo_home))
    assert benign.hvac_kwh.sum() > 0


def test_greedy_on_single_occupant(solo_home, solo_trace):
    train = solo_trace.slice_slots(0, 6 * 1440)
    evaluation = solo_trace.slice_slots(6 * 1440, 8 * 1440)
    adm = ClusterADM(AdmParams(eps=40.0, min_pts=3, tolerance=20.0))
    adm.fit(train, solo_home.n_zones)
    schedule = greedy_schedule(
        solo_home,
        adm,
        AttackerCapability.full_access(solo_home),
        TouPricing(),
        evaluation,
    )
    assert schedule.spoofed_zone.shape == evaluation.occupant_zone.shape


def test_hull_free_adm_makes_attack_infeasible(solo_home, solo_trace):
    """An ADM trained on one day has almost no hulls; the scheduler
    degrades to reality instead of crashing."""
    train = solo_trace.slice_slots(0, 1440)
    evaluation = solo_trace.slice_slots(6 * 1440, 8 * 1440)
    adm = ClusterADM(AdmParams(eps=10.0, min_pts=10))  # hostile params
    adm.fit(train, solo_home.n_zones)
    schedule = shatter_schedule(
        solo_home,
        adm,
        AttackerCapability.full_access(solo_home),
        TouPricing(),
        evaluation,
    )
    assert schedule.expected_reward == 0.0
    assert np.array_equal(schedule.spoofed_zone, evaluation.occupant_zone)
    assert len(schedule.infeasible_days) == 2


def test_empty_capability_leaves_everything_alone(solo_home, solo_trace):
    evaluation = solo_trace.slice_slots(6 * 1440, 8 * 1440)
    train = solo_trace.slice_slots(0, 6 * 1440)
    adm = ClusterADM(AdmParams(eps=40.0, min_pts=3)).fit(
        train, solo_home.n_zones
    )
    nothing = AttackerCapability(
        zones=frozenset(), occupants=frozenset(), appliances=frozenset()
    )
    schedule = shatter_schedule(
        solo_home, adm, nothing, TouPricing(), evaluation
    )
    assert np.array_equal(schedule.spoofed_zone, evaluation.occupant_zone)
    assert schedule.expected_reward == 0.0


def test_slot_window_capability(solo_home, solo_trace):
    """An attacker limited to a slot window leaves other days alone."""
    evaluation = solo_trace.slice_slots(6 * 1440, 8 * 1440)
    train = solo_trace.slice_slots(0, 6 * 1440)
    adm = ClusterADM(AdmParams(eps=40.0, min_pts=3, tolerance=20.0)).fit(
        train, solo_home.n_zones
    )
    day_one_only = AttackerCapability(
        zones=frozenset(range(solo_home.n_zones)),
        occupants=frozenset({0}),
        appliances=frozenset(),
        slot_range=(0, 1440),
    )
    schedule = shatter_schedule(
        solo_home, adm, day_one_only, TouPricing(), evaluation
    )
    changed = schedule.spoofed_zone != evaluation.occupant_zone
    assert not changed[1440:].any()


def test_simulation_one_slot_trace(solo_home):
    trace = HomeTrace.empty(1, 1, solo_home.n_appliances)
    result = simulate(solo_home, trace, DemandControlledHVAC(solo_home))
    assert result.n_slots == 1


def test_empty_appliance_catalog_home():
    layout = aras_zone_layout(
        {"Bedroom": 900.0, "Livingroom": 1200.0, "Kitchen": 700.0, "Bathroom": 300.0}
    )
    home = SmartHome(
        name="Bare Home",
        layout=layout,
        occupants=[Occupant(0, "Solo")],
        appliances=ApplianceCatalog(appliances=[]),
        activities=default_activity_catalog(),
    )
    trace = HomeTrace.empty(1440, 1, 0)
    trace.occupant_zone[:, 0] = 1
    trace.occupant_activity[:, 0] = home.activities.by_name(
        "Sleeping"
    ).activity_id
    result = simulate(home, trace, DemandControlledHVAC(home))
    assert result.appliance_kwh.sum() == 0.0
    assert result.hvac_kwh.sum() > 0.0


def test_biota_rules_accept_a_zero_slot_trace(solo_home):
    """With no slots there is no rule to break (it used to raise on the
    empty ``max`` reduction)."""
    empty = HomeTrace.empty(0, 2, solo_home.n_appliances).occupant_zone
    rules = BiotaRules()
    assert rules.occupancy_consistent(empty, empty.copy()) is True
    assert rules.occupancy_consistent(empty, np.zeros((0, 3), dtype=int)) is False
    schedule = biota_greedy_attack(
        solo_home,
        AttackerCapability.full_access(solo_home),
        TouPricing(),
        HomeTrace.empty(0, 1, solo_home.n_appliances),
    )
    assert schedule.spoofed_zone.shape == (0, 1)
    assert rules.occupancy_consistent(
        schedule.spoofed_zone, schedule.spoofed_zone
    )
