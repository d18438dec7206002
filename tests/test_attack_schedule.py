"""Tests for SHATTER schedule synthesis, greedy baseline, and stealth."""

import numpy as np
import pytest

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.attack.greedy import greedy_schedule
from repro.attack.model import AttackerCapability
from repro.attack.schedule import (
    ScheduleConfig,
    ScheduleJob,
    _shatter_schedule_reference,
    shatter_schedule,
)
from repro.attack.stealth import (
    anomalous_visit_fraction,
    occupant_count_preserved,
    schedule_is_stealthy,
)
from repro.dataset.splits import split_days
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace
from repro.errors import AttackError
from repro.home.builder import build_house_a
from repro.hvac.pricing import TouPricing


@pytest.fixture(scope="module")
def setup():
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=12, seed=21)
    )
    train, test = split_days(trace, 9)
    adm = ClusterADM(AdmParams(backend=ClusterBackend.DBSCAN, eps=40.0, min_pts=4))
    adm.fit(train, home.n_zones)
    return home, adm, train, test


@pytest.fixture(scope="module")
def schedules(setup):
    home, adm, _, test = setup
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    shatter = shatter_schedule(home, adm, capability, pricing, test)
    greedy = greedy_schedule(home, adm, capability, pricing, test)
    return shatter, greedy


def test_shatter_schedule_is_stealthy(schedules, setup):
    home, adm, _, _ = setup
    shatter, _ = schedules
    if not shatter.infeasible_days:
        assert schedule_is_stealthy(
            adm, shatter.spoofed_zone, shatter.spoofed_activity
        )


def test_shatter_beats_greedy(schedules):
    shatter, greedy = schedules
    assert shatter.expected_reward > greedy.expected_reward


def test_greedy_is_mostly_stealthy(schedules, setup):
    """Greedy stays inside hulls except at its dead ends (Section V)."""
    home, adm, _, _ = setup
    _, greedy = schedules
    fraction = anomalous_visit_fraction(
        adm, greedy.spoofed_zone, greedy.spoofed_activity
    )
    assert fraction < 0.5


def test_every_slot_has_exactly_one_zone(schedules, setup):
    home, _, _, test = setup
    shatter, _ = schedules
    assert shatter.spoofed_zone.shape == test.occupant_zone.shape
    assert occupant_count_preserved(shatter.spoofed_zone, test.occupant_zone)
    assert (shatter.spoofed_zone >= 0).all()
    assert (shatter.spoofed_zone < home.n_zones).all()


def test_spoofed_activity_matches_zone(schedules, setup):
    home, _, _, _ = setup
    shatter, _ = schedules
    for t in range(0, shatter.spoofed_zone.shape[0], 131):
        for occupant in range(shatter.spoofed_zone.shape[1]):
            zone = int(shatter.spoofed_zone[t, occupant])
            activity = int(shatter.spoofed_activity[t, occupant])
            assert home.activity_zone_id(activity) == zone


def test_longer_window_never_hurts(setup):
    home, adm, _, test = setup
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    day = test.slice_slots(0, 1440)
    short = shatter_schedule(
        home, adm, capability, pricing, day, config=ScheduleConfig(window=5)
    )
    long = shatter_schedule(
        home, adm, capability, pricing, day, config=ScheduleConfig(window=30)
    )
    assert long.expected_reward >= short.expected_reward - 1e-9


def test_exhaustive_engine_matches_dp(setup):
    home, adm, _, test = setup
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    day = test.slice_slots(0, 1440)
    dp = shatter_schedule(
        home, adm, capability, pricing, day, config=ScheduleConfig(window=6)
    )
    exhaustive = _shatter_schedule_reference(
        ScheduleJob(
            home, adm, capability, pricing, day, config=ScheduleConfig(window=6)
        ),
        exhaustive=True,
    )
    assert dp.expected_reward == pytest.approx(exhaustive.expected_reward)
    assert np.array_equal(dp.spoofed_zone, exhaustive.spoofed_zone)


def test_inaccessible_occupant_is_untouched(setup):
    home, adm, _, test = setup
    capability = AttackerCapability(
        zones=frozenset(range(home.n_zones)),
        occupants=frozenset({0}),
        appliances=frozenset(),
    )
    schedule = shatter_schedule(
        home, adm, capability, TouPricing(), test
    )
    assert np.array_equal(
        schedule.spoofed_zone[:, 1], test.occupant_zone[:, 1]
    )
    assert not np.array_equal(
        schedule.spoofed_zone[:, 0], test.occupant_zone[:, 0]
    )


def test_zone_restricted_schedule_only_uses_accessible_zones(setup):
    home, adm, _, test = setup
    kitchen = home.zone_id("Kitchen")
    capability = AttackerCapability.with_zones(home, [kitchen])
    schedule = shatter_schedule(home, adm, capability, TouPricing(), test)
    changed = schedule.spoofed_zone != test.occupant_zone
    spoofed_zones = set(schedule.spoofed_zone[changed].tolist())
    assert spoofed_zones.issubset({0, kitchen})


def test_restricted_zones_lower_reward(setup):
    home, adm, _, test = setup
    pricing = TouPricing()
    full = shatter_schedule(
        home, adm, AttackerCapability.full_access(home), pricing, test
    )
    limited = shatter_schedule(
        home,
        adm,
        AttackerCapability.with_zones(home, [home.zone_id("Bathroom")]),
        pricing,
        test,
    )
    assert limited.expected_reward < full.expected_reward


def test_partial_day_trace_rejected(setup):
    home, adm, _, test = setup
    with pytest.raises(AttackError):
        shatter_schedule(
            home,
            adm,
            AttackerCapability.full_access(home),
            TouPricing(),
            test.slice_slots(0, 100),
        )


def test_schedule_config_validation():
    with pytest.raises(AttackError):
        ScheduleConfig(window=0)
    with pytest.raises(AttackError):
        ScheduleConfig(beam_width=0)


def test_peak_pricing_steers_schedule(setup):
    """The scheduler prefers expensive slots: peak-hour occupancy of
    conditioned zones should be at least as rich as under a flat tariff."""
    home, adm, _, test = setup
    capability = AttackerCapability.full_access(home)
    day = test.slice_slots(0, 1440)
    peaked = shatter_schedule(
        home,
        adm,
        capability,
        TouPricing(off_peak_rate=0.1, peak_rate=1.0),
        day,
    )
    flat = shatter_schedule(
        home,
        adm,
        capability,
        TouPricing(off_peak_rate=0.5, peak_rate=0.5),
        day,
    )
    def peak_occupancy(schedule):
        window = schedule.spoofed_zone[16 * 60 : 21 * 60]
        return int((window != 0).sum())
    assert peak_occupancy(peaked) >= peak_occupancy(flat) - 30
