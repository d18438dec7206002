"""Equivalence property tests: vectorized kernels vs scalar references.

Every hot-path array program introduced by the kernel layer — batched
hull containment, stay-range tables, the table-driven schedule DP, the
array-native simulation and attack execution — must reproduce its scalar reference
*bit for bit* on randomized inputs.  These tests are the contract that
keeps the fast paths honest; the scalar implementations stay importable
exactly so they can serve as the oracle here (and in Fig. 11's
exhaustive-engine study).

Randomization is seed-parameterized (hypothesis-style: fixed seeds,
exhaustive exact-equality checks per draw) so failures replay
deterministically.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.attack.model import AttackerCapability
from repro.attack.realtime import execute_attack, execute_attack_reference
from repro.attack.schedule import (
    ScheduleConfig,
    ScheduleJob,
    _StealthOracle,
    occupant_reward_table,
    shatter_schedule,
    shatter_schedule_batch,
    stealth_oracle,
)
from repro.dataset.splits import split_days
from repro.dataset.synthetic import (
    SyntheticConfig,
    generate_home_fleet,
    generate_house_trace,
)
from repro.geometry import (
    point_in_hull,
    points_in_hulls,
    quickhull,
    stay_range_table,
    union_stay_ranges,
)
from repro.home.builder import build_house_a, build_house_b
from repro.hvac.ashrae import AshraeController
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.errors import AttackError, ControlError
from repro.events import ATTACK_EXECUTE, GEOMETRY, SIMULATION, collect_events
from repro.runner.cache import get_cache
from repro.hvac.simulation import (
    OutdoorConditions,
    SimulationJob,
    _STACK_THRESHOLD,
    _simulate_stacked,
    appliance_gain_tables,
    occupant_gain_matrices,
    plant_response,
    simulate,
    simulate_batch,
    simulate_reference,
)

_SIM_FIELDS = (
    "airflow_cfm",
    "co2_ppm",
    "temperature_f",
    "hvac_kwh",
    "appliance_kwh",
)


def _random_hulls(rng: np.random.Generator) -> list:
    """A mix of polygon, segment, and point hulls in ADM feature space."""
    hulls = []
    for _ in range(rng.integers(1, 5)):
        kind = rng.integers(0, 4)
        if kind == 0:
            points = rng.uniform(0, 1440, size=(1, 2))
        elif kind == 1:
            anchor = rng.uniform(0, 1440, size=(1, 2))
            step = rng.uniform(-60, 60, size=(1, 2))
            points = np.concatenate([anchor, anchor + step, anchor + 2 * step])
        else:
            points = rng.uniform(0, 1440, size=(rng.integers(3, 40), 2))
        hulls.append(quickhull(points))
    return hulls


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_points_in_hulls_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        hulls = _random_hulls(rng)
        queries = rng.uniform(-20, 1460, size=(30, 2))
        queries = np.concatenate([queries, hulls[0].vertices])
        tolerance = float(rng.choice([1e-9, 1.0, 20.0]))
        membership = points_in_hulls(queries, hulls, tolerance=tolerance)
        for i, (x, y) in enumerate(queries):
            for j, hull in enumerate(hulls):
                assert membership[i, j] == point_in_hull(
                    float(x), float(y), hull, tolerance=tolerance
                )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stay_range_table_matches_union_stay_ranges(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        hulls = _random_hulls(rng)
        arrivals = np.arange(0.0, 1440.0, 11.0)
        table = stay_range_table(hulls, arrivals)
        for index, arrival in enumerate(arrivals):
            expected = union_stay_ranges(hulls, float(arrival))
            got = table.intervals(index)
            assert len(got) == len(expected)
            for (glow, ghigh), (elow, ehigh) in zip(got, expected):
                assert glow == elow and ghigh == ehigh


@pytest.fixture(scope="module")
def aras_world():
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=9, seed=33)
    )
    train, evaluation = split_days(trace, 7)
    adm = ClusterADM(AdmParams(eps=40.0, min_pts=4, tolerance=20.0))
    adm.fit(train, home.n_zones)
    return home, adm, evaluation


def test_stealth_oracle_matches_adm_scalar_queries(aras_world):
    """The table-backed oracle answers exactly like per-call stay_ranges."""
    home, adm, _ = aras_world
    eps = 1e-6
    for occupant in range(home.n_occupants):
        oracle = _StealthOracle(adm, occupant, home.n_zones)
        for zone in range(home.n_zones):
            for arrival in range(0, 1440, 17):
                intervals = adm.stay_ranges(occupant, zone, float(arrival))
                assert oracle.intervals(zone, arrival) == intervals
                best = None
                for low, high in intervals:
                    candidate = int(np.floor(high + eps))
                    if candidate >= max(1, int(np.ceil(low - eps))):
                        best = candidate if best is None else max(best, candidate)
                assert oracle.max_stay(zone, arrival) == best
                smallest = None
                for low, high in intervals:
                    candidate = max(1, int(np.ceil(low - eps)))
                    if candidate <= high + eps:
                        smallest = (
                            candidate if smallest is None else min(smallest, candidate)
                        )
                assert oracle.min_stay(zone, arrival) == smallest
                assert oracle.entry_ok(zone, arrival) == (best is not None)
                for stay in (1, 15, 90, 300):
                    expected = any(
                        low - eps <= stay <= high + eps for low, high in intervals
                    )
                    assert oracle.exit_ok(zone, arrival, stay) == expected


def _schedules_equal(a, b) -> bool:
    return (
        np.array_equal(a.spoofed_zone, b.spoofed_zone)
        and np.array_equal(a.spoofed_activity, b.spoofed_activity)
        and a.expected_reward == b.expected_reward
        and a.infeasible_days == b.infeasible_days
        and a.substituted_days == b.substituted_days
    )


@pytest.mark.parametrize(
    "config_kwargs",
    [
        {},
        {"window": 5, "beam_width": 8},
        {"window": 30},
        {"window": 1},
        {"beam_width": 1},
    ],
)
def test_vector_dp_matches_reference_engine(aras_world, config_kwargs):
    home, adm, evaluation = aras_world
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    reference = shatter_schedule(
        home,
        adm,
        capability,
        pricing,
        evaluation,
        config=ScheduleConfig(engine="reference", **config_kwargs),
    )
    vector = shatter_schedule(
        home,
        adm,
        capability,
        pricing,
        evaluation,
        config=ScheduleConfig(engine="vector", **config_kwargs),
    )
    assert _schedules_equal(reference, vector)


def test_vector_dp_matches_reference_under_restricted_capability(aras_world):
    """Segment anchoring (forbidden first/last zones) agrees bit for bit."""
    home, adm, evaluation = aras_world
    pricing = TouPricing()
    day = evaluation.slice_slots(0, 1440)
    for capability in (
        AttackerCapability.with_zones(home, [1, 3]),
        AttackerCapability(
            zones=frozenset(range(home.n_zones)),
            occupants=frozenset({0}),
            appliances=frozenset(),
            slot_range=(300, 1100),
        ),
    ):
        reference = shatter_schedule(
            home,
            adm,
            capability,
            pricing,
            day,
            config=ScheduleConfig(engine="reference"),
        )
        vector = shatter_schedule(home, adm, capability, pricing, day)
        assert _schedules_equal(reference, vector)


def test_vector_dp_matches_reference_kmeans_house_b():
    home = build_house_b()
    trace = generate_house_trace(
        home, house="B", config=SyntheticConfig(n_days=8, seed=91)
    )
    train, evaluation = split_days(trace, 7)
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.KMEANS, k=5, tolerance=5.0)
    ).fit(train, home.n_zones)
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    reference = shatter_schedule(
        home,
        adm,
        capability,
        pricing,
        evaluation,
        config=ScheduleConfig(engine="reference"),
    )
    vector = shatter_schedule(home, adm, capability, pricing, evaluation)
    assert _schedules_equal(reference, vector)


def _results_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, field), getattr(b, field))
        for field in _SIM_FIELDS
    )


@pytest.fixture(scope="module")
def sim_world():
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=2, seed=17)
    )
    return home, trace


def test_simulate_matches_reference_benign(sim_world):
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    assert _results_equal(
        simulate_reference(home, trace, controller),
        simulate(home, trace, controller),
    )


def test_simulate_matches_reference_under_attack(sim_world):
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    rng = np.random.default_rng(5)
    reported_zone = trace.occupant_zone.copy()
    mask = rng.random(reported_zone.shape) < 0.35
    reported_zone[mask] = rng.integers(0, home.n_zones, size=int(mask.sum()))
    reported_activity = trace.occupant_activity.copy()
    assert _results_equal(
        simulate_reference(
            home,
            trace,
            controller,
            reported_zone=reported_zone,
            reported_activity=reported_activity,
        ),
        simulate(
            home,
            trace,
            controller,
            reported_zone=reported_zone,
            reported_activity=reported_activity,
        ),
    )


def test_simulate_matches_reference_outdoor_profile(sim_world):
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    profile = 78.0 + 14.0 * np.sin(np.arange(trace.n_slots) / 1440.0 * 2 * np.pi)
    outdoor = OutdoorConditions(temperature_f=profile)
    assert _results_equal(
        simulate_reference(home, trace, controller, outdoor=outdoor),
        simulate(home, trace, controller, outdoor=outdoor),
    )


def test_simulate_matches_reference_ashrae(sim_world):
    home, trace = sim_world
    controller = AshraeController(home, ControllerConfig()).calibrate(trace)
    assert _results_equal(
        simulate_reference(home, trace, controller),
        simulate(home, trace, controller),
    )


def test_simulate_matches_reference_large_home():
    """8+ zones: the metering row sums use numpy's pairwise blocking."""
    fleet = generate_home_fleet(1, n_zones=8, n_days=2, seed=3)
    home, trace = fleet[0]
    controller = DemandControlledHVAC(home)
    assert _results_equal(
        simulate_reference(home, trace, controller),
        simulate(home, trace, controller),
    )


@pytest.mark.parametrize("n_zones", [8, 10])
@pytest.mark.parametrize("case", ["ashrae", "attacked_outdoor_profile"])
def test_simulate_matches_reference_large_home_cases(n_zones, case):
    """8+ zones (numpy's pairwise row sums in the metering) under the
    fixed-airflow branch, and under a spoofed story with a sinusoidal
    outdoor profile."""
    ((home, trace),) = generate_home_fleet(1, n_zones=n_zones, n_days=2, seed=3)
    assert home.n_zones >= 8
    if case == "ashrae":
        controller = AshraeController(home, ControllerConfig()).calibrate(trace)
        kwargs = {}
    else:
        controller = DemandControlledHVAC(home)
        rng = np.random.default_rng(n_zones)
        reported_zone = trace.occupant_zone.copy()
        mask = rng.random(reported_zone.shape) < 0.35
        reported_zone[mask] = rng.integers(0, home.n_zones, size=int(mask.sum()))
        profile = 78.0 + 14.0 * np.sin(
            np.arange(trace.n_slots) / 1440.0 * 2 * np.pi
        )
        kwargs = {
            "reported_zone": reported_zone,
            "outdoor": OutdoorConditions(temperature_f=profile),
        }
    assert _results_equal(
        simulate_reference(home, trace, controller, **kwargs),
        simulate(home, trace, controller, **kwargs),
    )


def _misshapen(activity: np.ndarray, reshape: str) -> np.ndarray:
    if reshape == "short":
        return activity[:-100]
    if reshape == "long":
        return np.concatenate([activity, activity[:100]])
    return np.concatenate([activity, activity[:, :1]], axis=1)


@pytest.mark.parametrize("entry", ["simulate", "simulate_reference", "simulate_batch"])
@pytest.mark.parametrize("reshape", ["short", "long", "extra_column"])
def test_simulation_rejects_misshapen_reported_activity(sim_world, entry, reshape):
    """A reported activity array that is not the trace's ``[T, O]`` is
    refused before any simulation runs — in a batch, before its
    well-formed jobs run too."""
    home, trace = sim_world
    controller = DemandControlledHVAC(home)
    bad = _misshapen(trace.occupant_activity, reshape)
    with collect_events() as aggregator:
        with pytest.raises(ControlError, match="reported_activity"):
            if entry == "simulate_batch":
                simulate_batch(
                    [
                        SimulationJob(home, trace, controller),
                        SimulationJob(home, trace, controller, reported_activity=bad),
                    ]
                )
            else:
                run = simulate if entry == "simulate" else simulate_reference
                run(home, trace, controller, reported_activity=bad)
    assert SIMULATION not in aggregator.kernels


def _gain_tables_by_unique(home, status):
    """``appliance_gain_tables`` grouped by ``np.unique(status, axis=0)``,
    as first written: the grouping oracle."""
    heat_by_zone = np.zeros((home.n_appliances, home.n_zones))
    watts = np.zeros(home.n_appliances)
    for appliance in home.appliances:
        heat_by_zone[appliance.appliance_id, appliance.zone_id] = (
            appliance.heat_watts
        )
        watts[appliance.appliance_id] = appliance.power_watts
    unique, inverse = np.unique(status, axis=0, return_inverse=True)
    plant_u = np.zeros((len(unique), home.n_zones))
    ctrl_u = np.zeros((len(unique), home.n_zones))
    kwh_u = np.zeros(len(unique))
    for index, row in enumerate(unique):
        floats = row.astype(float)
        plant_u[index] = floats @ heat_by_zone
        kwh_u[index] = float(floats @ watts) / 60000.0
        for appliance in home.appliances:
            if row[appliance.appliance_id]:
                ctrl_u[index, appliance.zone_id] += appliance.heat_watts
    return plant_u[inverse], ctrl_u[inverse], kwh_u[inverse]


@pytest.mark.parametrize(
    "case",
    [
        "all_distinct",
        "one_repeated_row",
        "single_slot",
        "empty",
        "triggered",
        "one_byte_home",
    ],
)
def test_appliance_gain_tables_match_unique_grouping(sim_world, case):
    """Packed-bit grouping prices every slot exactly as grouping by
    ``np.unique`` did.  House A has 13 appliances, so its rows pack
    into two bytes with a partial second one."""
    home, trace = sim_world
    rng = np.random.default_rng(41)
    n_appliances = home.n_appliances
    assert n_appliances > 8 and n_appliances % 8
    if case == "all_distinct":
        codes = rng.permutation(1 << n_appliances)[:500]
        status = ((codes[:, None] >> np.arange(n_appliances)) & 1).astype(bool)
    elif case == "one_repeated_row":
        status = np.tile(rng.random(n_appliances) < 0.5, (300, 1))
    elif case == "single_slot":
        status = trace.appliance_status[700:701]
    elif case == "empty":
        status = trace.appliance_status[:0]
    elif case == "triggered":
        status = trace.appliance_status | (
            rng.random(trace.appliance_status.shape) < 0.05
        )
    else:
        ((home, fleet_trace),) = generate_home_fleet(
            1, n_zones=4, n_days=1, seed=3
        )
        assert home.n_appliances <= 8
        status = fleet_trace.appliance_status
    expected = _gain_tables_by_unique(home, status)
    got = appliance_gain_tables(home, status)
    for want, have in zip(expected, got):
        assert have.shape == want.shape
        assert np.array_equal(have, want)


def _cost_per_slot(pricing: TouPricing, energy_kwh, start_slot: int = 0):
    """``TouPricing.cost`` as first written — ``is_peak`` and numpy-scalar
    arithmetic on every slot — kept as the billing oracle."""
    energy_kwh = np.asarray(energy_kwh, dtype=float)
    total = 0.0
    battery_left = pricing.battery_kwh
    current_day = (start_slot) // 1440
    for index, kwh in enumerate(energy_kwh):
        slot = start_slot + index
        day = slot // 1440
        if day != current_day:
            current_day = day
            battery_left = pricing.battery_kwh
        if not pricing.is_peak(slot):
            total += kwh * pricing.off_peak_rate
            continue
        covered = min(kwh, battery_left)
        battery_left -= covered
        total += covered * pricing.off_peak_rate
        total += (kwh - covered) * pricing.peak_rate
    return total


def test_tou_cost_matches_per_slot_loop():
    """Bit-identical bills and the same return type (a numpy float, or
    a plain 0.0 for no slots), across batteries from empty to larger
    than any day's peak, start slots that cross day boundaries, and
    runs of zero consumption."""
    rng = np.random.default_rng(23)
    for case in range(300):
        pricing = TouPricing(battery_kwh=float(rng.uniform(0.0, 50.0)))
        if case % 50 == 0:
            pricing = TouPricing(battery_kwh=0.0)
        n_slots = 0 if case == 1 else int(rng.integers(1, 3 * 1440))
        energy = rng.random(n_slots) * float(rng.uniform(0.001, 0.3))
        for _ in range(int(rng.integers(0, 4))):
            start = int(rng.integers(0, max(n_slots, 1)))
            energy[start : start + int(rng.integers(1, 400))] = 0.0
        start_slot = int(rng.integers(0, 4 * 1440))
        expected = _cost_per_slot(pricing, energy, start_slot)
        got = pricing.cost(energy, start_slot=start_slot)
        assert got == expected
        assert type(got) is type(expected)


def test_gain_matrices_match_reference_loops(sim_world):
    home, trace = sim_world
    emission, heat = occupant_gain_matrices(
        home, trace.occupant_zone, trace.occupant_activity
    )
    heat_by_zone = np.zeros((home.n_appliances, home.n_zones))
    watts = np.zeros(home.n_appliances)
    for appliance in home.appliances:
        heat_by_zone[appliance.appliance_id, appliance.zone_id] = (
            appliance.heat_watts
        )
        watts[appliance.appliance_id] = appliance.power_watts
    plant_heat, ctrl_heat, kwh = appliance_gain_tables(
        home, trace.appliance_status
    )
    for t in range(0, trace.n_slots, 97):
        expected_emission = np.zeros(home.n_zones)
        expected_heat = np.zeros(home.n_zones)
        for occupant in home.occupants:
            zone = int(trace.occupant_zone[t, occupant.occupant_id])
            if zone == 0:
                continue
            activity = home.activities.by_id(
                int(trace.occupant_activity[t, occupant.occupant_id])
            )
            expected_emission[zone] += occupant.co2_rate(activity.co2_ft3_per_min)
            expected_heat[zone] += occupant.heat_rate(activity.heat_watts)
        assert np.array_equal(emission[t], expected_emission)
        assert np.array_equal(heat[t], expected_heat)
        status = trace.appliance_status[t].astype(float)
        assert np.array_equal(plant_heat[t], status @ heat_by_zone)
        assert kwh[t] == float(status @ watts) / 60000.0
        expected_ctrl = np.zeros(home.n_zones)
        for appliance in home.appliances:
            if trace.appliance_status[t, appliance.appliance_id]:
                expected_ctrl[appliance.zone_id] += appliance.heat_watts
        assert np.array_equal(ctrl_heat[t], expected_ctrl)


def test_simulate_batch_matches_individual_runs():
    """Stacked groups (sized to cross the stacking threshold) equal
    per-job runs bit for bit, 8+ zone homes included."""
    for n_zones, n_homes in ((4, 16), (8, 8)):
        assert n_zones * n_homes >= _STACK_THRESHOLD
        fleet = generate_home_fleet(n_homes, n_zones=n_zones, n_days=1, seed=29)
        jobs = [
            SimulationJob(home, trace, DemandControlledHVAC(home))
            for home, trace in fleet
        ]
        batched = simulate_batch(jobs)
        for job, result in zip(jobs, batched):
            assert _results_equal(
                result, simulate(job.home, job.trace, job.controller)
            )


def test_stacked_kernel_matches_even_for_small_groups():
    """Below the stacking threshold the kernel itself still agrees."""
    home = build_house_a()
    traces = [
        generate_house_trace(
            home, house="A", config=SyntheticConfig(n_days=1, seed=s)
        )
        for s in (1, 2)
    ]
    controller = DemandControlledHVAC(home)
    jobs = [SimulationJob(home, trace, controller) for trace in traces]
    for job, result in zip(jobs, _simulate_stacked(jobs)):
        assert _results_equal(
            result, simulate(job.home, job.trace, job.controller)
        )


def test_outdoor_temperature_array_resolves_once():
    constant = OutdoorConditions(temperature_f=90.5)
    assert np.array_equal(constant.temperature_array(10), np.full(10, 90.5))
    profile = OutdoorConditions(temperature_f=np.arange(5.0))
    assert np.array_equal(profile.temperature_array(3), np.arange(3.0))
    with pytest.raises(Exception):
        profile.temperature_array(9)


def test_flag_visits_matches_scalar_classification(aras_world):
    home, adm, evaluation = aras_world
    for visit, anomalous in adm.flag_visits(evaluation):
        assert anomalous == (
            not adm.is_benign_visit(
                visit.occupant_id, visit.zone_id, visit.arrival, visit.stay
            )
        )


# ----------------------------------------------------------------------
# Attack execution: simulate() + open-loop plant vs the per-slot loop
# ----------------------------------------------------------------------

_VECTOR_FIELDS = (
    "spoofed_zone",
    "spoofed_activity",
    "delta_co2",
    "delta_temperature",
    "triggered",
)


def _assert_outcomes_equal(fast, reference) -> None:
    for field in _VECTOR_FIELDS:
        assert np.array_equal(
            getattr(fast.vector, field), getattr(reference.vector, field)
        ), field
    assert _results_equal(fast.result, reference.result)
    assert fast.result.start_slot == reference.result.start_slot
    assert np.array_equal(fast.applied_zone, reference.applied_zone)
    assert fast.trigger_decisions == reference.trigger_decisions
    assert fast.applied_visit_fraction == reference.applied_visit_fraction


def _execute_both(home, controller, trace, schedule, capability, adm, **kwargs):
    """Run both execution paths; assert they agree and return the fast one."""
    fast = execute_attack(
        home, controller, trace, schedule, capability, adm=adm, **kwargs
    )
    reference = execute_attack_reference(
        home, controller, trace, schedule, capability, adm=adm, **kwargs
    )
    _assert_outcomes_equal(fast, reference)
    return fast


@pytest.fixture(scope="module")
def attack_world(aras_world):
    home, adm, evaluation = aras_world
    schedule = shatter_schedule(
        home, adm, AttackerCapability.full_access(home), TouPricing(), evaluation
    )
    return home, adm, evaluation, schedule


@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_reference_full_access(attack_world, triggering):
    home, adm, evaluation, schedule = attack_world
    outcome = _execute_both(
        home,
        DemandControlledHVAC(home),
        evaluation,
        schedule,
        AttackerCapability.full_access(home),
        adm,
        enable_triggering=triggering,
        start_slot=7 * 1440,
    )
    assert np.abs(outcome.vector.delta_co2).max() > 0
    assert outcome.vector.triggered.any() == triggering


@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_reference_restricted_capability(
    attack_world, triggering
):
    """Zone- and occupant-restricted attackers, the schedule built for
    full access, so the feasibility filter drops visits."""
    home, adm, evaluation, schedule = attack_world
    controller = DemandControlledHVAC(home)
    two_zones = AttackerCapability.with_zones(
        home, [home.zone_id("Kitchen"), home.zone_id("Bedroom")]
    )
    outcome = _execute_both(
        home,
        controller,
        evaluation,
        schedule,
        two_zones,
        adm,
        enable_triggering=triggering,
    )
    assert outcome.applied_visit_fraction < 1.0
    one_occupant = AttackerCapability(
        zones=frozenset(range(home.n_zones)),
        occupants=frozenset({0}),
        appliances=frozenset(range(home.n_appliances)),
        slot_range=(300, 1100),
    )
    _execute_both(
        home,
        controller,
        evaluation,
        schedule,
        one_occupant,
        adm,
        enable_triggering=triggering,
    )


def test_execute_attack_matches_reference_outdoor_profile(attack_world):
    home, adm, evaluation, schedule = attack_world
    profile = 78.0 + 14.0 * np.sin(
        np.arange(evaluation.n_slots) / 1440.0 * 2 * np.pi
    )
    _execute_both(
        home,
        DemandControlledHVAC(home),
        evaluation,
        schedule,
        AttackerCapability.full_access(home),
        adm,
        outdoor=OutdoorConditions(temperature_f=profile),
    )


@pytest.mark.parametrize("triggering", [True, False])
def test_execute_attack_matches_reference_kmeans_house_b(triggering):
    home = build_house_b()
    trace = generate_house_trace(
        home, house="B", config=SyntheticConfig(n_days=8, seed=91)
    )
    train, evaluation = split_days(trace, 7)
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.KMEANS, k=5, tolerance=5.0)
    ).fit(train, home.n_zones)
    capability = AttackerCapability.full_access(home)
    schedule = shatter_schedule(home, adm, capability, TouPricing(), evaluation)
    _execute_both(
        home,
        DemandControlledHVAC(home),
        evaluation,
        schedule,
        capability,
        adm,
        enable_triggering=triggering,
    )


def test_execute_attack_matches_reference_large_home():
    """8+ zones: the metering row sums use numpy's pairwise blocking."""
    ((home, trace),) = generate_home_fleet(1, n_zones=8, n_days=4, seed=3)
    train, evaluation = split_days(trace, 2)
    adm = ClusterADM(
        AdmParams(backend=ClusterBackend.KMEANS, k=4, tolerance=5.0)
    ).fit(train, home.n_zones)
    capability = AttackerCapability.full_access(home)
    schedule = shatter_schedule(home, adm, capability, TouPricing(), evaluation)
    outcome = _execute_both(
        home, DemandControlledHVAC(home), evaluation, schedule, capability, adm
    )
    assert home.n_zones >= 8
    assert np.abs(outcome.vector.delta_temperature).max() > 0


class _CountingController(DemandControlledHVAC):
    """A subclass may change decide(); this one only counts the calls."""

    def __init__(self, home):
        super().__init__(home)
        self.calls = 0

    def decide(self, **kwargs):
        self.calls += 1
        return super().decide(**kwargs)


def test_execute_attack_controller_subclass_decides_every_slot(attack_world):
    """A subclass's decide() runs once per slot, as in the per-slot loop."""
    home, adm, evaluation, schedule = attack_world
    capability = AttackerCapability.full_access(home)
    controller = _CountingController(home)
    fast = execute_attack(home, controller, evaluation, schedule, capability, adm=adm)
    assert controller.calls == evaluation.n_slots
    _assert_outcomes_equal(
        fast,
        execute_attack_reference(
            home, DemandControlledHVAC(home), evaluation, schedule, capability, adm=adm
        ),
    )


def test_execute_attack_matches_reference_ashrae_controller(attack_world):
    home, adm, evaluation, schedule = attack_world
    controller = AshraeController(home, ControllerConfig()).calibrate(evaluation)
    outcome = _execute_both(
        home,
        controller,
        evaluation,
        schedule,
        AttackerCapability.full_access(home),
        adm,
    )
    assert outcome.vector.triggered.any()


def test_execute_attack_times_one_kernel_around_one_simulation(attack_world):
    home, adm, evaluation, schedule = attack_world
    with collect_events() as aggregator:
        execute_attack(
            home,
            DemandControlledHVAC(home),
            evaluation,
            schedule,
            AttackerCapability.full_access(home),
            adm=adm,
        )
    assert aggregator.kernels[ATTACK_EXECUTE].calls == 1
    assert aggregator.kernels[SIMULATION].calls == 1


@pytest.mark.parametrize("execute", [execute_attack, execute_attack_reference])
@pytest.mark.parametrize("extra_slots", [-100, 100])
def test_execute_attack_rejects_mismatched_schedule(attack_world, execute, extra_slots):
    """A schedule that does not cover the trace slot for slot is refused
    before any compute, short or long alike."""
    home, adm, evaluation, schedule = attack_world
    n_slots = evaluation.n_slots + extra_slots
    for field in ("spoofed_zone", "spoofed_activity"):
        source = getattr(schedule, field)
        resized = np.resize(source, (n_slots, source.shape[1]))
        bad = replace(schedule, **{field: resized})
        with pytest.raises(AttackError, match=field):
            execute(
                home,
                DemandControlledHVAC(home),
                evaluation,
                bad,
                AttackerCapability.full_access(home),
                adm=adm,
            )


def test_plant_response_rejects_misshapen_airflow(sim_world):
    home, trace = sim_world
    with pytest.raises(ControlError):
        plant_response(
            home,
            trace,
            np.zeros((trace.n_slots - 1, home.n_zones)),
            ControllerConfig(),
        )


# ----------------------------------------------------------------------
# Batched schedule DP (multi-day / multi-home array program)
# ----------------------------------------------------------------------


def _fleet_jobs(n_homes: int, n_days: int = 4, seed: int = 77):
    """Per-home ScheduleJobs over a synthetic fleet with kmeans ADMs."""
    pricing = TouPricing()
    jobs = []
    for home, trace in generate_home_fleet(
        n_homes, n_zones=4, n_days=n_days, seed=seed
    ):
        train, evaluation = split_days(trace, 2)
        adm = ClusterADM(
            AdmParams(backend=ClusterBackend.KMEANS, k=4, tolerance=5.0)
        ).fit(train, home.n_zones)
        jobs.append(
            ScheduleJob(
                home=home,
                adm=adm,
                capability=AttackerCapability.full_access(home),
                pricing=pricing,
                actual_trace=evaluation,
            )
        )
    return jobs


def test_shatter_schedule_batch_matches_per_job_calls(aras_world):
    """Stacking jobs of mixed capability ≡ scheduling each alone."""
    home, adm, evaluation = aras_world
    pricing = TouPricing()
    day = evaluation.slice_slots(0, 1440)
    jobs = [
        ScheduleJob(home, adm, AttackerCapability.full_access(home), pricing, evaluation),
        ScheduleJob(home, adm, AttackerCapability.with_zones(home, [1, 3]), pricing, day),
        ScheduleJob(
            home,
            adm,
            AttackerCapability(
                zones=frozenset(range(home.n_zones)),
                occupants=frozenset({0}),
                appliances=frozenset(),
                slot_range=(300, 1100),
            ),
            pricing,
            day,
        ),
    ]
    for job, got in zip(jobs, shatter_schedule_batch(jobs)):
        solo = shatter_schedule(
            job.home, job.adm, job.capability, job.pricing, job.actual_trace
        )
        assert _schedules_equal(got, solo)


def test_shatter_schedule_batch_matches_reference_fleet():
    """Acceptance oracle: the whole-fleet batch is bit-identical to the
    scalar reference engine run home by home."""
    jobs = _fleet_jobs(3)
    for job, got in zip(jobs, shatter_schedule_batch(jobs)):
        reference = shatter_schedule(
            job.home,
            job.adm,
            job.capability,
            job.pricing,
            job.actual_trace,
            config=ScheduleConfig(engine="reference"),
        )
        assert _schedules_equal(got, reference)


def test_shatter_schedule_batch_accepts_mixed_engines(aras_world):
    """Reference-engine jobs ride the same batch call unchanged."""
    home, adm, evaluation = aras_world
    day = evaluation.slice_slots(0, 1440)
    pricing = TouPricing()
    capability = AttackerCapability.full_access(home)
    vector, reference = shatter_schedule_batch(
        [
            ScheduleJob(home, adm, capability, pricing, day),
            ScheduleJob(
                home,
                adm,
                capability,
                pricing,
                day,
                config=ScheduleConfig(engine="reference"),
            ),
        ]
    )
    assert _schedules_equal(vector, reference)


def test_multi_day_schedule_equals_assembled_day_slices(aras_world):
    """Day-invariance regression: the hoisted (shared) reward tables
    change nothing — a multi-day schedule's spoofed arrays are
    byte-identical to scheduling each day separately, and the
    per-(occupant, day) bookkeeping offsets by day.  (Rewards are sums
    of the identical addends in day-major instead of occupant-major
    order, so they agree to float addition reordering.)"""
    home, adm, evaluation = aras_world
    pricing = TouPricing()
    capability = AttackerCapability.full_access(home)
    full = shatter_schedule(home, adm, capability, pricing, evaluation)
    zones, activities = [], []
    reward = 0.0
    infeasible: list[tuple[int, int]] = []
    substituted: list[tuple[int, int]] = []
    for day in range(evaluation.n_days):
        piece = shatter_schedule(
            home,
            adm,
            capability,
            pricing,
            evaluation.slice_slots(day * 1440, (day + 1) * 1440),
        )
        zones.append(piece.spoofed_zone)
        activities.append(piece.spoofed_activity)
        reward += piece.expected_reward
        infeasible.extend((occ, d + day) for occ, d in piece.infeasible_days)
        substituted.extend((occ, d + day) for occ, d in piece.substituted_days)
    assert np.concatenate(zones).tobytes() == full.spoofed_zone.tobytes()
    assert np.concatenate(activities).tobytes() == full.spoofed_activity.tobytes()
    assert sorted(infeasible) == sorted(full.infeasible_days)
    assert sorted(substituted) == sorted(full.substituted_days)
    assert np.isclose(reward, full.expected_reward, rtol=1e-12, atol=0.0)


def test_stealth_oracle_memoized_per_adm(aras_world):
    """Repeat lookups return the same oracle and charge GEOMETRY nothing."""
    home, adm, _ = aras_world
    first = stealth_oracle(adm, 0, home.n_zones)
    with collect_events() as aggregator:
        assert stealth_oracle(adm, 0, home.n_zones) is first
    assert GEOMETRY not in aggregator.kernels
    fresh = ClusterADM(AdmParams(eps=40.0, min_pts=4, tolerance=20.0))
    fresh.fit(
        generate_house_trace(
            home, house="A", config=SyntheticConfig(n_days=2, seed=8)
        ),
        home.n_zones,
    )
    assert stealth_oracle(fresh, 0, home.n_zones) is not first


def test_reward_tables_shared_through_cache(aras_world):
    """The day-periodic reward table is computed once per content key;
    equal-content (but distinct) pricing/config objects hit the cache."""
    home, _, _ = aras_world
    zones = list(range(1, home.n_zones))
    first = occupant_reward_table(
        home, 0, zones, TouPricing(), ControllerConfig(), ScheduleConfig()
    )
    hits = get_cache().stats.get("rewards.hits", 0)
    second = occupant_reward_table(
        home, 0, zones, TouPricing(), ControllerConfig(), ScheduleConfig()
    )
    assert second is first
    assert get_cache().stats.get("rewards.hits", 0) == hits + 1
    shifted = occupant_reward_table(
        home,
        0,
        zones,
        TouPricing(peak_rate=0.99),
        ControllerConfig(),
        ScheduleConfig(),
    )
    assert shifted is not first


def test_hot_path_lint_rule_is_clean():
    """CI gate: per-day loops and scalar geometry stay out of the
    batched hot paths.

    The invariants themselves (span-DP call graph, fleet front door,
    reward-table sharing, scalar-geometry ban, batched visit
    classification) live in the ``hot-path-scalar-calls`` lint rule —
    see :mod:`repro.devtools.lint.rules.hotpath` and its fixtures under
    ``tests/lint_fixtures/hot_path``.  This test just pins the gate to
    the kernel suite: the tree must lint clean.
    """
    from repro.devtools.lint import lint_paths, render_text

    src = Path(__file__).parent.parent / "src" / "repro"
    result = lint_paths([src], select=["hot-path-scalar-calls"])
    assert result.errors == []
    assert result.findings == [], render_text(result)
