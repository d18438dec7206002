"""Real-time attack execution against the closed-loop plant.

This is the second half of Section IV-C: the pre-computed schedule is
applied minute by minute against the *actual* occupant behaviour.  Each
spoofed visit is applied only if the attacker can reach both the real
zone and the claimed zone of every slot it covers (the paper's
feasibility condition); otherwise the visit falls back to reality.

The executor then runs the plant with a *shadow model*: the controller
is fed IAQ measurements forward-simulated under the spoofed story
(which is exactly what Eqs. 14-15 require of a consistent FDI vector —
the spoofed CO2/temperature must follow the model's predictions), while
the physical zones evolve under the true occupants, true appliances,
and the airflow the deceived controller actually commands.  The
difference between shadow and true IAQ is the δ the attacker injects.

Execution tiers
---------------

:func:`execute_attack` has no per-slot loop of its own.  The
controller reads only the shadow state and the reported story, so the
deceived closed loop — controller, shadow zones and AHU metering — is
exactly :func:`~repro.hvac.simulation.simulate` over a trace of the
applied spoofed zones and activities with the physical appliance
status.  ``simulate`` picks the kernel: its fast one for the known
controllers, its per-slot reference loop, which passes ``decide`` the
same arguments, for any other.  The true zones only receive the
airflow that loop commands: they are an open-loop response, which
:func:`~repro.hvac.simulation.plant_response` computes as one
recurrence per zone.  Visit feasibility is one run-length pass per
occupant over the capability's slot and zone masks
(:meth:`~repro.attack.model.AttackerCapability.slot_mask` and
:meth:`~repro.attack.model.AttackerCapability.zone_mask`).  Algorithm 1
stays scalar.  Capability sweeps and repeated table cells apply the
same story again, so the deceived loop and the true zones' response
are memoized by content
(:func:`~repro.hvac.simulation.closed_loop_token`) in the artifact
cache's memory-only analysis tier.

:func:`execute_attack_reference` keeps the original per-slot loop — one
``controller.decide`` per slot, shadow and true zones stepped side by
side — as the oracle the fast path matches bit for bit (property-tested
in ``tests/test_vectorized_kernels.py``).
:func:`_apply_visit_feasibility_reference` keeps the per-visit loop of
the feasibility filter the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.adm.cluster_model import ClusterADM
from repro.attack.model import AttackerCapability, AttackVector
from repro.attack.schedule import AttackSchedule
from repro.attack.trigger import TriggerDecision, appliance_triggering_decisions
from repro.errors import AttackError
from repro.events.dispatch import ATTACK_EXECUTE, kernel_timer
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import (
    OutdoorConditions,
    SimulationResult,
    closed_loop_token,
    plant_response,
    simulate,
)
from repro.units import SENSIBLE_HEAT_FACTOR, WATT_MINUTES_PER_KWH


@dataclass
class AttackOutcome:
    """Everything produced by executing an attack.

    Attributes:
        vector: The δ attack vector actually injected.
        result: Plant trajectories and energy under attack.
        applied_zone: The reported occupancy after feasibility
            filtering, ``[T, O]``.
        trigger_decisions: Algorithm 1's positive decisions.
        applied_visit_fraction: Share of scheduled spoofed visits that
            survived the real-time feasibility check.
    """

    vector: AttackVector
    result: SimulationResult
    applied_zone: np.ndarray
    trigger_decisions: list[TriggerDecision]
    applied_visit_fraction: float

    def cost(self, pricing: TouPricing) -> float:
        return self.result.cost(pricing)


def _apply_visit_feasibility(
    schedule: AttackSchedule,
    actual_trace: HomeTrace,
    capability: AttackerCapability,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Filter scheduled visits by real-time accessibility.

    A spoofed visit (a maximal run of one claimed zone) is applied only
    if, at every slot it covers, the attacker can read/alter the sensors
    of both the actual zone and the claimed zone and the slot is inside
    ``T^A``.  Rejected visits revert to the actual behaviour, keeping
    granularity at visit level so the reported stream stays
    visit-consistent.  Runs that change nothing are not visits.
    """
    actual_zone = actual_trace.occupant_zone
    actual_activity = actual_trace.occupant_activity
    applied_zone = actual_zone.copy()
    applied_activity = actual_activity.copy()
    n_slots, n_occupants = applied_zone.shape
    scheduled_visits = 0
    applied_visits = 0
    attackable = capability.slot_mask(n_slots)
    for occupant in range(n_occupants):
        if not n_slots or occupant not in capability.occupants:
            continue
        spoofed = schedule.spoofed_zone[:, occupant]
        activity = schedule.spoofed_activity[:, occupant]
        actual = actual_zone[:, occupant]
        starts = np.r_[0, np.flatnonzero(np.diff(spoofed)) + 1]
        changes = np.logical_or.reduceat(
            (actual != spoofed) | (actual_activity[:, occupant] != activity),
            starts,
        )
        feasible = np.logical_and.reduceat(
            attackable & capability.zone_mask(spoofed) & capability.zone_mask(actual),
            starts,
        )
        applied = changes & feasible
        scheduled_visits += int(np.count_nonzero(changes))
        applied_visits += int(np.count_nonzero(applied))
        slots = np.repeat(applied, np.diff(starts, append=n_slots))
        applied_zone[slots, occupant] = spoofed[slots]
        applied_activity[slots, occupant] = activity[slots]
    fraction = applied_visits / scheduled_visits if scheduled_visits else 1.0
    return applied_zone, applied_activity, fraction


def _apply_visit_feasibility_reference(
    schedule: AttackSchedule,
    actual_trace: HomeTrace,
    capability: AttackerCapability,
) -> tuple[np.ndarray, np.ndarray, float]:
    """The preserved per-visit implementation of
    :func:`_apply_visit_feasibility`, with per-slot capability tests: the
    oracle of the equivalence tests and the hot-path bench."""
    applied_zone = actual_trace.occupant_zone.copy()
    applied_activity = actual_trace.occupant_activity.copy()
    n_slots, n_occupants = applied_zone.shape
    scheduled_visits = 0
    applied_visits = 0
    for occupant in range(n_occupants):
        if occupant not in capability.occupants:
            continue
        spoofed = schedule.spoofed_zone[:, occupant]
        start = 0
        while start < n_slots:
            end = start
            zone = int(spoofed[start])
            while end < n_slots and int(spoofed[end]) == zone:
                end += 1
            changes = any(
                int(actual_trace.occupant_zone[t, occupant]) != zone
                or int(actual_trace.occupant_activity[t, occupant])
                != int(schedule.spoofed_activity[t, occupant])
                for t in range(start, end)
            )
            if changes:
                scheduled_visits += 1
                feasible = all(
                    capability.can_attack_slot(t)
                    and capability.can_spoof_zone(zone)
                    and capability.can_spoof_zone(
                        int(actual_trace.occupant_zone[t, occupant])
                    )
                    for t in range(start, end)
                )
                if feasible:
                    applied_visits += 1
                    applied_zone[start:end, occupant] = zone
                    applied_activity[start:end, occupant] = (
                        schedule.spoofed_activity[start:end, occupant]
                    )
            start = end
    fraction = applied_visits / scheduled_visits if scheduled_visits else 1.0
    return applied_zone, applied_activity, fraction


def _applied_story(
    home: SmartHome,
    actual_trace: HomeTrace,
    schedule: AttackSchedule,
    capability: AttackerCapability,
    adm: ClusterADM | None,
    enable_triggering: bool,
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, list[TriggerDecision]]:
    """Validate the inputs, then fix what the attack reports and triggers.

    Returns:
        ``(applied_zone, applied_activity, applied_visit_fraction,
        triggered, trigger_decisions)``: the reported story after the
        feasibility filter, and Algorithm 1's activations over it (none
        when triggering is off).
    """
    expected = actual_trace.occupant_zone.shape
    for name in ("spoofed_zone", "spoofed_activity"):
        shape = getattr(schedule, name).shape
        if shape != expected:
            raise AttackError(
                f"schedule.{name} has shape {shape}, but the actual trace "
                f"is {expected} (slots, occupants)"
            )
    if enable_triggering and adm is None:
        raise AttackError("appliance triggering needs the attacker's ADM")

    applied_zone, applied_activity, fraction = _apply_visit_feasibility(
        schedule, actual_trace, capability
    )
    if enable_triggering:
        applied_schedule = AttackSchedule(
            spoofed_zone=applied_zone,
            spoofed_activity=applied_activity,
            expected_reward=schedule.expected_reward,
            infeasible_days=schedule.infeasible_days,
        )
        triggered, decisions = appliance_triggering_decisions(
            home, adm, applied_schedule, actual_trace, capability
        )
    else:
        triggered = np.zeros(
            (actual_trace.n_slots, home.n_appliances), dtype=bool
        )
        decisions = []
    return applied_zone, applied_activity, fraction, triggered, decisions


def _attacked_loop(
    home: SmartHome,
    controller,
    actual_trace: HomeTrace,
    applied_zone: np.ndarray,
    applied_activity: np.ndarray,
    status: np.ndarray,
    outdoor: OutdoorConditions,
    start_slot: int,
) -> tuple[SimulationResult, np.ndarray, np.ndarray]:
    """The deceived closed loop and the true zones' CO2 and temperature.

    The controller sees only the reported story and the shadow IAQ it
    implies, so simulating that story yields the shadow zones and the
    airflow and metering the victim really runs; the true zones only
    receive that airflow.  The three values are memoized read-only
    under :func:`~repro.hvac.simulation.closed_loop_token`, so a hit
    returns the arrays the miss computed.
    """
    # Imported here: the cache lives in the runner layer, which imports
    # the attack layer; a module-level import would cycle.
    from repro.runner.cache import get_cache

    cache = get_cache()
    key = (
        closed_loop_token(
            home,
            controller,
            outdoor,
            start_slot,
            actual_trace.occupant_zone,
            actual_trace.occupant_activity,
            applied_zone,
            applied_activity,
            status,
        )
        if cache.memory_enabled
        else None
    )
    token = ("closed-loop", "attack", key)
    if key is not None:
        hit = cache.get_analysis(token)
        if hit is not None:
            return hit
    shadow = simulate(
        home,
        HomeTrace(applied_zone, applied_activity, status),
        controller,
        outdoor=outdoor,
        start_slot=start_slot,
    )
    co2, temperature = plant_response(
        home,
        HomeTrace(actual_trace.occupant_zone, actual_trace.occupant_activity, status),
        shadow.airflow_cfm,
        controller.config,
        outdoor,
    )
    if key is not None:
        co2.setflags(write=False)
        temperature.setflags(write=False)
        cache.put_analysis(token, (shadow.freeze(), co2, temperature))
    return shadow, co2, temperature


def execute_attack(
    home: SmartHome,
    controller,
    actual_trace: HomeTrace,
    schedule: AttackSchedule,
    capability: AttackerCapability,
    adm: ClusterADM | None = None,
    enable_triggering: bool = True,
    outdoor: OutdoorConditions | None = None,
    start_slot: int = 0,
) -> AttackOutcome:
    """Execute a schedule against the plant and assemble the δ vector.

    Args:
        home: The target home.
        controller: The victim controller (``decide`` + ``config``);
            :func:`simulate` picks the kernel for its closed loop.
        actual_trace: Ground-truth behaviour over the attack span.
        schedule: The pre-computed attack schedule; its arrays must
            have the actual trace's ``[T, O]`` shape.
        capability: Accessibility constraints.
        adm: The attacker's ADM, needed for Algorithm 1's ``minStay``;
            required when ``enable_triggering``.
        enable_triggering: Run the appliance-triggering attack on top of
            the measurement-manipulation attack (Fig. 10's toggle).
        outdoor: Weather.
        start_slot: Absolute slot of the first sample (pricing phase).

    Returns:
        The outcome with vector, plant result, and diagnostics.

    Raises:
        AttackError: The schedule does not cover the trace slot for
            slot, or triggering is on without an ADM.
    """
    with kernel_timer(ATTACK_EXECUTE):
        outdoor = outdoor or OutdoorConditions()
        applied_zone, applied_activity, fraction, triggered, decisions = (
            _applied_story(
                home, actual_trace, schedule, capability, adm, enable_triggering
            )
        )
        # Triggered appliances really turn on, in both plants.
        status = actual_trace.appliance_status | triggered
        shadow, co2, temperature = _attacked_loop(
            home,
            controller,
            actual_trace,
            applied_zone,
            applied_activity,
            status,
            outdoor,
            start_slot,
        )
        vector = AttackVector(
            spoofed_zone=applied_zone,
            spoofed_activity=applied_activity,
            delta_co2=shadow.co2_ppm - co2,
            delta_temperature=shadow.temperature_f - temperature,
            triggered=triggered,
        )
        return AttackOutcome(
            vector=vector,
            result=replace(shadow, co2_ppm=co2, temperature_f=temperature),
            applied_zone=applied_zone,
            trigger_decisions=decisions,
            applied_visit_fraction=fraction,
        )


def execute_attack_reference(
    home: SmartHome,
    controller,
    actual_trace: HomeTrace,
    schedule: AttackSchedule,
    capability: AttackerCapability,
    adm: ClusterADM | None = None,
    enable_triggering: bool = True,
    outdoor: OutdoorConditions | None = None,
    start_slot: int = 0,
) -> AttackOutcome:
    """The preserved per-slot implementation of :func:`execute_attack`.

    One ``controller.decide`` per slot on the shadow state, with the
    shadow and true zones stepped side by side — the oracle the fast
    path's equivalence tests and the hot-path bench run against.  Same
    arguments and result as :func:`execute_attack`.
    """
    outdoor = outdoor or OutdoorConditions()
    config = controller.config
    applied_zone, applied_activity, fraction, triggered, decisions = (
        _applied_story(
            home, actual_trace, schedule, capability, adm, enable_triggering
        )
    )

    # Triggered appliances really turn on: they join the physical trace.
    physical = actual_trace.copy()
    physical.appliance_status |= triggered

    n_slots, n_zones = actual_trace.n_slots, home.n_zones
    true_co2 = np.full(n_zones, outdoor.co2_ppm, dtype=float)
    true_temp = np.full(n_zones, config.temperature_setpoint_f, dtype=float)
    shadow_co2 = true_co2.copy()
    shadow_temp = true_temp.copy()

    airflow_out = np.zeros((n_slots, n_zones))
    co2_out = np.zeros((n_slots, n_zones))
    temp_out = np.zeros((n_slots, n_zones))
    delta_co2 = np.zeros((n_slots, n_zones))
    delta_temp = np.zeros((n_slots, n_zones))
    hvac_kwh = np.zeros(n_slots)
    appliance_kwh = np.zeros(n_slots)

    appliance_heat_by_zone = np.zeros((home.n_appliances, n_zones))
    appliance_watts = np.zeros(home.n_appliances)
    for appliance in home.appliances:
        appliance_heat_by_zone[appliance.appliance_id, appliance.zone_id] = (
            appliance.heat_watts
        )
        appliance_watts[appliance.appliance_id] = appliance.power_watts

    conditioned = home.layout.conditioned_ids
    volumes = np.array([zone.volume_ft3 for zone in home.layout])

    def gains(zone_of, activity_of, status):
        emission = np.zeros(n_zones)
        heat = np.zeros(n_zones)
        for occupant in home.occupants:
            zone = int(zone_of[occupant.occupant_id])
            if zone == 0:
                continue
            activity = home.activities.by_id(
                int(activity_of[occupant.occupant_id])
            )
            emission[zone] += occupant.co2_rate(activity.co2_ft3_per_min)
            heat[zone] += occupant.heat_rate(activity.heat_watts)
        heat += status.astype(float) @ appliance_heat_by_zone
        return emission, heat

    def physics_step(co2, temp, emission, heat, airflow, outdoor_temp):
        for zone in conditioned:
            volume = volumes[zone]
            exchange = min(airflow[zone] / volume, 1.0)
            co2[zone] = (
                co2[zone]
                + emission[zone] / volume * 1e6
                - exchange * (co2[zone] - outdoor.co2_ppm)
            )
            capacity = config.mass_factor * volume * SENSIBLE_HEAT_FACTOR
            cooling = (
                airflow[zone]
                * SENSIBLE_HEAT_FACTOR
                * (temp[zone] - config.supply_temperature_f)
            )
            leakage = config.envelope_conductance(volume) * (
                outdoor_temp - temp[zone]
            )
            temp[zone] += (heat[zone] - cooling + leakage) / capacity

    for t in range(n_slots):
        outdoor_temp = outdoor.temperature_at(t)
        # The controller sees the spoofed story end to end: shadow IAQ,
        # spoofed occupancy/activity, and the (attacked) appliance status.
        decision = controller.decide(
            co2_ppm=shadow_co2,
            temperature_f=shadow_temp,
            reported_zone=applied_zone[t],
            reported_activity=applied_activity[t],
            appliance_status=physical.appliance_status[t],
            outdoor_temperature_f=outdoor_temp,
        )
        airflow = decision.airflow_cfm

        true_emission, true_heat = gains(
            actual_trace.occupant_zone[t],
            actual_trace.occupant_activity[t],
            physical.appliance_status[t],
        )
        shadow_emission, shadow_heat = gains(
            applied_zone[t], applied_activity[t], physical.appliance_status[t]
        )

        fresh = decision.fresh_fraction(config.minimum_fresh_fraction)
        total_airflow = float(airflow.sum())
        if total_airflow > 0:
            return_temp = float((airflow * shadow_temp).sum() / total_airflow)
        else:
            return_temp = config.temperature_setpoint_f
        mixed_temp = fresh * outdoor_temp + (1.0 - fresh) * return_temp
        coil_delta = max(0.0, mixed_temp - config.supply_temperature_f)
        hvac_kwh[t] = (
            total_airflow * coil_delta * SENSIBLE_HEAT_FACTOR
        ) / WATT_MINUTES_PER_KWH
        appliance_kwh[t] = (
            float(physical.appliance_status[t].astype(float) @ appliance_watts)
            / WATT_MINUTES_PER_KWH
        )

        physics_step(true_co2, true_temp, true_emission, true_heat, airflow, outdoor_temp)
        physics_step(
            shadow_co2, shadow_temp, shadow_emission, shadow_heat, airflow, outdoor_temp
        )

        airflow_out[t] = airflow
        co2_out[t] = true_co2
        temp_out[t] = true_temp
        delta_co2[t] = shadow_co2 - true_co2
        delta_temp[t] = shadow_temp - true_temp

    vector = AttackVector(
        spoofed_zone=applied_zone,
        spoofed_activity=applied_activity,
        delta_co2=delta_co2,
        delta_temperature=delta_temp,
        triggered=triggered,
    )
    result = SimulationResult(
        airflow_cfm=airflow_out,
        co2_ppm=co2_out,
        temperature_f=temp_out,
        hvac_kwh=hvac_kwh,
        appliance_kwh=appliance_kwh,
        start_slot=start_slot,
    )
    return AttackOutcome(
        vector=vector,
        result=result,
        applied_zone=applied_zone,
        trigger_decisions=decisions,
        applied_visit_fraction=fraction,
    )
