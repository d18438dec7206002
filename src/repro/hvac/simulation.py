"""Closed-loop simulation: controller + zone physics + energy metering.

Each minute the controller reads measurements (which an attacker may
have spoofed), decides airflow, and the *physical* zones respond to the
true occupants and appliances.  Energy is metered per Eq. 3 — coil
energy to cool the AHU's fresh/return mix to the supply temperature,
plus appliance power — and billed with the TOU model of Eq. 4.

The separation between ``trace`` (ground truth) and the ``reported_*``
arrays (what the controller believes) is the attack surface: an FDI
attack changes the reported arrays, while an appliance-triggering attack
changes the ground-truth appliance status itself.

Execution tiers
---------------

:func:`simulate` is array-native: everything that does not depend on
the feedback state is precomputed as ``[T, zones]`` matrices up front —
occupant CO2/heat gains (true and reported), appliance heat and power
(deduplicated over distinct appliance on/off patterns), and the outdoor
condition profile — and the remaining sequential loop over slots is a
tight kernel over those rows.  The controller feedback (zone CO2 and
temperature driving the next airflow decision) is inherently sequential
over ``t``, so that loop survives; per slot it is pure arithmetic with
no catalog lookups, no per-occupant scans, and no helper-function
dispatch.

:func:`simulate_reference` preserves the original scalar
implementation — per-slot ``controller.decide`` with the Eq. 1/2
inversion helpers and per-zone Python loops — as the oracle.  The fast
path reproduces it bit for bit (property-tested; for homes with eight
or more zones the AHU metering sums match to summation-order rounding,
see ``_fold``).  Controllers other than the two known ones fall back to
the reference loop automatically.

:func:`plant_response` is the open-loop half of the plant: zone CO2
and temperature under an airflow schedule that is given, not decided.
With no feedback every conditioned zone is an independent recurrence
over ``t``, run as one tight loop per zone over precomputed gain
columns, in the physics step's operation order.  Attack execution
(:mod:`repro.attack.realtime`) pairs it with :func:`simulate`: the
deceived controller's closed loop is a :func:`simulate` call over the
reported story, and the true zones are the open-loop response to the
airflow that call returns — bit-identical to stepping both plants
slot by slot.

:func:`simulate_batch` runs many independent simulations in one stacked
array program: the zone axes of all jobs are concatenated, so one slot
advance vectorizes across every home in the batch — the entry point for
multi-home sweeps and multi-day shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ControlError
from repro.events.dispatch import SIMULATION, kernel_timer
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.hvac.ashrae import AshraeController
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.units import (
    DEFAULT_OUTDOOR_TEMPERATURE_F,
    MINUTES_PER_DAY,
    OUTDOOR_CO2_PPM,
    SENSIBLE_HEAT_FACTOR,
    WATT_MINUTES_PER_KWH,
)


@dataclass(frozen=True)
class OutdoorConditions:
    """Weather boundary conditions.

    Attributes:
        temperature_f: Constant outdoor temperature, or a per-slot array.
        co2_ppm: Outdoor CO2.
    """

    temperature_f: float | np.ndarray = DEFAULT_OUTDOOR_TEMPERATURE_F
    co2_ppm: float = OUTDOOR_CO2_PPM

    def temperature_array(self, n_slots: int) -> np.ndarray:
        """The outdoor temperature resolved to a per-slot ``[n_slots]``
        array, once per simulation (instead of an ``np.isscalar`` check
        and float conversion on every slot)."""
        if np.isscalar(self.temperature_f):
            return np.full(n_slots, float(self.temperature_f))  # type: ignore[arg-type]
        profile = np.asarray(self.temperature_f, dtype=float)
        if len(profile) < n_slots:
            raise ControlError(
                f"outdoor temperature profile covers {len(profile)} slots, "
                f"but the simulation needs {n_slots}"
            )
        return profile[:n_slots]

    def temperature_at(self, slot: int) -> float:
        if np.isscalar(self.temperature_f):
            return float(self.temperature_f)  # type: ignore[arg-type]
        return float(self.temperature_f[slot])  # type: ignore[index]


@dataclass
class SimulationResult:
    """Trajectories and energy accounting of a closed-loop run."""

    airflow_cfm: np.ndarray
    co2_ppm: np.ndarray
    temperature_f: np.ndarray
    hvac_kwh: np.ndarray
    appliance_kwh: np.ndarray
    start_slot: int = 0

    @property
    def total_kwh(self) -> np.ndarray:
        return self.hvac_kwh + self.appliance_kwh

    @property
    def n_slots(self) -> int:
        return len(self.hvac_kwh)

    def cost(self, pricing: TouPricing) -> float:
        """Total bill over the simulated span."""
        return pricing.cost(self.total_kwh, start_slot=self.start_slot)

    def daily_costs(self, pricing: TouPricing) -> np.ndarray:
        """Per-day bills (requires whole days)."""
        days = self.n_slots // MINUTES_PER_DAY
        return np.array(
            [
                pricing.cost(
                    self.total_kwh[d * MINUTES_PER_DAY : (d + 1) * MINUTES_PER_DAY],
                    start_slot=self.start_slot + d * MINUTES_PER_DAY,
                )
                for d in range(days)
            ]
        )


# ----------------------------------------------------------------------
# Shared precomputation: state-independent gain matrices.
#
# Accumulation orders mirror the reference loops exactly (occupants in
# ascending id order; appliance heat via the same vector-matrix product
# on identical inputs), so the precomputed rows carry the same bits the
# reference computes per slot.
# ----------------------------------------------------------------------


def occupant_gain_matrices(
    home: SmartHome, zone: np.ndarray, activity: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot occupant CO2/heat gains, ``([T, Z], [T, Z])``.

    Args:
        home: The home (occupant metabolic factors, activity catalog).
        zone: Occupant zones, ``[T, O]`` (0 = outside contributes nothing).
        activity: Conducted/reported activity ids, ``[T, O]``.

    Returns:
        ``(emission_ft3_per_min, heat_watts)`` matrices over all zones.
    """
    n_slots = zone.shape[0]
    emission = np.zeros((n_slots, home.n_zones))
    heat = np.zeros((n_slots, home.n_zones))
    max_id = max(a.activity_id for a in home.activities)
    slots = np.arange(n_slots)
    for occupant in home.occupants:
        co2_table = np.zeros(max_id + 1)
        heat_table = np.zeros(max_id + 1)
        for act in home.activities:
            co2_table[act.activity_id] = occupant.co2_rate(act.co2_ft3_per_min)
            heat_table[act.activity_id] = occupant.heat_rate(act.heat_watts)
        zones_o = zone[:, occupant.occupant_id]
        acts_o = activity[:, occupant.occupant_id]
        present = zones_o != 0
        where = slots[present]
        target = zones_o[present]
        np.add.at(emission, (where, target), co2_table[acts_o[present]])
        np.add.at(heat, (where, target), heat_table[acts_o[present]])
    return emission, heat


def appliance_gain_tables(
    home: SmartHome, status: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-slot appliance heat and power, deduplicated by on/off pattern.

    A trace has few distinct appliance status rows (driven by activity
    combinations), so each unique pattern is priced once — with the
    *same* scalar operations the reference performs per slot — and the
    results are gathered back over ``[T]``.

    Args:
        home: The home (appliance heat/power and zone placement).
        status: Appliance on/off, ``[T, D]`` bools.

    Returns:
        ``(plant_heat[T, Z], controller_heat[T, Z], appliance_kwh[T])``.
        Plant heat uses the simulator's vector-matrix product;
        controller heat uses the controller's per-appliance accumulation
        loop (the two reference paths differ in accumulation order).
    """
    n_zones = home.n_zones
    heat_by_zone = np.zeros((home.n_appliances, n_zones))
    watts = np.zeros(home.n_appliances)
    for appliance in home.appliances:
        heat_by_zone[appliance.appliance_id, appliance.zone_id] = (
            appliance.heat_watts
        )
        watts[appliance.appliance_id] = appliance.power_watts
    unique, inverse = np.unique(status, axis=0, return_inverse=True)
    plant_u = np.zeros((len(unique), n_zones))
    ctrl_u = np.zeros((len(unique), n_zones))
    kwh_u = np.zeros(len(unique))
    for index, row in enumerate(unique):
        floats = row.astype(float)
        plant_u[index] = floats @ heat_by_zone
        kwh_u[index] = float(floats @ watts) / WATT_MINUTES_PER_KWH
        for appliance in home.appliances:
            if row[appliance.appliance_id]:
                ctrl_u[index, appliance.zone_id] += appliance.heat_watts
    return plant_u[inverse], ctrl_u[inverse], kwh_u[inverse]


# ----------------------------------------------------------------------
# Fast path
# ----------------------------------------------------------------------


def simulate(
    home: SmartHome,
    trace: HomeTrace,
    controller,
    outdoor: OutdoorConditions | None = None,
    reported_zone: np.ndarray | None = None,
    reported_activity: np.ndarray | None = None,
    start_slot: int = 0,
) -> SimulationResult:
    """Run the closed loop over a trace.

    Args:
        home: The home being controlled.
        trace: Ground-truth occupancy/activity/appliance trace.
        controller: Any object with ``decide(...)`` and ``config``
            (:class:`DemandControlledHVAC` or :class:`AshraeController`
            take the array-native fast path; anything else runs through
            :func:`simulate_reference`).
        outdoor: Weather; defaults to a constant cooling-season day.
        reported_zone: What the controller is told about occupant zones,
            ``[T, O]``; defaults to ground truth (benign run).
        reported_activity: Reported activities ``[T, O]``; defaults to
            ground truth.
        start_slot: Absolute slot of ``trace``'s first sample (affects
            TOU pricing alignment when costing the result).

    Returns:
        The full state/energy trajectories.
    """
    outdoor = outdoor or OutdoorConditions()
    if reported_zone is None:
        reported_zone = trace.occupant_zone
    if reported_activity is None:
        reported_activity = trace.occupant_activity
    if reported_zone.shape != trace.occupant_zone.shape:
        raise ControlError(
            f"reported_zone shape {reported_zone.shape} does not match "
            f"trace shape {trace.occupant_zone.shape}"
        )
    # Exact-type checks: a subclass may override decide() with different
    # (or state-dependent) semantics, and must fall back to the
    # reference loop that actually calls it every slot.
    with kernel_timer(SIMULATION):
        if type(controller) is DemandControlledHVAC and controller.home is home:
            return _simulate_fast(
                home,
                trace,
                controller.config,
                outdoor,
                reported_zone,
                reported_activity,
                start_slot,
                fixed=None,
            )
        if type(controller) is AshraeController and controller.home is home:
            probe_co2 = np.full(home.n_zones, outdoor.co2_ppm)
            probe_temp = np.full(
                home.n_zones, controller.config.temperature_setpoint_f
            )
            decision = controller.decide(
                co2_ppm=probe_co2,
                temperature_f=probe_temp,
                reported_zone=reported_zone[0],
                reported_activity=reported_activity[0],
                appliance_status=trace.appliance_status[0],
                outdoor_temperature_f=outdoor.temperature_at(0),
            )
            return _simulate_fast(
                home,
                trace,
                controller.config,
                outdoor,
                reported_zone,
                reported_activity,
                start_slot,
                fixed=(decision.airflow_cfm, decision.ventilation_cfm),
            )
        return simulate_reference(
            home,
            trace,
            controller,
            outdoor,
            reported_zone,
            reported_activity,
            start_slot,
        )


def _fold(values: list) -> float:
    """Left-fold sum, bit-equal to ``np.sum`` for fewer than 8 elements.

    numpy's pairwise summation degenerates to a sequential accumulation
    below its 8-element unroll, which is why the fast kernel's scalar
    metering is bit-identical to the reference for homes with fewer than
    8 zones; at 8+ zones the two differ only in summation-order
    rounding (see the equivalence tests' tolerance split).
    """
    total = 0.0
    for value in values:
        total += value
    return total


def _simulate_fast(
    home: SmartHome,
    trace: HomeTrace,
    config: ControllerConfig,
    outdoor: OutdoorConditions,
    reported_zone: np.ndarray,
    reported_activity: np.ndarray,
    start_slot: int,
    fixed: tuple[np.ndarray, np.ndarray] | None,
) -> SimulationResult:
    """The array-native engine behind :func:`simulate`.

    All per-slot gains are precomputed as matrices; the remaining
    sequential loop works on plain floats per conditioned zone, which
    beats per-slot numpy dispatch for the handful of zones a home has.
    ``fixed`` carries the (state-independent) airflow decision of the
    ASHRAE baseline; ``None`` means the demand-controlled law runs.
    """
    n_slots, n_zones = trace.n_slots, home.n_zones

    true_emission, true_occ_heat = occupant_gain_matrices(
        home, trace.occupant_zone, trace.occupant_activity
    )
    plant_app_heat, ctrl_app_heat, appliance_kwh = appliance_gain_tables(
        home, trace.appliance_status
    )
    true_heat = true_occ_heat + plant_app_heat

    conditioned = list(home.layout.conditioned_ids)
    volumes = [float(home.layout[z].volume_ft3) for z in conditioned]
    capacities = [
        config.mass_factor * v * SENSIBLE_HEAT_FACTOR for v in volumes
    ]
    conductances = [config.envelope_conductance(v) for v in volumes]
    n_cond = len(conditioned)
    co2_setpoint = config.co2_setpoint_ppm
    temp_setpoint = config.temperature_setpoint_f
    supply = config.supply_temperature_f
    ctrl_out_co2 = config.outdoor_co2_ppm
    min_fresh = config.minimum_fresh_fraction
    out_co2 = outdoor.co2_ppm
    shf = SENSIBLE_HEAT_FACTOR

    outdoor_temps = outdoor.temperature_array(n_slots).tolist()
    true_e = true_emission[:, conditioned].tolist()
    true_h = true_heat[:, conditioned].tolist()

    if fixed is None:
        if (
            reported_zone is trace.occupant_zone
            and reported_activity is trace.occupant_activity
        ):
            ctrl_emission, ctrl_occ_heat = true_emission, true_occ_heat
        else:
            ctrl_emission, ctrl_occ_heat = occupant_gain_matrices(
                home, reported_zone, reported_activity
            )
        ctrl_heat = ctrl_occ_heat + ctrl_app_heat
        ctrl_e = ctrl_emission[:, conditioned].tolist()
        ctrl_h = ctrl_heat[:, conditioned].tolist()
        fixed_airflow = fixed_ventilation = None
    else:
        ctrl_e = ctrl_h = None
        fixed_airflow = [float(fixed[0][z]) for z in conditioned]
        fixed_ventilation = [float(fixed[1][z]) for z in conditioned]

    co2 = [float(out_co2)] * n_cond
    temperature = [float(temp_setpoint)] * n_cond

    airflow_out = np.zeros((n_slots, n_zones))
    co2_out = np.full((n_slots, n_zones), float(out_co2))
    temp_out = np.full((n_slots, n_zones), float(temp_setpoint))
    hvac_kwh = np.zeros(n_slots)

    # Metering must reproduce the reference's np.sum over the full
    # zone-length vectors: below 8 zones that is a plain left fold (the
    # inert zones contribute exact zeros); at 8+ zones numpy's pairwise
    # blocking kicks in, so the kernel keeps full-length mirrors and
    # lets numpy do the same sums.
    scalar_sums = n_zones < 8
    if not scalar_sums:
        af_vec = np.zeros(n_zones)
        vent_vec = np.zeros(n_zones)
        temp_vec = np.full(n_zones, float(temp_setpoint))

    airflow = [0.0] * n_cond
    ventilation = [0.0] * n_cond
    for t in range(n_slots):
        outdoor_temp = outdoor_temps[t]
        if fixed is None:
            ce_t = ctrl_e[t]
            ch_t = ctrl_h[t]
            for index in range(n_cond):
                volume = volumes[index]
                zone_co2 = co2[index]
                unforced = zone_co2 + ce_t[index] / volume * 1e6
                if unforced <= co2_setpoint:
                    vent = 0.0
                else:
                    gradient = zone_co2 - ctrl_out_co2
                    if gradient <= 0:
                        vent = volume
                    else:
                        vent = (unforced - co2_setpoint) * volume / gradient
                        if vent > volume:
                            vent = volume
                zone_temp = temperature[index]
                if zone_temp <= supply:
                    cooling_airflow = 0.0
                else:
                    capacity = capacities[index]
                    leakage = conductances[index] * (outdoor_temp - zone_temp)
                    unforced_temp = zone_temp + (ch_t[index] + leakage) / capacity
                    if unforced_temp <= temp_setpoint:
                        cooling_airflow = 0.0
                    else:
                        drop = shf * (zone_temp - supply) / capacity
                        cooling_airflow = (unforced_temp - temp_setpoint) / drop
                        if cooling_airflow > volume:
                            cooling_airflow = volume
                ventilation[index] = vent
                airflow[index] = (
                    vent if vent > cooling_airflow else cooling_airflow
                )
        else:
            airflow = fixed_airflow
            ventilation = fixed_ventilation

        # Eq. 3 metering on the AHU mix.
        if scalar_sums:
            total_airflow = _fold(airflow)
            vent_total = _fold(ventilation)
            weighted = _fold(
                [airflow[i] * temperature[i] for i in range(n_cond)]
            )
        else:
            for index in range(n_cond):
                zone = conditioned[index]
                af_vec[zone] = airflow[index]
                vent_vec[zone] = ventilation[index]
                temp_vec[zone] = temperature[index]
            total_airflow = float(af_vec.sum())
            vent_total = float(vent_vec.sum())
            weighted = float((af_vec * temp_vec).sum())
        if total_airflow > 0:
            return_temp = weighted / total_airflow
            fresh = vent_total / total_airflow
            if fresh < min_fresh:
                fresh = min_fresh
        else:
            return_temp = temp_setpoint
            fresh = min_fresh
        mixed_temp = fresh * outdoor_temp + (1.0 - fresh) * return_temp
        coil_delta = mixed_temp - supply
        if coil_delta < 0.0:
            coil_delta = 0.0
        hvac_kwh[t] = (
            total_airflow * coil_delta * SENSIBLE_HEAT_FACTOR
        ) / WATT_MINUTES_PER_KWH

        # Physics step on the true gains.
        te_t = true_e[t]
        th_t = true_h[t]
        for index in range(n_cond):
            volume = volumes[index]
            af = airflow[index]
            exchange = af / volume
            if exchange > 1.0:
                exchange = 1.0
            zone_co2 = co2[index]
            zone_co2 = (
                zone_co2
                + te_t[index] / volume * 1e6
                - exchange * (zone_co2 - out_co2)
            )
            co2[index] = zone_co2
            zone_temp = temperature[index]
            cooling = af * shf * (zone_temp - supply)
            leakage = conductances[index] * (outdoor_temp - zone_temp)
            zone_temp = zone_temp + (
                (th_t[index] - cooling + leakage) / capacities[index]
            )
            temperature[index] = zone_temp
            zone = conditioned[index]
            airflow_out[t, zone] = af
            co2_out[t, zone] = zone_co2
            temp_out[t, zone] = zone_temp

    return SimulationResult(
        airflow_cfm=airflow_out,
        co2_ppm=co2_out,
        temperature_f=temp_out,
        hvac_kwh=hvac_kwh,
        appliance_kwh=appliance_kwh.copy(),
        start_slot=start_slot,
    )


def plant_response(
    home: SmartHome,
    trace: HomeTrace,
    airflow_cfm: np.ndarray,
    config: ControllerConfig,
    outdoor: OutdoorConditions | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Zone CO2 and temperature under a given airflow schedule.

    The open-loop half of the plant: nothing feeds back into
    ``airflow_cfm``, so every conditioned zone is an independent scalar
    recurrence over ``t``, driven by the trace's occupant and appliance
    gains.  The state-independent terms are computed as whole columns
    and each zone then runs as one tight loop, with the physics step's
    operation order, so the trajectories are bit-identical to stepping
    the zones slot by slot next to the controller.

    Args:
        home: The home (zone volumes, occupants, appliances).
        trace: Ground-truth occupants, activities and appliance status.
        airflow_cfm: Supply airflow per zone, ``[T, Z]``.
        config: Plant parameters (thermal mass, supply temperature,
            envelope conductance); zones start at its temperature
            setpoint.
        outdoor: Weather; defaults to a constant cooling-season day.

    Returns:
        ``(co2_ppm, temperature_f)``, each ``[T, Z]``; unconditioned
        zones hold their initial values.
    """
    outdoor = outdoor or OutdoorConditions()
    n_slots, n_zones = trace.n_slots, home.n_zones
    if airflow_cfm.shape != (n_slots, n_zones):
        raise ControlError(
            f"airflow shape {airflow_cfm.shape} does not match "
            f"({n_slots} slots, {n_zones} zones)"
        )
    emission, occupant_heat = occupant_gain_matrices(
        home, trace.occupant_zone, trace.occupant_activity
    )
    appliance_heat, _, _ = appliance_gain_tables(home, trace.appliance_status)
    heat = occupant_heat + appliance_heat

    out_co2 = float(outdoor.co2_ppm)
    setpoint = float(config.temperature_setpoint_f)
    supply = config.supply_temperature_f
    outdoor_temps = outdoor.temperature_array(n_slots).tolist()
    co2_out = np.full((n_slots, n_zones), out_co2)
    temp_out = np.full((n_slots, n_zones), setpoint)
    for zone in home.layout.conditioned_ids:
        volume = float(home.layout[zone].volume_ft3)
        capacity = config.mass_factor * volume * SENSIBLE_HEAT_FACTOR
        conductance = config.envelope_conductance(volume)
        airflow = airflow_cfm[:, zone]
        generation = (emission[:, zone] / volume * 1e6).tolist()
        exchange = np.minimum(airflow / volume, 1.0).tolist()
        cooling_rate = (airflow * SENSIBLE_HEAT_FACTOR).tolist()
        gains = heat[:, zone].tolist()
        co2_col = [0.0] * n_slots
        temp_col = [0.0] * n_slots
        co2 = out_co2
        temperature = setpoint
        for t in range(n_slots):
            co2 = co2 + generation[t] - exchange[t] * (co2 - out_co2)
            temperature = temperature + (
                gains[t]
                - cooling_rate[t] * (temperature - supply)
                + conductance * (outdoor_temps[t] - temperature)
            ) / capacity
            co2_col[t] = co2
            temp_col[t] = temperature
        co2_out[:, zone] = co2_col
        temp_out[:, zone] = temp_col
    return co2_out, temp_out


# ----------------------------------------------------------------------
# Scalar reference (the oracle)
# ----------------------------------------------------------------------


def simulate_reference(
    home: SmartHome,
    trace: HomeTrace,
    controller,
    outdoor: OutdoorConditions | None = None,
    reported_zone: np.ndarray | None = None,
    reported_activity: np.ndarray | None = None,
    start_slot: int = 0,
) -> SimulationResult:
    """The preserved scalar implementation of :func:`simulate`.

    One ``controller.decide`` call and per-zone Python physics per slot,
    exactly as originally written — the oracle the fast kernel's
    equivalence property tests run against, and the fallback for
    controllers the fast path does not recognise.
    """
    outdoor = outdoor or OutdoorConditions()
    config: ControllerConfig = controller.config
    if reported_zone is None:
        reported_zone = trace.occupant_zone
    if reported_activity is None:
        reported_activity = trace.occupant_activity
    if reported_zone.shape != trace.occupant_zone.shape:
        raise ControlError(
            f"reported_zone shape {reported_zone.shape} does not match "
            f"trace shape {trace.occupant_zone.shape}"
        )

    n_slots, n_zones = trace.n_slots, home.n_zones
    co2 = np.full(n_zones, outdoor.co2_ppm, dtype=float)
    temperature = np.full(n_zones, config.temperature_setpoint_f, dtype=float)

    airflow_out = np.zeros((n_slots, n_zones))
    co2_out = np.zeros((n_slots, n_zones))
    temp_out = np.zeros((n_slots, n_zones))
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
    outdoor_temps = outdoor.temperature_array(n_slots)

    for t in range(n_slots):
        outdoor_temp = float(outdoor_temps[t])
        decision = controller.decide(
            co2_ppm=co2,
            temperature_f=temperature,
            reported_zone=reported_zone[t],
            reported_activity=reported_activity[t],
            appliance_status=trace.appliance_status[t],
            outdoor_temperature_f=outdoor_temp,
        )
        airflow = decision.airflow_cfm

        # True per-zone gains from the physical occupants and appliances.
        true_emission = np.zeros(n_zones)
        true_heat = np.zeros(n_zones)
        for occupant in home.occupants:
            zone = int(trace.occupant_zone[t, occupant.occupant_id])
            if zone == 0:
                continue
            activity = home.activities.by_id(
                int(trace.occupant_activity[t, occupant.occupant_id])
            )
            true_emission[zone] += occupant.co2_rate(activity.co2_ft3_per_min)
            true_heat[zone] += occupant.heat_rate(activity.heat_watts)
        status = trace.appliance_status[t].astype(float)
        true_heat += status @ appliance_heat_by_zone

        # Energy metering: mixed-air cooling (Eq. 3) + appliance power.
        fresh = decision.fresh_fraction(config.minimum_fresh_fraction)
        total_airflow = float(airflow.sum())
        if total_airflow > 0:
            return_temp = float(
                (airflow * temperature).sum() / total_airflow
            )
        else:
            return_temp = config.temperature_setpoint_f
        mixed_temp = fresh * outdoor_temp + (1.0 - fresh) * return_temp
        coil_delta = max(0.0, mixed_temp - config.supply_temperature_f)
        hvac_watts = total_airflow * coil_delta * SENSIBLE_HEAT_FACTOR
        hvac_kwh[t] = hvac_watts / WATT_MINUTES_PER_KWH
        appliance_kwh[t] = float(status @ appliance_watts) / WATT_MINUTES_PER_KWH

        # Physics step.
        for zone in conditioned:
            volume = volumes[zone]
            exchange = min(airflow[zone] / volume, 1.0)
            co2[zone] = (
                co2[zone]
                + true_emission[zone] / volume * 1e6
                - exchange * (co2[zone] - outdoor.co2_ppm)
            )
            capacity = config.mass_factor * volume * SENSIBLE_HEAT_FACTOR
            cooling = (
                airflow[zone]
                * SENSIBLE_HEAT_FACTOR
                * (temperature[zone] - config.supply_temperature_f)
            )
            leakage = config.envelope_conductance(volume) * (
                outdoor_temp - temperature[zone]
            )
            temperature[zone] += (true_heat[zone] - cooling + leakage) / capacity

        airflow_out[t] = airflow
        co2_out[t] = co2
        temp_out[t] = temperature

    return SimulationResult(
        airflow_cfm=airflow_out,
        co2_ppm=co2_out,
        temperature_f=temp_out,
        hvac_kwh=hvac_kwh,
        appliance_kwh=appliance_kwh,
        start_slot=start_slot,
    )


# ----------------------------------------------------------------------
# Batched multi-day / multi-home entry point
# ----------------------------------------------------------------------


@dataclass
class SimulationJob:
    """One independent closed-loop run inside a batch.

    The fields mirror :func:`simulate`'s arguments; ``reported_zone`` /
    ``reported_activity`` default to ground truth.
    """

    home: SmartHome
    trace: HomeTrace
    controller: object
    outdoor: OutdoorConditions | None = None
    reported_zone: np.ndarray | None = None
    reported_activity: np.ndarray | None = None
    start_slot: int = 0


_STACK_THRESHOLD = 8  # measured crossover: stacking beats per-job runs


def simulate_batch(jobs: Sequence[SimulationJob]) -> list[SimulationResult]:
    """Run many independent simulations as one stacked array program.

    Jobs driven by :class:`DemandControlledHVAC` over the same number of
    slots are grouped, their (conditioned) zone axes concatenated, and
    the whole group advances slot by slot with one set of vectorized
    operations — the per-slot cost is shared by every home in the
    group, which is what makes wide sweeps (many homes, many attack
    variants, sharded day ranges) cheap.  Jobs the stacked kernel would
    not speed up (other controllers, groups below the measured
    ``_STACK_THRESHOLD`` crossover) run through :func:`simulate`
    individually; results are returned in input order either way, and
    match per-job :func:`simulate` runs (bit-identical for homes under
    8 zones — the AHU metering reductions follow the same
    summation-order caveat as the fast kernel).
    """
    results: list[SimulationResult | None] = [None] * len(jobs)
    groups: dict[int, list[int]] = {}
    for index, job in enumerate(jobs):
        if (
            type(job.controller) is DemandControlledHVAC
            and job.controller.home is job.home
        ):
            groups.setdefault(job.trace.n_slots, []).append(index)
    grouped: set[int] = set()
    with kernel_timer(SIMULATION):
        for indices in groups.values():
            if len(indices) < _STACK_THRESHOLD:
                continue
            for index, result in zip(
                indices, _simulate_stacked([jobs[i] for i in indices])
            ):
                results[index] = result
            grouped.update(indices)
    for index, job in enumerate(jobs):
        if index not in grouped:
            results[index] = simulate(
                job.home,
                job.trace,
                job.controller,
                outdoor=job.outdoor,
                reported_zone=job.reported_zone,
                reported_activity=job.reported_activity,
                start_slot=job.start_slot,
            )
    return results  # type: ignore[return-value]


def _simulate_stacked(jobs: list[SimulationJob]) -> list[SimulationResult]:
    """Advance a group of demand-controlled jobs in one zone-stacked loop."""
    n_slots = jobs[0].trace.n_slots
    n_jobs = len(jobs)

    # Per-job segment layout over the concatenated conditioned zones.
    seg_starts: list[int] = []
    job_of_zone: list[int] = []
    cond_ids: list[list[int]] = []
    cursor = 0
    for j, job in enumerate(jobs):
        ids = list(job.home.layout.conditioned_ids)
        cond_ids.append(ids)
        seg_starts.append(cursor)
        job_of_zone.extend([j] * len(ids))
        cursor += len(ids)
    total = cursor
    owner = np.array(job_of_zone, dtype=np.intp)

    def per_zone(values_by_job: list[list[float]]) -> np.ndarray:
        return np.array([v for values in values_by_job for v in values])

    volumes = per_zone(
        [[float(job.home.layout[z].volume_ft3) for z in ids] for job, ids in zip(jobs, cond_ids)]
    )
    configs = [job.controller.config for job in jobs]  # type: ignore[union-attr]
    capacities = per_zone(
        [
            [cfg.mass_factor * float(job.home.layout[z].volume_ft3) * SENSIBLE_HEAT_FACTOR for z in ids]
            for job, ids, cfg in zip(jobs, cond_ids, configs)
        ]
    )
    conductances = per_zone(
        [
            [cfg.envelope_conductance(float(job.home.layout[z].volume_ft3)) for z in ids]
            for job, ids, cfg in zip(jobs, cond_ids, configs)
        ]
    )
    co2_set = np.array([cfg.co2_setpoint_ppm for cfg in configs])[owner]
    temp_set = np.array([cfg.temperature_setpoint_f for cfg in configs])[owner]
    supply = np.array([cfg.supply_temperature_f for cfg in configs])[owner]
    ctrl_out_co2 = np.array([cfg.outdoor_co2_ppm for cfg in configs])[owner]
    temp_set_j = np.array([cfg.temperature_setpoint_f for cfg in configs])
    supply_j = np.array([cfg.supply_temperature_f for cfg in configs])
    min_fresh_j = np.array([cfg.minimum_fresh_fraction for cfg in configs])
    outdoors = [job.outdoor or OutdoorConditions() for job in jobs]
    out_co2 = np.array([o.co2_ppm for o in outdoors])[owner]
    out_temp_j = np.stack(
        [o.temperature_array(n_slots) for o in outdoors], axis=1
    )  # [T, J]

    ctrl_gen = np.empty((n_slots, total))
    true_gen = np.empty((n_slots, total))
    ctrl_heat = np.empty((n_slots, total))
    true_heat = np.empty((n_slots, total))
    appliance_kwh: list[np.ndarray] = []
    for j, job in enumerate(jobs):
        reported_zone = (
            job.reported_zone
            if job.reported_zone is not None
            else job.trace.occupant_zone
        )
        reported_activity = (
            job.reported_activity
            if job.reported_activity is not None
            else job.trace.occupant_activity
        )
        if reported_zone.shape != job.trace.occupant_zone.shape:
            raise ControlError(
                f"reported_zone shape {reported_zone.shape} does not match "
                f"trace shape {job.trace.occupant_zone.shape}"
            )
        te, th_occ = occupant_gain_matrices(
            job.home, job.trace.occupant_zone, job.trace.occupant_activity
        )
        plant_app, ctrl_app, kwh = appliance_gain_tables(
            job.home, job.trace.appliance_status
        )
        if (
            reported_zone is job.trace.occupant_zone
            and reported_activity is job.trace.occupant_activity
        ):
            ce, ch_occ = te, th_occ
        else:
            ce, ch_occ = occupant_gain_matrices(
                job.home, reported_zone, reported_activity
            )
        ids = cond_ids[j]
        sl = slice(seg_starts[j], seg_starts[j] + len(ids))
        vol = volumes[sl]
        ctrl_gen[:, sl] = ce[:, ids] / vol * 1e6
        true_gen[:, sl] = te[:, ids] / vol * 1e6
        ctrl_heat[:, sl] = (ch_occ + ctrl_app)[:, ids]
        true_heat[:, sl] = (th_occ + plant_app)[:, ids]
        appliance_kwh.append(kwh)

    co2 = out_co2.astype(float).copy()
    temperature = temp_set.astype(float).copy()

    af_out = np.zeros((n_slots, total))
    co2_trace = np.zeros((n_slots, total))
    temp_trace = np.zeros((n_slots, total))
    hvac_out = np.zeros((n_slots, n_jobs))

    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(n_slots):
            otz = out_temp_j[t][owner]
            # Ventilation law (Eq. 1 inverted), elementwise per zone.
            unforced = co2 + ctrl_gen[t]
            gradient = co2 - ctrl_out_co2
            vent = np.minimum((unforced - co2_set) * volumes / gradient, volumes)
            vent = np.where(gradient <= 0, volumes, vent)
            vent = np.where(unforced <= co2_set, 0.0, vent)
            # Cooling law (Eq. 2 inverted).
            leakage = conductances * (otz - temperature)
            unforced_temp = temperature + (ctrl_heat[t] + leakage) / capacities
            drop = SENSIBLE_HEAT_FACTOR * (temperature - supply) / capacities
            cool = np.minimum((unforced_temp - temp_set) / drop, volumes)
            cool = np.where(unforced_temp <= temp_set, 0.0, cool)
            cool = np.where(temperature <= supply, 0.0, cool)
            airflow = np.maximum(vent, cool)

            # Per-job AHU metering (Eq. 3).  bincount accumulates in
            # element order — the same left fold the fast kernel's
            # scalar metering performs, so small homes stay bit-exact.
            tot = np.bincount(owner, weights=airflow, minlength=n_jobs)
            vent_tot = np.bincount(owner, weights=vent, minlength=n_jobs)
            weighted = np.bincount(
                owner, weights=airflow * temperature, minlength=n_jobs
            )
            positive = tot > 0
            safe_tot = np.where(positive, tot, 1.0)
            return_temp = np.where(positive, weighted / safe_tot, temp_set_j)
            fresh = np.where(
                positive,
                np.maximum(min_fresh_j, vent_tot / safe_tot),
                min_fresh_j,
            )
            mixed = fresh * out_temp_j[t] + (1.0 - fresh) * return_temp
            coil = np.maximum(0.0, mixed - supply_j)
            hvac_out[t] = (
                tot * coil * SENSIBLE_HEAT_FACTOR
            ) / WATT_MINUTES_PER_KWH

            # Physics step.
            exchange = np.minimum(airflow / volumes, 1.0)
            co2 = co2 + true_gen[t] - exchange * (co2 - out_co2)
            cooling = airflow * SENSIBLE_HEAT_FACTOR * (temperature - supply)
            temperature = temperature + (
                (true_heat[t] - cooling + leakage) / capacities
            )

            af_out[t] = airflow
            co2_trace[t] = co2
            temp_trace[t] = temperature

    results = []
    for j, job in enumerate(jobs):
        ids = cond_ids[j]
        sl = slice(seg_starts[j], seg_starts[j] + len(ids))
        n_zones = job.home.n_zones
        airflow_full = np.zeros((n_slots, n_zones))
        co2_full = np.full((n_slots, n_zones), float(outdoors[j].co2_ppm))
        temp_full = np.full(
            (n_slots, n_zones), float(configs[j].temperature_setpoint_f)
        )
        airflow_full[:, ids] = af_out[:, sl]
        co2_full[:, ids] = co2_trace[:, sl]
        temp_full[:, ids] = temp_trace[:, sl]
        results.append(
            SimulationResult(
                airflow_cfm=airflow_full,
                co2_ppm=co2_full,
                temperature_f=temp_full,
                hvac_kwh=hvac_out[:, j].copy(),
                appliance_kwh=appliance_kwh[j],
                start_slot=job.start_slot,
            )
        )
    return results
