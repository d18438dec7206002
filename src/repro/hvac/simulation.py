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
(priced once per distinct appliance on/off pattern), and the outdoor
condition profile.  The controller feedback (zone CO2 and temperature
driving the next airflow decision) is sequential over ``t``, but each
conditioned zone's Eq. 1/2 laws and physics step read only that zone's
state, so the closed loop runs as one tight scalar recurrence per zone
over ``t``, writing whole columns of airflow, ventilation, CO2 and
temperature.  Eq. 3 metering reads every zone but feeds nothing back,
so it runs after the loop as column arithmetic: numpy row sums over
the full-width ``[T, Z]`` rows, the same sums the reference takes over
each slot's zone vector.  The ASHRAE baseline's airflow is fixed, so
its zones are the open-loop recurrence :func:`plant_response` runs.

:func:`simulate_reference` preserves the original scalar
implementation — per-slot ``controller.decide`` with the Eq. 1/2
inversion helpers and per-zone Python loops — as the oracle.  The fast
path reproduces it bit for bit at every zone count (property-tested).
Controllers other than the two known ones fall back to the reference
loop automatically.

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

:func:`simulate_batch` is the entry point for multi-home sweeps: it
checks every job's reported story before any job runs, then makes one
:func:`simulate` call per job, in input order.

:func:`closed_loop_token` is the content key under which callers
memoize a closed loop in the artifact cache's memory-only analysis
tier: the benign run (:meth:`repro.core.shatter.ShatterAnalysis.benign_result`)
and the attacked one (:func:`repro.attack.realtime.execute_attack`).
:func:`simulate` itself memoizes nothing; a stored result is made
read-only (:meth:`SimulationResult.freeze`), because every hit shares
it.
"""

from __future__ import annotations

import hashlib
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

    def freeze(self) -> "SimulationResult":
        """Make every trajectory read-only, in place, and return
        ``self``: a memoized result is shared by every caller that hits
        it."""
        for array in (
            self.airflow_cfm,
            self.co2_ppm,
            self.temperature_f,
            self.hvac_kwh,
            self.appliance_kwh,
        ):
            array.setflags(write=False)
        return self


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
    combinations), so each distinct pattern is priced once — with the
    *same* scalar operations the reference performs per slot — and the
    results are gathered back over ``[T]``.  Rows are grouped by sorting
    their packed bits (one small integer key column per 8 appliances)
    and scanning the sorted rows for boundaries, which costs a fraction
    of ``np.unique(status, axis=0)``'s sort over a void view; the order
    of the groups cannot change a bit of the result.

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
    n_slots = len(status)
    packed = np.packbits(status, axis=1)
    # lexsort's last key is its primary one; with no appliances every
    # row is the same (empty) pattern.
    order = np.lexsort(packed.T[::-1]) if packed.shape[1] else np.arange(n_slots)
    ranked = packed[order]
    starts = np.ones(n_slots, dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(n_slots, dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    patterns = status[order[starts]]
    plant_u = np.zeros((len(patterns), n_zones))
    ctrl_u = np.zeros((len(patterns), n_zones))
    kwh_u = np.zeros(len(patterns))
    for index, row in enumerate(patterns):
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
    reported_zone, reported_activity = _reported_story(
        trace, reported_zone, reported_activity
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


def _reported_story(
    trace: HomeTrace,
    reported_zone: np.ndarray | None,
    reported_activity: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """What the controller is told, defaulting to the ground truth.

    Both arrays must cover the trace slot for slot and occupant for
    occupant (``trace.occupant_zone``'s ``[T, O]``); anything else is
    refused before any compute, instead of failing inside the gain
    tables or being read short.
    """
    if reported_zone is None:
        reported_zone = trace.occupant_zone
    if reported_activity is None:
        reported_activity = trace.occupant_activity
    expected = trace.occupant_zone.shape
    for name, array in (
        ("reported_zone", reported_zone),
        ("reported_activity", reported_activity),
    ):
        if array.shape != expected:
            raise ControlError(
                f"{name} shape {array.shape} does not match "
                f"trace shape {expected}"
            )
    return reported_zone, reported_activity


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

    All per-slot gains are precomputed as matrices.  Each conditioned
    zone then runs alone over every slot (:func:`_demand_zone`), which
    beats advancing all zones slot by slot for the handful of zones a
    home has, and the AHU is metered over the finished columns
    (:func:`_ahu_kwh`).  ``fixed`` carries the (state-independent)
    airflow and ventilation decision of the ASHRAE baseline, under which
    the zones are the open-loop response :func:`_zone_response`
    computes; ``None`` means the demand-controlled law runs.
    """
    n_slots, n_zones = trace.n_slots, home.n_zones
    true_emission, true_occ_heat = occupant_gain_matrices(
        home, trace.occupant_zone, trace.occupant_activity
    )
    plant_app_heat, ctrl_app_heat, appliance_kwh = appliance_gain_tables(
        home, trace.appliance_status
    )
    true_heat = true_occ_heat + plant_app_heat
    outdoor_temps = outdoor.temperature_array(n_slots)
    temps = outdoor_temps.tolist()
    out_co2 = float(outdoor.co2_ppm)
    co2 = np.full((n_slots, n_zones), out_co2)
    temperature = np.full((n_slots, n_zones), float(config.temperature_setpoint_f))
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
        airflow = np.zeros((n_slots, n_zones))
        ventilation = np.zeros((n_slots, n_zones))
    else:
        airflow = np.tile(fixed[0], (n_slots, 1))
        ventilation = np.tile(fixed[1], (n_slots, 1))

    for zone in home.layout.conditioned_ids:
        volume = float(home.layout[zone].volume_ft3)
        if fixed is None:
            (
                airflow[:, zone],
                ventilation[:, zone],
                co2[:, zone],
                temperature[:, zone],
            ) = _demand_zone(
                ctrl_emission[:, zone],
                ctrl_heat[:, zone],
                true_emission[:, zone],
                true_heat[:, zone],
                temps,
                volume,
                config,
                out_co2,
            )
        else:
            co2[:, zone], temperature[:, zone] = _zone_response(
                airflow[:, zone],
                true_emission[:, zone],
                true_heat[:, zone],
                temps,
                volume,
                config,
                out_co2,
            )

    return SimulationResult(
        airflow_cfm=airflow,
        co2_ppm=co2,
        temperature_f=temperature,
        hvac_kwh=_ahu_kwh(airflow, ventilation, temperature, outdoor_temps, config),
        appliance_kwh=appliance_kwh,
        start_slot=start_slot,
    )


def _demand_zone(
    ctrl_emission: np.ndarray,
    ctrl_heat: np.ndarray,
    true_emission: np.ndarray,
    true_heat: np.ndarray,
    outdoor_temps: list[float],
    volume: float,
    config: ControllerConfig,
    out_co2: float,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """One conditioned zone of the demand-controlled closed loop.

    The Eq. 1/2 laws (:meth:`DemandControlledHVAC.decide`, inlined) read
    the zone's own CO2 and temperature and the reported gains, and the
    physics step moves the zone under the true gains and the decided
    airflow.  Nothing from another zone feeds back, so the zone runs
    alone over every slot, with the per-slot operation order.

    Returns:
        ``(airflow, ventilation, co2, temperature)`` over ``t``; CO2 and
        temperature are the zone's state after each slot.
    """
    capacity = config.mass_factor * volume * SENSIBLE_HEAT_FACTOR
    conductance = config.envelope_conductance(volume)
    co2_setpoint = config.co2_setpoint_ppm
    setpoint = config.temperature_setpoint_f
    supply = config.supply_temperature_f
    ctrl_out_co2 = config.outdoor_co2_ppm
    shf = SENSIBLE_HEAT_FACTOR
    ctrl_gen = (ctrl_emission / volume * 1e6).tolist()
    ctrl_gains = ctrl_heat.tolist()
    true_gen = (true_emission / volume * 1e6).tolist()
    true_gains = true_heat.tolist()
    n_slots = len(outdoor_temps)
    airflow_col = [0.0] * n_slots
    vent_col = [0.0] * n_slots
    co2_col = [0.0] * n_slots
    temp_col = [0.0] * n_slots
    co2 = out_co2
    temperature = float(setpoint)
    for t in range(n_slots):
        # Ventilation law (Eq. 1 inverted).
        unforced = co2 + ctrl_gen[t]
        if unforced <= co2_setpoint:
            vent = 0.0
        else:
            gradient = co2 - ctrl_out_co2
            if gradient <= 0:
                vent = volume
            else:
                vent = (unforced - co2_setpoint) * volume / gradient
                if vent > volume:
                    vent = volume
        # Cooling law (Eq. 2 inverted).
        leakage = conductance * (outdoor_temps[t] - temperature)
        if temperature <= supply:
            cooling_airflow = 0.0
        else:
            unforced_temp = temperature + (ctrl_gains[t] + leakage) / capacity
            if unforced_temp <= setpoint:
                cooling_airflow = 0.0
            else:
                drop = shf * (temperature - supply) / capacity
                cooling_airflow = (unforced_temp - setpoint) / drop
                if cooling_airflow > volume:
                    cooling_airflow = volume
        airflow = vent if vent > cooling_airflow else cooling_airflow
        # Physics step on the true gains.
        exchange = airflow / volume
        if exchange > 1.0:
            exchange = 1.0
        co2 = co2 + true_gen[t] - exchange * (co2 - out_co2)
        cooling = airflow * shf * (temperature - supply)
        temperature = temperature + (
            (true_gains[t] - cooling + leakage) / capacity
        )
        airflow_col[t] = airflow
        vent_col[t] = vent
        co2_col[t] = co2
        temp_col[t] = temperature
    return airflow_col, vent_col, co2_col, temp_col


def _zone_response(
    airflow: np.ndarray,
    emission: np.ndarray,
    heat: np.ndarray,
    outdoor_temps: list[float],
    volume: float,
    config: ControllerConfig,
    out_co2: float,
) -> tuple[list[float], list[float]]:
    """One conditioned zone's CO2 and temperature under given airflow.

    The physics step with nothing fed back: the state-independent terms
    are whole columns and the zone runs as one tight loop over ``t``, in
    the per-slot step's operation order, from outdoor CO2 and the
    temperature setpoint.
    """
    capacity = config.mass_factor * volume * SENSIBLE_HEAT_FACTOR
    conductance = config.envelope_conductance(volume)
    supply = config.supply_temperature_f
    generation = (emission / volume * 1e6).tolist()
    exchange = np.minimum(airflow / volume, 1.0).tolist()
    cooling_rate = (airflow * SENSIBLE_HEAT_FACTOR).tolist()
    gains = heat.tolist()
    n_slots = len(outdoor_temps)
    co2_col = [0.0] * n_slots
    temp_col = [0.0] * n_slots
    co2 = out_co2
    temperature = float(config.temperature_setpoint_f)
    for t in range(n_slots):
        co2 = co2 + generation[t] - exchange[t] * (co2 - out_co2)
        temperature = temperature + (
            gains[t]
            - cooling_rate[t] * (temperature - supply)
            + conductance * (outdoor_temps[t] - temperature)
        ) / capacity
        co2_col[t] = co2
        temp_col[t] = temperature
    return co2_col, temp_col


def _ahu_kwh(
    airflow: np.ndarray,
    ventilation: np.ndarray,
    temperature: np.ndarray,
    outdoor_temps: np.ndarray,
    config: ControllerConfig,
) -> np.ndarray:
    """Eq. 3 coil energy of the AHU mix per slot, over whole columns.

    Args:
        airflow: Supply airflow, ``[T, Z]``.
        ventilation: Its CO2-driven component, ``[T, Z]``.
        temperature: Zone temperatures after each slot, ``[T, Z]``; the
            return air of slot ``t`` comes from the zones entering it.
        outdoor_temps: Outdoor temperature per slot, ``[T]``.
        config: Setpoint, supply temperature and minimum fresh share.

    The sums over zones are row sums over full-width rows, the same
    reduction the reference takes over each slot's ``[Z]`` vector (so
    numpy's pairwise blocking at 8+ zones lines up too), and every
    other step is the reference's scalar operation applied elementwise
    in the same order.
    """
    setpoint = config.temperature_setpoint_f
    minimum = config.minimum_fresh_fraction
    entering = np.empty_like(temperature)
    entering[:1] = setpoint
    entering[1:] = temperature[:-1]
    total = airflow.sum(axis=1)
    vent_total = ventilation.sum(axis=1)
    weighted = (airflow * entering).sum(axis=1)
    moving = total > 0
    divisor = np.where(moving, total, 1.0)
    return_temp = np.where(moving, weighted / divisor, setpoint)
    share = vent_total / divisor
    fresh = np.where(moving & (share > minimum), share, minimum)
    mixed = fresh * outdoor_temps + (1.0 - fresh) * return_temp
    coil_delta = mixed - config.supply_temperature_f
    coil_delta = np.where(coil_delta > 0.0, coil_delta, 0.0)
    return total * coil_delta * SENSIBLE_HEAT_FACTOR / WATT_MINUTES_PER_KWH


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
    outdoor_temps = outdoor.temperature_array(n_slots).tolist()
    co2 = np.full((n_slots, n_zones), out_co2)
    temperature = np.full((n_slots, n_zones), float(config.temperature_setpoint_f))
    for zone in home.layout.conditioned_ids:
        co2[:, zone], temperature[:, zone] = _zone_response(
            airflow_cfm[:, zone],
            emission[:, zone],
            heat[:, zone],
            outdoor_temps,
            float(home.layout[zone].volume_ft3),
            config,
            out_co2,
        )
    return co2, temperature


# ----------------------------------------------------------------------
# Memo key
# ----------------------------------------------------------------------


def closed_loop_token(
    home: SmartHome,
    controller,
    outdoor: OutdoorConditions | None,
    start_slot: int,
    *arrays: np.ndarray,
) -> str | None:
    """The content key of a closed loop, or ``None`` when it has none.

    Callers memoize a :func:`simulate` run, and what they derive from
    it, under this key, so it covers everything the fast kernel reads:
    the ``repr`` of the home, the controller config, ``start_slot`` and
    the outdoor CO2, then the dtype, shape and raw bytes of the outdoor
    temperature and of every array passed in (the caller passes every
    trace and story array its loop reads).  The ``repr`` is exact: the
    home and the frozen config are dataclasses of strings, ints and
    floats, whose reprs round-trip.  An ndarray's would not be, since it
    rounds and truncates, so arrays are hashed by their bytes.

    Only :func:`simulate`'s own fast-kernel condition has a key: an
    exact :class:`DemandControlledHVAC` bound to ``home``.  A subclass
    may override ``decide``, and :meth:`AshraeController.calibrate`
    rewrites its design loads in place, which no config repr captures.
    """
    if type(controller) is not DemandControlledHVAC or controller.home is not home:
        return None
    outdoor = outdoor or OutdoorConditions()
    inputs = (np.asarray(outdoor.temperature_f), *arrays)
    digest = hashlib.sha256(
        repr(
            (
                home,
                controller.config,
                start_slot,
                outdoor.co2_ppm,
                [(array.dtype.str, array.shape) for array in inputs],
            )
        ).encode()
    )
    for array in inputs:
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


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
    reported_zone, reported_activity = _reported_story(
        trace, reported_zone, reported_activity
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
# Batched multi-home entry point
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


def simulate_batch(jobs: Sequence[SimulationJob]) -> list[SimulationResult]:
    """Run many independent simulations, one :func:`simulate` per job.

    Every job's reported story is checked before any job runs, so a
    misshapen story anywhere in the batch is refused before compute.
    Results are returned in input order.
    """
    for job in jobs:
        _reported_story(job.trace, job.reported_zone, job.reported_activity)
    return [
        simulate(
            job.home,
            job.trace,
            job.controller,
            outdoor=job.outdoor,
            reported_zone=job.reported_zone,
            reported_activity=job.reported_activity,
            start_slot=job.start_slot,
        )
        for job in jobs
    ]
