"""The demand-controlled HVAC substrate (Section II and Eqs. 1-4).

``ventilation`` and ``thermal`` hold the per-zone physics; ``controller``
implements the paper's activity-aware DCHVAC controller and
``ashrae`` the average-load ASHRAE-style baseline it is compared with in
Fig. 3; ``pricing`` implements the TOU tariff + battery cost model of
Eq. 4; ``simulation`` closes the loop over a trace and meters energy.
"""

from repro.hvac.ashrae import AshraeController
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import (
    OutdoorConditions,
    SimulationJob,
    SimulationResult,
    plant_response,
    simulate,
    simulate_batch,
    simulate_reference,
)
from repro.hvac.thermal import (
    required_airflow_for_heat,
    steady_state_cooling_airflow,
    zone_temperature_step,
)
from repro.hvac.ventilation import (
    required_airflow_for_co2,
    steady_state_ventilation_airflow,
    zone_co2_step,
)

__all__ = [
    "AshraeController",
    "ControllerConfig",
    "DemandControlledHVAC",
    "OutdoorConditions",
    "SimulationJob",
    "SimulationResult",
    "TouPricing",
    "plant_response",
    "required_airflow_for_co2",
    "required_airflow_for_heat",
    "simulate",
    "simulate_batch",
    "simulate_reference",
    "steady_state_cooling_airflow",
    "steady_state_ventilation_airflow",
    "zone_co2_step",
    "zone_temperature_step",
]
