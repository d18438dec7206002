"""SHATTER reproduction: smart-home attack analytics (DSN 2023).

The public API re-exports the objects a downstream user needs for the
standard workflow — build a home, get a trace, train an ADM, synthesize
and execute a stealthy attack, read the report::

    from repro import (
        AttackerCapability, ShatterAnalysis, StudyConfig,
    )

    analysis = ShatterAnalysis.for_house("A", StudyConfig(n_days=10, training_days=7))
    schedule = analysis.shatter_attack()
    outcome = analysis.execute(schedule)

Subsystem entry points live in their packages: :mod:`repro.home`,
:mod:`repro.dataset`, :mod:`repro.adm`, :mod:`repro.hvac`,
:mod:`repro.attack`, :mod:`repro.defense`, :mod:`repro.testbed`,
:mod:`repro.smt`.  The paper's tables and figures are registered
experiments in :mod:`repro.runner.experiments` (one ``run_*`` function
each).  Programs driving whole experiment runs (sweeps, run history)
should go through :mod:`repro.api` — the session layer the ``repro``
CLI itself sits on.
"""

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.attack.model import AttackerCapability, AttackVector
from repro.attack.schedule import AttackSchedule, ScheduleConfig
from repro.core.report import AttackReport, CostBreakdown
from repro.core.shatter import ShatterAnalysis, StudyConfig
from repro.dataset.splits import KnowledgeLevel
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace
from repro.errors import ReproError
from repro.home.builder import SmartHome, build_house_a, build_house_b
from repro.home.state import HomeTrace
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import simulate

__version__ = "1.0.0"

__all__ = [
    "AdmParams",
    "AttackReport",
    "AttackSchedule",
    "AttackVector",
    "AttackerCapability",
    "ClusterADM",
    "ClusterBackend",
    "ControllerConfig",
    "CostBreakdown",
    "DemandControlledHVAC",
    "HomeTrace",
    "KnowledgeLevel",
    "ReproError",
    "ScheduleConfig",
    "ShatterAnalysis",
    "SmartHome",
    "StudyConfig",
    "SyntheticConfig",
    "TouPricing",
    "build_house_a",
    "build_house_b",
    "generate_house_trace",
    "simulate",
]
