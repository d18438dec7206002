"""The end-to-end SHATTER analysis pipeline.

:class:`ShatterAnalysis` is the library's main entry point.  Given a
house, it generates (or accepts) traces, trains the defender's and the
attacker's ADMs, synthesizes the SHATTER / greedy / BIoTA attacks,
executes each against the closed-loop plant, and returns an
:class:`~repro.core.report.AttackReport` with the cost and detection
numbers the paper's Tables IV-VII and Figs. 3/10 are built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend
from repro.attack.biota import biota_greedy_attack
from repro.attack.greedy import greedy_schedule
from repro.attack.model import AttackerCapability
from repro.attack.realtime import AttackOutcome, execute_attack
from repro.attack.schedule import (
    AttackSchedule,
    ScheduleConfig,
    ScheduleJob,
    shatter_schedule,
    shatter_schedule_batch,
)
from repro.attack.stealth import attack_visit_flag_fraction
from repro.core.report import AttackReport, CostBreakdown
from repro.dataset.splits import KnowledgeLevel, split_days, training_days
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace
from repro.errors import ConfigurationError
from repro.home.builder import SmartHome, build_house_a, build_house_b
from repro.home.state import HomeTrace
from repro.hvac.controller import ControllerConfig, DemandControlledHVAC
from repro.hvac.pricing import TouPricing
from repro.hvac.simulation import SimulationResult, closed_loop_token, simulate


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one full analysis run.

    Attributes:
        n_days: Total trace length (training + evaluation).
        training_days: Days the defender ADM trains on.
        seed: Trace generation seed.
        adm_params: Defender ADM hyperparameters.
        knowledge: Attacker knowledge level (Table IV / V axis).
        schedule_config: Attack scheduler parameters.
        controller_config: HVAC setpoints.
        pricing: TOU tariff.
    """

    n_days: int = 30
    training_days: int = 20
    seed: int = 2023
    adm_params: AdmParams = field(default_factory=AdmParams)
    knowledge: KnowledgeLevel = KnowledgeLevel.ALL_DATA
    schedule_config: ScheduleConfig = field(default_factory=ScheduleConfig)
    controller_config: ControllerConfig = field(default_factory=ControllerConfig)
    pricing: TouPricing = field(default_factory=TouPricing)

    def __post_init__(self) -> None:
        if self.training_days >= self.n_days:
            raise ConfigurationError(
                "training_days must leave at least one evaluation day"
            )


class ShatterAnalysis:
    """Drives the full pipeline for one house.

    Usage::

        analysis = ShatterAnalysis.for_house("A", StudyConfig())
        report = analysis.run()
    """

    def __init__(
        self,
        home: SmartHome,
        trace: HomeTrace,
        config: StudyConfig,
        provenance: tuple | None = None,
    ) -> None:
        """``provenance`` names the trace's origin — e.g. ``("house",
        "A", n_days, seed)`` — and enables the artifact cache's ADM disk
        tier for the fits below: with it, a repeated suite run (or a CI
        replay) loads the defender's and a partial-knowledge attacker's
        ADMs instead of re-clustering.  Ad-hoc traces with no stable
        identity pass ``None`` and always fit fresh.

        A full-knowledge attacker saw exactly the defender's training
        days and uses the defender's hyperparameters, and a fit is
        deterministic, so they extract exactly the defender's rules:
        ``attacker_adm`` is ``defender_adm``, fitted once."""
        self.home = home
        self.config = config
        self.trace = trace
        self.train, self.eval = split_days(trace, config.training_days)
        self.eval_start_slot = config.training_days * 1440
        self.controller = DemandControlledHVAC(home, config.controller_config)
        self.defender_adm = self._fit_adm(
            config.adm_params,
            self.train,
            home.n_zones,
            provenance,
            ("defender", config.training_days),
        )
        if config.knowledge is KnowledgeLevel.ALL_DATA:
            self.attacker_adm = self.defender_adm
        else:
            self.attacker_adm = self._partial_attacker_adm(trace, provenance)

    def _partial_attacker_adm(
        self, trace: HomeTrace, provenance: tuple | None
    ) -> ClusterADM:
        """The ADM an attacker fits on the training days they saw."""
        config = self.config
        attacker_view = training_days(
            trace, config.training_days, config.knowledge
        )
        attacker_params = config.adm_params
        if (
            attacker_params.backend is ClusterBackend.DBSCAN
            and attacker_view.n_days < self.train.n_days
        ):
            # A partial-knowledge attacker tunes DBSCAN to the data they
            # actually have: the core-point threshold scales with the
            # number of observed days (else almost everything is noise
            # and the attacker wrongly concludes no stealthy space
            # exists).
            scaled_min_pts = max(
                2,
                round(
                    attacker_params.min_pts
                    * attacker_view.n_days
                    / self.train.n_days
                ),
            )
            attacker_params = AdmParams(
                backend=attacker_params.backend,
                eps=attacker_params.eps,
                min_pts=scaled_min_pts,
                k=attacker_params.k,
                seed=attacker_params.seed,
                tolerance=attacker_params.tolerance,
            )
        return self._fit_adm(
            attacker_params,
            attacker_view,
            self.home.n_zones,
            provenance,
            (
                "attacker",
                config.training_days,
                config.knowledge.value,
                attacker_view.n_days,
            ),
        )

    @staticmethod
    def _fit_adm(
        params: AdmParams,
        view: HomeTrace,
        n_zones: int,
        provenance: tuple | None,
        role: tuple,
    ) -> ClusterADM:
        """Fit a cluster ADM, replaying from the artifact cache's ADM
        tier (memory and disk) when the training data has a declared
        provenance."""
        if provenance is None:
            return ClusterADM(params).fit(view, n_zones)
        # Imported here: the cache helpers live in the runner layer,
        # which imports this module; a module-level import would cycle.
        from repro.runner.common import fitted_adm

        return fitted_adm(view, n_zones, params, cache_token=provenance + role)

    @staticmethod
    def for_house(
        house: str, config: StudyConfig | None = None
    ) -> "ShatterAnalysis":
        """Build the analysis for ARAS house ``"A"`` or ``"B"``."""
        config = config or StudyConfig()
        home = build_house_a() if house == "A" else build_house_b()
        trace = generate_house_trace(
            home,
            house=house,
            config=SyntheticConfig(n_days=config.n_days, seed=config.seed),
        )
        return ShatterAnalysis(
            home,
            trace,
            config,
            provenance=("house", house, config.n_days, config.seed),
        )

    # ------------------------------------------------------------------
    # Pipeline pieces (usable separately)
    # ------------------------------------------------------------------

    def benign_result(self) -> SimulationResult:
        """The benign closed loop over the evaluation days.

        Tables V-VII and Fig. 10 price every attack against it, in
        cells that share a house, split and controller, so it is
        memoized by content
        (:func:`~repro.hvac.simulation.closed_loop_token`) in the
        artifact cache's memory-only analysis tier; a hit returns the
        read-only result the miss computed.
        """
        # Imported here: the cache helpers live in the runner layer,
        # which imports this module; a module-level import would cycle.
        from repro.runner.cache import get_cache

        cache = get_cache()
        key = (
            closed_loop_token(
                self.home,
                self.controller,
                None,
                self.eval_start_slot,
                self.eval.occupant_zone,
                self.eval.occupant_activity,
                self.eval.appliance_status,
            )
            if cache.memory_enabled
            else None
        )
        token = ("closed-loop", "benign", key)
        if key is not None:
            hit = cache.get_analysis(token)
            if hit is not None:
                return hit
        result = simulate(
            self.home,
            self.eval,
            self.controller,
            start_slot=self.eval_start_slot,
        )
        if key is not None:
            cache.put_analysis(token, result.freeze())
        return result

    def shatter_attack(
        self, capability: AttackerCapability | None = None
    ) -> AttackSchedule:
        capability = capability or AttackerCapability.full_access(self.home)
        return shatter_schedule(
            self.home,
            self.attacker_adm,
            capability,
            self.config.pricing,
            self.eval,
            controller_config=self.config.controller_config,
            config=self.config.schedule_config,
        )

    def schedule_job(
        self, capability: AttackerCapability | None = None
    ) -> ScheduleJob:
        """This analysis's SHATTER inputs as one batchable job.

        ``shatter_schedule_batch([a.schedule_job()])[0]`` equals
        ``a.shatter_attack()`` bit for bit; stacking many analyses'
        jobs advances every home through one batched DP.
        """
        capability = capability or AttackerCapability.full_access(self.home)
        return ScheduleJob(
            home=self.home,
            adm=self.attacker_adm,
            capability=capability,
            pricing=self.config.pricing,
            actual_trace=self.eval,
            controller_config=self.config.controller_config,
            config=self.config.schedule_config,
        )

    def greedy_attack(
        self, capability: AttackerCapability | None = None
    ) -> AttackSchedule:
        capability = capability or AttackerCapability.full_access(self.home)
        return greedy_schedule(
            self.home,
            self.attacker_adm,
            capability,
            self.config.pricing,
            self.eval,
            controller_config=self.config.controller_config,
            config=self.config.schedule_config,
        )

    def biota_attack(
        self, capability: AttackerCapability | None = None
    ) -> AttackSchedule:
        capability = capability or AttackerCapability.full_access(self.home)
        return biota_greedy_attack(
            self.home,
            capability,
            self.config.pricing,
            self.eval,
            controller_config=self.config.controller_config,
            config=self.config.schedule_config,
        )

    def execute(
        self,
        schedule: AttackSchedule,
        capability: AttackerCapability | None = None,
        enable_triggering: bool = True,
    ) -> AttackOutcome:
        capability = capability or AttackerCapability.full_access(self.home)
        return execute_attack(
            self.home,
            self.controller,
            self.eval,
            schedule,
            capability,
            adm=self.attacker_adm,
            enable_triggering=enable_triggering,
            start_slot=self.eval_start_slot,
        )

    def flagged_fraction(self, schedule: AttackSchedule) -> float:
        """Defender-side detection rate over the *attack* visits.

        Visits that fall back to real behaviour are excluded — the
        benign false-positive rate is the defender's problem, not the
        attacker's exposure.
        """
        return attack_visit_flag_fraction(
            self.defender_adm,
            schedule.spoofed_zone,
            schedule.spoofed_activity,
            self.eval.occupant_zone,
        )

    # ------------------------------------------------------------------
    # Full run
    # ------------------------------------------------------------------

    def run(self, capability: AttackerCapability | None = None) -> AttackReport:
        """Run every attack and assemble the comparison report."""
        capability = capability or AttackerCapability.full_access(self.home)
        pricing = self.config.pricing

        benign = self.benign_result()
        shatter = self.shatter_attack(capability)
        greedy = self.greedy_attack(capability)
        biota = self.biota_attack(capability)

        shatter_plain = self.execute(
            shatter, capability, enable_triggering=False
        )
        shatter_triggered = self.execute(
            shatter, capability, enable_triggering=True
        )
        greedy_outcome = self.execute(greedy, capability, enable_triggering=False)
        biota_outcome = self.execute(biota, capability, enable_triggering=False)

        return AttackReport(
            home_name=self.home.name,
            adm_backend=self.config.adm_params.backend.value,
            knowledge=self.config.knowledge.value,
            benign=CostBreakdown.from_result(benign, pricing),
            shatter=CostBreakdown.from_result(shatter_plain.result, pricing),
            shatter_triggered=CostBreakdown.from_result(
                shatter_triggered.result, pricing
            ),
            greedy=CostBreakdown.from_result(greedy_outcome.result, pricing),
            biota=CostBreakdown.from_result(biota_outcome.result, pricing),
            biota_flagged=self.flagged_fraction(biota),
            shatter_flagged=self.flagged_fraction(shatter),
            greedy_flagged=self.flagged_fraction(greedy),
            trigger_count=shatter_triggered.vector.trigger_count(),
            extras={
                "shatter_expected_reward": shatter.expected_reward,
                "greedy_expected_reward": greedy.expected_reward,
                "biota_expected_reward": biota.expected_reward,
            },
        )


def shatter_attack_batch(
    analyses: list["ShatterAnalysis"],
    capabilities: list[AttackerCapability | None] | None = None,
) -> list[AttackSchedule]:
    """SHATTER schedules for many analyses through one batched DP.

    Equivalent to ``[a.shatter_attack(c) for a, c in zip(...)]`` bit for
    bit, but all homes' attackable days advance together — this is the
    fleet-scale front door the ``fleet_attack`` experiment uses.
    """
    if capabilities is None:
        capabilities = [None] * len(analyses)
    if len(capabilities) != len(analyses):
        raise ConfigurationError(
            "capabilities must match analyses one to one"
        )
    jobs = [
        analysis.schedule_job(capability)
        for analysis, capability in zip(analyses, capabilities)
    ]
    return shatter_schedule_batch(jobs)


def default_backends() -> list[ClusterBackend]:
    """The two ADM backends every comparison table sweeps."""
    return [ClusterBackend.DBSCAN, ClusterBackend.KMEANS]
