"""Fig. 11 — execution-time scalability of attack-vector synthesis.

(a) vs the optimization time horizon ``I`` — timed on the exhaustive
    (SMT-style) path enumeration, the schedule's
    ``_enumerate_window`` oracle, whose cost grows combinatorially
    with the window, reproducing the paper's exponential curve;
(b) vs the number of zones at a fixed small lookback — constraint count
    grows linearly with zones, and so does execution time.

Synthetic homes for (b) come from :func:`repro.home.builder.build_scaled_home`
with a programmatic routine that tours the zones, so every zone has
hulls for the scheduler to work with.

Both register as experiments (``fig11a``/``fig11b``) so ``repro run
--all`` covers every paper artifact, but they are *timing* experiments:
``cacheable=False`` (replaying stale timings would defeat the point)
and ``deterministic=False`` (measured seconds vary run to run).  Each
runs as a single ``plain`` graph task.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.adm.cluster_model import AdmParams, ClusterADM
from repro.attack.model import AttackerCapability
from repro.attack.schedule import ScheduleConfig, shatter_schedule
from repro.core.report import format_series
from repro.dataset.splits import split_days
from repro.errors import SolverError
from repro.home.builder import SmartHome, build_scaled_home
from repro.home.state import HomeTrace
from repro.hvac.pricing import TouPricing
from repro.runner.registry import Param, experiment
from repro.units import MINUTES_PER_DAY


@dataclass
class ScalabilityResult:
    x_label: str
    x_values: list[int]
    seconds: dict[str, list[float]]
    rendered: str = ""


def _timed_schedule(home, adm, trace, config) -> float:
    capability = AttackerCapability.full_access(home)
    started = time.perf_counter()
    schedule = shatter_schedule(
        home, adm, capability, TouPricing(), trace, config=config
    )
    elapsed = time.perf_counter() - started
    if schedule.expected_reward <= 0.0:
        raise SolverError(
            "scalability run degenerated: no feasible schedule was "
            "synthesized, so the timing would not measure real search"
        )
    return elapsed


class _DenseOracle:
    """Worst-case stealth oracle: every arrival admits stays of 1-90 min.

    Real habit hulls prune the search heavily; the paper's Z3-based
    solver pays the un-pruned exponential cost, which this oracle
    reproduces for the enumeration engine.  It quacks like
    :class:`repro.attack.schedule._StealthOracle`.
    """

    def intervals(self, zone: int, arrival: int):
        return [(1.0, 90.0)]

    def max_stay(self, zone: int, arrival: int):
        return 90

    def min_stay(self, zone: int, arrival: int):
        return 1

    def exit_ok(self, zone: int, arrival: int, stay: int) -> bool:
        return 1 <= stay <= 90

    def entry_ok(self, zone: int, arrival: int) -> bool:
        return True


@experiment(
    name="fig11a",
    artifact="Fig. 11(a)",
    title="scalability vs horizon",
    render=lambda result: result.rendered,
    params=(Param("horizons", None), Param("seed", 2023)),
    tags=frozenset({"figure", "scalability", "timing"}),
    cacheable=False,
    deterministic=False,
)
def run_fig11_horizon(
    horizons: list[int] | None = None,
    seed: int = 2023,
) -> ScalabilityResult:
    """Execution time vs optimization horizon ``I`` (Fig. 11a).

    Times the exhaustive (SMT-style, no state merging) enumeration over
    one window of each length against the dense worst-case oracle, for both
    houses' zone sets.  Cost grows exponentially with the horizon, the
    paper's reported behaviour; the production DP solves the same
    instances in polynomial time (the ablation the Fig. 11 benchmark
    also prints).
    """
    from repro.attack.schedule import _State, _enumerate_window
    from repro.home.builder import build_house_a, build_house_b

    horizons = horizons or [3, 4, 5, 6, 7, 8]
    rng = np.random.default_rng(seed)
    oracle = _DenseOracle()
    seconds: dict[str, list[float]] = {}
    for house, builder in (
        ("ARAS House-A", build_house_a),
        ("ARAS House-B", build_house_b),
    ):
        home = builder()
        zones = list(range(home.n_zones))
        rewards = rng.uniform(0.001, 0.01, size=(home.n_zones, MINUTES_PER_DAY))
        timings = []
        for horizon in horizons:
            # One window starting mid-stay (arrival 10 slots back) so
            # exits are in range and branching is live from slot one.
            states = {
                _State(zone=1, arrival=0): (0.0, (None, 1)),
            }
            started = time.perf_counter()
            _enumerate_window(states, range(10, 10 + horizon), zones, rewards, oracle)
            timings.append(time.perf_counter() - started)
        seconds[house] = timings
    rendered = format_series(
        "Fig. 11(a): execution time (s) vs time horizon (SMT-style search)",
        horizons,
        seconds,
    )
    return ScalabilityResult(
        x_label="time horizon",
        x_values=horizons,
        seconds=seconds,
        rendered=rendered,
    )


def _scaled_trace(home: SmartHome, n_days: int, seed: int) -> HomeTrace:
    """A habit-structured trace for a synthetic scaled home.

    Each occupant tours the conditioned zones in a fixed daily order
    with jittered boundaries, giving every zone a cluster of visits.
    """
    rng = np.random.default_rng(seed)
    zones = home.layout.conditioned_ids
    trace = HomeTrace.empty(
        n_days * MINUTES_PER_DAY, home.n_occupants, home.n_appliances
    )
    slots_per_zone = MINUTES_PER_DAY // (len(zones) + 1)  # + outside block
    for occupant in home.occupants:
        for day in range(n_days):
            base = day * MINUTES_PER_DAY
            cursor = 0
            order = list(zones) + [0]
            for position, zone in enumerate(order):
                length = slots_per_zone + int(rng.integers(-8, 9))
                if position == len(order) - 1:
                    length = MINUTES_PER_DAY - cursor
                end = min(cursor + max(10, length), MINUTES_PER_DAY)
                trace.occupant_zone[
                    base + cursor : base + end, occupant.occupant_id
                ] = zone
                if zone != 0:
                    activity = home.activities_in_zone(zone)[0]
                    trace.occupant_activity[
                        base + cursor : base + end, occupant.occupant_id
                    ] = activity.activity_id
                else:
                    trace.occupant_activity[
                        base + cursor : base + end, occupant.occupant_id
                    ] = 1
                cursor = end
                if cursor >= MINUTES_PER_DAY:
                    break
    return trace


@experiment(
    name="fig11b",
    artifact="Fig. 11(b)",
    title="scalability vs zone count",
    render=lambda result: result.rendered,
    params=(
        Param("zone_counts", None),
        Param("n_days", 6),
        Param("seed", 2023),
        Param("window", 10),
    ),
    tags=frozenset({"figure", "scalability", "timing"}),
    cacheable=False,
    deterministic=False,
)
def run_fig11_zones(
    zone_counts: list[int] | None = None,
    n_days: int = 6,
    seed: int = 2023,
    window: int = 10,
) -> ScalabilityResult:
    """Execution time vs zone count at lookback ``window`` (Fig. 11b)."""
    zone_counts = zone_counts or [4, 8, 12, 16]
    seconds: dict[str, list[float]] = {"Scaled home": []}
    for n_zones in zone_counts:
        home = build_scaled_home(n_zones)
        trace = _scaled_trace(home, n_days, seed)
        train, evaluation = split_days(trace, n_days - 1)
        adm = ClusterADM(AdmParams(eps=40.0, min_pts=3, tolerance=20.0)).fit(
            train, home.n_zones
        )
        config = ScheduleConfig(window=window)
        seconds["Scaled home"].append(_timed_schedule(home, adm, evaluation, config))
    rendered = format_series(
        f"Fig. 11(b): execution time (s) vs zones (lookback={window})",
        zone_counts,
        seconds,
    )
    return ScalabilityResult(
        x_label="zones",
        x_values=zone_counts,
        seconds=seconds,
        rendered=rendered,
    )
