"""SHATTER attack-schedule synthesis (Section IV-C, Eqs. 17-20).

The attacker pre-computes, per occupant and per day, a *stealthy
schedule*: a sequence of (zone, arrival, stay) visits that maximizes the
energy cost the controller will incur, subject to every visit lying
inside an ADM cluster hull (Eq. 20), staying never exceeding ``maxStay``
(Eq. 19), and exactly one zone per slot (Eq. 18).

The optimization is windowed, exactly as the paper describes: the
NP-hard full-day problem (O(|Z|^|T|)) is solved optimally inside
windows of ``I`` slots and the window solutions are merged.  Every
production span, whole segment or single visit, is solved by one
engine, :func:`_optimize_spans_batch`: a table-driven array program
that advances many spans as the rows of one program.  All
per-(zone, arrival) stay feasibility is precomputed for the full day
(the stealth oracles, built for a whole batch from one multi-group
stay-row pass), DP states live in ``[rows, states]`` index arrays in
canonical (arrival, zone) order, and each slot advance is a handful of
numpy operations with parent pointers kept in index arrays.
:func:`shatter_schedule_batch` plans, solves and assembles every job
through it, and :func:`shatter_schedule` is a one-job batch.

Two scalar oracles compute the same windowed optimum and serve only the
equivalence tests and the hot-path benchmark, through
:func:`_shatter_schedule_reference`:

* the scalar dict-based dynamic program over (zone, arrival) states
  (:func:`_optimize_span`), the bit-exact oracle; and
* with ``exhaustive=True``, a path enumeration replicating the
  SMT-style search whose cost grows exponentially with ``I``
  (:func:`_enumerate_window`, which the Fig. 11a scalability study
  times directly; its equivalence with the DP is property-tested).

Ties between equal-value states are broken canonically — toward the
smallest (arrival, zone) — by the engine and both oracles, so they
agree on the synthesized path bit for bit, not just on its value.

Between windows a beam of the best states is carried, which is the
"merging" step of the paper.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from repro.adm.cluster_model import ClusterADM
from repro.attack.model import AttackerCapability
from repro.errors import AttackError
from repro.events.dispatch import (
    GEOMETRY,
    REWARD_TABLES,
    SCHEDULE_DP,
    SCHEDULE_DP_BATCH,
    kernel_timer,
)
from repro.geometry import StayRangeRows, stay_range_rows
from repro.home.builder import SmartHome
from repro.home.state import HomeTrace
from repro.hvac.controller import (
    ControllerConfig,
    hvac_kwh_per_minute,
    occupant_marginal_cfm,
)
from repro.hvac.pricing import TouPricing
from repro.units import MINUTES_PER_DAY

_EPS = 1e-6


@dataclass(frozen=True)
class ScheduleConfig:
    """Scheduler parameters.

    Attributes:
        window: The paper's optimization horizon ``I`` in slots.
        beam_width: States carried across window boundaries (the merge).
        outdoor_temperature_f: Weather assumed when pricing airflow.
    """

    window: int = 10
    beam_width: int = 64
    outdoor_temperature_f: float = 88.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise AttackError("window must be at least one slot")
        if self.beam_width < 1:
            raise AttackError("beam width must be at least one")


@dataclass
class AttackSchedule:
    """A synthesized stealthy schedule.

    Attributes:
        spoofed_zone: Scheduled occupant zones, ``[T, O]``.
        spoofed_activity: Activities reported alongside (the costliest
            plausible activity of each scheduled zone).
        expected_reward: The scheduler's own estimate of the attack's
            marginal energy cost in dollars.
        infeasible_days: ``(occupant, day)`` pairs where no stealthy
            schedule existed at all and the actual behaviour was kept.
        substituted_days: ``(occupant, day)`` pairs covered by the
            visit-substitution fallback instead of the full-day DP.
    """

    spoofed_zone: np.ndarray
    spoofed_activity: np.ndarray
    expected_reward: float
    infeasible_days: list[tuple[int, int]] = field(default_factory=list)
    substituted_days: list[tuple[int, int]] = field(default_factory=list)


class _OracleBatch:
    """The stay rows of many (ADM, occupant) oracles, from one pass.

    ``pairs`` lists distinct ``(adm, occupant_id, n_zones)`` triples.
    The first oracle that asks runs the pass: one
    :func:`stay_range_rows` call slices every (occupant, zone) hull
    group of every pair at all 1440 arrival minutes, and the
    scheduler's integer-minute values of every row that holds an
    interval are derived from it in vectorized form:

    * ``max_int`` / ``min_int`` — the largest/smallest integer stay the
      row's intervals admit (``-1`` when none).  Entries are feasible
      only when some integer stay exists in the admitted intervals,
      which mirrors the scalar reference semantics bit for bit.

    A batch lives for one round of constructions (see
    :func:`_build_oracles`); the oracles keep copies of their own rows
    and no reference to it or to an ADM.
    """

    def __init__(self, pairs: Sequence[tuple[ClusterADM, int, int]]) -> None:
        self._pairs = list(pairs)
        self._index = {
            (id(adm), occupant_id, n_zones): index
            for index, (adm, occupant_id, n_zones) in enumerate(self._pairs)
        }
        self._rows: StayRangeRows | None = None

    def _run(self) -> StayRangeRows:
        rows = stay_range_rows(
            [
                adm.hulls(occupant_id, zone)
                for adm, occupant_id, n_zones in self._pairs
                for zone in range(n_zones)
            ],
            np.arange(MINUTES_PER_DAY, dtype=float),
        )
        valid = np.arange(rows.lows.shape[1])[None, :] < rows.counts[:, None]
        # Integer-duration feasibility, vectorized over every interval:
        # the largest integer stay floor(high + eps) counts only when it
        # reaches the smallest one max(1, ceil(low - eps)).
        high_int = np.floor(rows.highs + _EPS)
        low_int = np.maximum(1.0, np.ceil(rows.lows - _EPS))
        feasible = valid & (high_int >= low_int)
        self.max_int = np.where(
            feasible.any(axis=1),
            np.max(np.where(feasible, high_int, -np.inf), axis=1),
            -1.0,
        ).astype(np.int64)
        admissible = valid & (low_int <= rows.highs + _EPS)
        self.min_int = np.where(
            admissible.any(axis=1),
            np.min(np.where(admissible, low_int, np.inf), axis=1),
            -1.0,
        ).astype(np.int64)
        first_group = np.cumsum([0] + [n_zones for _, _, n_zones in self._pairs])
        self._bounds = np.searchsorted(rows.group, first_group)
        self._first_group = first_group
        self._rows = rows
        return rows

    def rows_of(
        self, adm: ClusterADM, occupant_id: int, n_zones: int
    ) -> tuple[StayRangeRows, slice, int]:
        """``(rows, span, first group)``: the pass's rows (run on first
        use), the contiguous span of them that belongs to this pair, and
        the group index of its zone 0."""
        rows = self._rows if self._rows is not None else self._run()
        index = self._index[(id(adm), occupant_id, n_zones)]
        span = slice(int(self._bounds[index]), int(self._bounds[index + 1]))
        return rows, span, int(self._first_group[index])


class _StealthOracle:
    """Table-backed ADM stay queries for one occupant.

    The construction reads its (zone, arrival) rows — the ones holding
    a merged stay interval — from an :class:`_OracleBatch` pass and
    scatters them into the scheduler's full-day arrays.  Every other
    row gets the values the derivation gives an all-padding row
    (``-1``, ``False``, ``+inf``/``-inf``), which is most of them for
    ADMs fitted on a few training days:

    * ``max_int[Z, 1440]`` / ``min_int[Z, 1440]`` — the largest/smallest
      integer stay admitted at each arrival (``-1`` when none, i.e. the
      former ``None``);
    * ``entry[Z, 1440]`` — whether a visit can start at all;
    * ``lo[Z, 1440, K]`` / ``hi[Z, 1440, K]`` — merged interval bounds
      pre-shifted by the scheduler tolerance (``low - eps`` /
      ``high + eps``), padded with ``+inf`` / ``-inf`` so membership
      tests are vacuously false on padding; ``K`` is the occupant's
      largest interval count (at least one).

    Constructed without a batch, an oracle is a one-pair batch.  The
    scalar methods answer from the same arrays and from the oracle's
    own copy of its raw rows, and the batched DP engine reads the arrays
    directly.  An oracle holds no reference to its ADM: the memo is
    keyed weakly by the ADM.
    """

    def __init__(
        self,
        adm: ClusterADM,
        occupant_id: int,
        n_zones: int,
        batch: _OracleBatch | None = None,
    ) -> None:
        if batch is None:
            batch = _OracleBatch([(adm, occupant_id, n_zones)])
        rows, span, first_group = batch.rows_of(adm, occupant_id, n_zones)
        self._occupant = occupant_id
        self._n_zones = n_zones
        zone = rows.group[span] - first_group
        arrival = rows.arrival[span]
        self._counts = rows.counts[span].copy()
        width = max(1, int(self._counts.max(initial=0)))
        self._lows = rows.lows[span, :width].copy()
        self._highs = rows.highs[span, :width].copy()
        shape = (n_zones, MINUTES_PER_DAY)
        self._row = np.full(shape, -1, dtype=np.int64)
        self._row[zone, arrival] = np.arange(len(zone))
        self.max_int = np.full(shape, -1, dtype=np.int64)
        self.max_int[zone, arrival] = batch.max_int[span]
        self.min_int = np.full(shape, -1, dtype=np.int64)
        self.min_int[zone, arrival] = batch.min_int[span]
        self.entry = self.max_int >= 0
        self.lo = np.full((*shape, width), np.inf)
        self.lo[zone, arrival] = self._lows - _EPS
        self.hi = np.full((*shape, width), -np.inf)
        self.hi[zone, arrival] = self._highs + _EPS

    def intervals(self, zone: int, arrival: int) -> list[tuple[float, float]]:
        """Merged admissible stay intervals at an arrival minute."""
        row = int(self._row[zone, arrival])
        if row < 0:
            return []
        return [
            (float(self._lows[row, k]), float(self._highs[row, k]))
            for k in range(int(self._counts[row]))
        ]

    def max_stay(self, zone: int, arrival: int) -> int | None:
        """Largest integer stay admitted at this arrival, if any."""
        value = int(self.max_int[zone, arrival])
        return value if value >= 0 else None

    def min_stay(self, zone: int, arrival: int) -> int | None:
        """Smallest integer stay admitted at this arrival, if any."""
        value = int(self.min_int[zone, arrival])
        return value if value >= 0 else None

    def exit_ok(self, zone: int, arrival: int, stay: int) -> bool:
        """``inRangeStay``: is exiting after ``stay`` minutes stealthy?"""
        row_lo = self.lo[zone, arrival]
        row_hi = self.hi[zone, arrival]
        return bool(np.any((row_lo <= stay) & (stay <= row_hi)))

    def entry_ok(self, zone: int, arrival: int) -> bool:
        """Can a visit start here at all (some integer stay admitted)?"""
        return bool(self.entry[zone, arrival])


# Oracles are pure functions of (ADM identity, occupant, n_zones) — an
# ADM never mutates after fit() — so sweeps over non-ADM parameters
# (capabilities, pricing, schedule configs) reuse one oracle instead of
# re-deriving the stay rows per call.  Keyed weakly by the ADM object:
# dropping the ADM drops its oracles.
_ORACLE_MEMO: "weakref.WeakKeyDictionary[ClusterADM, dict]" = (
    weakref.WeakKeyDictionary()
)


def _memo_of(adm: ClusterADM) -> dict:
    per_adm = _ORACLE_MEMO.get(adm)
    if per_adm is None:
        per_adm = _ORACLE_MEMO.setdefault(adm, {})
    return per_adm


def _build_oracles(pairs: Sequence[tuple[ClusterADM, int, int]]) -> None:
    """Construct and memoize the oracles of ``pairs`` from one pass.

    ``pairs`` are distinct and not memoized yet.  Each construction is
    charged to the ``GEOMETRY`` kernel timer as its own call, and the
    first one runs the batch's pass, so the kernel's time covers the
    pass and its call count stays one per oracle.
    """
    batch = _OracleBatch(pairs)
    for adm, occupant_id, n_zones in pairs:
        with kernel_timer(GEOMETRY):
            oracle = _StealthOracle(adm, occupant_id, n_zones, batch)
        _memo_of(adm)[(occupant_id, n_zones)] = oracle


def stealth_oracle(
    adm: ClusterADM, occupant_id: int, n_zones: int
) -> _StealthOracle:
    """Memoized :class:`_StealthOracle` per (adm identity, occupant, zones).

    A miss builds the oracle as a one-pair batch; only real
    constructions are charged to the ``GEOMETRY`` kernel timer, so memo
    hits are free, which keeps the profile honest.
    """
    per_adm = _memo_of(adm)
    key = (occupant_id, n_zones)
    if key not in per_adm:
        _build_oracles([(adm, occupant_id, n_zones)])
    return per_adm[key]


@dataclass(frozen=True)
class _State:
    """DP state: which zone the occupant is in and since when."""

    zone: int
    arrival: int


# Paths are singly linked (parent, zone) nodes so extending is O(1);
# they are materialised into a per-slot zone list only once, at the end
# of the day.
_PathNode = tuple  # (parent: _PathNode | None, zone: int)


def _materialise(node: _PathNode | None) -> list[int]:
    path: list[int] = []
    while node is not None:
        parent, zone = node
        path.append(zone)
        node = parent
    path.reverse()
    return path


def _day_rewards(
    home: SmartHome,
    occupant_id: int,
    zones: list[int],
    pricing: TouPricing,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
    day_start_slot: int,
) -> tuple[np.ndarray, dict[int, int]]:
    """Per-slot marginal dollar reward of reporting the occupant per zone.

    Returns ``(rewards[Z, 1440], best_activity_by_zone)``; the best
    activity is the one maximizing marginal airflow (the "most intensive
    task" of the Section V case study).
    """
    n_zones = home.n_zones
    kwh_per_min = np.zeros(n_zones)
    best_activity: dict[int, int] = {}
    for zone in zones:
        if zone == 0:
            best_activity[zone] = home.activities.by_id(1).activity_id
            continue
        candidates = home.activities_in_zone(zone)
        if not candidates:
            continue
        best = max(
            candidates,
            key=lambda a: occupant_marginal_cfm(
                home, controller_config, occupant_id, a.activity_id
            ),
        )
        best_activity[zone] = best.activity_id
        cfm = occupant_marginal_cfm(
            home, controller_config, occupant_id, best.activity_id
        )
        kwh_per_min[zone] = hvac_kwh_per_minute(
            cfm, controller_config, config.outdoor_temperature_f
        )
    rates = pricing.marginal_rates(
        day_start_slot + np.arange(MINUTES_PER_DAY)
    )
    rewards = kwh_per_min[:, None] * rates[None, :]
    return rewards, best_activity


def _reward_table_token(
    home: SmartHome,
    occupant_id: int,
    zones: list[int],
    pricing: TouPricing,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
) -> tuple:
    """Content identity of a day-reward table.

    Everything :func:`_day_rewards` reads is captured by value: the
    occupant's metabolic factor, each schedulable zone's ordered
    activity menu, the controller setpoints the airflow pricing uses,
    the assumed weather, and the tariff's rate pattern.  Two calls with
    equal tokens produce bit-identical tables — even across different
    :class:`SmartHome` objects (fleet homes share archetypes).
    """
    occupant = next(
        o for o in home.occupants if o.occupant_id == occupant_id
    )
    zone_menus = tuple(
        (
            zone,
            tuple(
                (a.activity_id, a.co2_ft3_per_min, a.heat_watts)
                for a in home.activities_in_zone(zone)
            ),
        )
        for zone in zones
        if zone != 0
    )
    return (
        tuple(zones),
        occupant.metabolic_factor,
        zone_menus,
        (
            controller_config.co2_setpoint_ppm,
            controller_config.temperature_setpoint_f,
            controller_config.supply_temperature_f,
            controller_config.outdoor_co2_ppm,
            controller_config.minimum_fresh_fraction,
        ),
        config.outdoor_temperature_f,
        pricing.rate_token(),
    )


def occupant_reward_table(
    home: SmartHome,
    occupant_id: int,
    zones: list[int],
    pricing: TouPricing,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
) -> tuple[np.ndarray, dict[int, int]]:
    """The day-invariant ``(rewards[Z, 1440], best_activity)`` tables.

    ``TouPricing`` is day-periodic and every day starts on a whole-day
    slot boundary, so :func:`_day_rewards` returns the same table for
    every day — compute it once (for day 0) and share it across days,
    homes, and sweep points through the artifact cache's rewards tier,
    keyed by content (:func:`_reward_table_token`); the token excludes
    fleet-shape parameters, so sweep points differing only in
    non-pricing knobs restore the same persisted table.  The cached
    arrays are shared read-only; the DP never writes them.
    """
    # Imported here: the cache lives in the runner layer, which imports
    # the attack layer; a module-level import would cycle.
    from repro.runner.cache import get_cache

    token = _reward_table_token(
        home, occupant_id, zones, pricing, controller_config, config
    )
    cache = get_cache()
    entry = cache.get_rewards(token)
    if entry is None:
        with kernel_timer(REWARD_TABLES):
            entry = _day_rewards(
                home,
                occupant_id,
                zones,
                pricing,
                controller_config,
                config,
                day_start_slot=0,
            )
        cache.put_rewards(token, entry)
    return entry


def _span_initial_states(
    oracle: _StealthOracle,
    zones: list[int],
    start: int,
    forbidden_first: int | None,
) -> dict[_State, tuple[float, _PathNode]]:
    """Entry states for a span beginning at minute-of-day ``start``.

    ``forbidden_first`` is the reported zone immediately before the
    span (the preceding real visit); starting the spoof in the same
    zone would merge the two visits into one over-long stay.
    """
    states: dict[_State, tuple[float, _PathNode]] = {}
    for zone in zones:
        if zone == forbidden_first:
            continue
        if oracle.entry_ok(zone, start):
            states[_State(zone, start)] = (0.0, (None, zone))
    return states


def _advance_slot(
    states: dict[_State, tuple[float, _PathNode]],
    t: int,
    zones: list[int],
    rewards: np.ndarray,
    oracle: _StealthOracle,
) -> dict[_State, tuple[float, _PathNode]]:
    """One step of the scalar reference DP: stay in the zone or transition.

    The input dict is in canonical (arrival, zone) order and the output
    preserves the invariant: surviving stay states keep their relative
    order (their arrivals predate ``t``) and the new transition states —
    all with arrival ``t`` — are appended in ascending zone order.  The
    best predecessor of every transition is the maximum-value
    exit-eligible state in a *different* zone, ties broken toward the
    canonically smallest state; only the overall best and the best
    outside the overall best's zone can ever win, which is what the
    batched engine's two-argmax step mirrors.
    """
    new_states: dict[_State, tuple[float, _PathNode]] = {}
    best: tuple[float, _State, _PathNode] | None = None
    second: tuple[float, _State, _PathNode] | None = None

    for state, (value, node) in states.items():
        stay_so_far = t - state.arrival  # completed minutes before slot t
        max_stay = oracle.max_stay(state.zone, state.arrival)
        # Option 1: remain in the zone for slot t.
        if max_stay is not None and stay_so_far + 1 <= max_stay:
            new_states[state] = (value + rewards[state.zone, t], (node, state.zone))
        # Option 2 candidates: states able to exit now (stay = stay_so_far).
        if stay_so_far >= 1 and oracle.exit_ok(state.zone, state.arrival, stay_so_far):
            if best is None or value > best[0]:
                best = (value, state, node)
            # second-best is the best among zones other than best's zone.
    if best is not None:
        for state, (value, node) in states.items():
            stay_so_far = t - state.arrival
            if state.zone == best[1].zone:
                continue
            if stay_so_far >= 1 and oracle.exit_ok(
                state.zone, state.arrival, stay_so_far
            ):
                if second is None or value > second[0]:
                    second = (value, state, node)
        for zone in zones:
            if not oracle.entry_ok(zone, t):
                continue
            pick = best if best[1].zone != zone else second
            if pick is None:
                continue
            value, _, node = pick
            new_states[_State(zone, t)] = (value + rewards[zone, t], (node, zone))
    return new_states


def _enumerate_window(
    states: dict[_State, tuple[float, _PathNode]],
    window_slots: range,
    zones: list[int],
    rewards: np.ndarray,
    oracle: _StealthOracle,
) -> dict[_State, tuple[float, _PathNode]]:
    """Exhaustive oracle: expand raw paths without state merging.

    Work (and memory) grows exponentially with the window length, as in
    an SMT enumeration; the final per-state maxima are identical to the
    DP's.
    """
    # Each entry is (state, value, node); duplicates are NOT merged.
    frontier = [(state, value, node) for state, (value, node) in states.items()]
    for t in window_slots:
        expanded = []
        for state, value, node in frontier:
            stay_so_far = t - state.arrival
            max_stay = oracle.max_stay(state.zone, state.arrival)
            if max_stay is not None and stay_so_far + 1 <= max_stay:
                expanded.append(
                    (state, value + rewards[state.zone, t], (node, state.zone))
                )
            if stay_so_far >= 1 and oracle.exit_ok(
                state.zone, state.arrival, stay_so_far
            ):
                for zone in zones:
                    if zone == state.zone or not oracle.entry_ok(zone, t):
                        continue
                    expanded.append(
                        (
                            _State(zone, t),
                            value + rewards[zone, t],
                            (node, zone),
                        )
                    )
        frontier = expanded
        if not frontier:
            break
    best: dict[_State, tuple[float, _PathNode]] = {}
    for state, value, node in frontier:
        existing = best.get(state)
        if existing is None or value > existing[0]:
            best[state] = (value, node)
    # Restore the canonical (arrival, zone) ordering so beam pruning and
    # the final winner pick break ties exactly like the DP.
    return dict(
        sorted(best.items(), key=lambda item: (item[0].arrival, item[0].zone))
    )


def _prune_beam(
    states: dict[_State, tuple[float, _PathNode]], beam_width: int
) -> dict[_State, tuple[float, _PathNode]]:
    """Keep the ``beam_width`` best states, canonical order restored.

    The value sort is stable, so equal-value states survive in canonical
    (arrival, zone) priority; the kept states are re-sorted canonically
    to preserve the shared ordering invariant.
    """
    if len(states) <= beam_width:
        return states
    ranked = sorted(states.items(), key=lambda item: item[1][0], reverse=True)
    kept = ranked[:beam_width]
    kept.sort(key=lambda item: (item[0].arrival, item[0].zone))
    return dict(kept)


def _optimize_span(
    zones: list[int],
    rewards: np.ndarray,
    oracle: _StealthOracle,
    config: ScheduleConfig,
    start: int = 0,
    end: int = MINUTES_PER_DAY,
    forbidden_first: int | None = None,
    forbidden_last: int | None = None,
    exhaustive: bool = False,
) -> tuple[list[int], float] | None:
    """Windowed optimization of slots ``[start, end)`` within one day:
    the scalar oracle of one :func:`_optimize_spans_batch` row.

    A full day is the span ``(0, 1440)``; restricted attackers optimize
    shorter spans anchored to reality on both sides.  ``forbidden_last``
    is the real zone right after the span — ending the spoof there would
    merge visits.  At ``end`` the final (possibly truncated) visit must
    still be an in-cluster exit; for ``end == 1440`` this is the forced
    midnight exit rule.  Each window runs the dict DP
    (:func:`_advance_slot`), or with ``exhaustive`` the path enumeration
    (:func:`_enumerate_window`).

    Returns ``(zone_per_slot, value)`` with ``end - start`` entries, or
    ``None`` when no stealthy span schedule exists.
    """
    states = _span_initial_states(oracle, zones, start, forbidden_first)
    if not states:
        return None
    # The entry slot's occupancy reward is collected up front.
    first = True
    for window_start in range(start, end, config.window):
        window_end = min(window_start + config.window, end)
        slots = range(window_start, window_end)
        if first:
            states = {
                state: (value + rewards[state.zone, start], node)
                for state, (value, node) in states.items()
            }
            slots = range(start + 1, window_end)
            first = False
        if exhaustive:
            states = _enumerate_window(states, slots, zones, rewards, oracle)
        else:
            for t in slots:
                states = _advance_slot(states, t, zones, rewards, oracle)
        if not states:
            return None
        states = _prune_beam(states, config.beam_width)
    finishers = {
        state: (value, node)
        for state, (value, node) in states.items()
        if state.zone != forbidden_last
        and oracle.exit_ok(state.zone, state.arrival, end - state.arrival)
    }
    if not finishers:
        return None
    best_state = max(finishers, key=lambda s: finishers[s][0])
    value, node = finishers[best_state]
    path = _materialise(node)
    if len(path) != end - start:
        raise AttackError(
            f"internal scheduling error: path length {len(path)} "
            f"for span [{start}, {end})"
        )
    return path, value


def _accessible_segments(
    actual: np.ndarray,
    spoofable_zone: np.ndarray,
    attackable: np.ndarray | None,
) -> list[list[tuple[int, int]]]:
    """:func:`_accessible_segments_reference` for every day of a trace
    in one array pass.

    ``actual`` is one occupant's real zone per slot over whole days,
    ``spoofable_zone`` the capability's ``zone_mask`` over zone ids and
    ``attackable`` its ``slot_mask`` over the trace (``None`` when every
    slot is attackable).  Visits are cut at midnight, as a day slice
    cuts them; a visit is spoofable when its zone is and all of its
    slots are attackable, and each day's maximal runs of spoofable
    visits are its segments, as minute-of-day ``(start, end)`` pairs.
    """
    n_days = len(actual) // MINUTES_PER_DAY
    ok = spoofable_zone[actual]
    if attackable is not None:
        visit_start = np.empty(len(actual), dtype=bool)
        visit_start[0] = True
        np.not_equal(actual[1:], actual[:-1], out=visit_start[1:])
        visit_start[::MINUTES_PER_DAY] = True
        starts = np.flatnonzero(visit_start)
        whole = np.logical_and.reduceat(attackable, starts)
        ok &= np.repeat(whole, np.diff(starts, append=len(actual)))
    # Runs of spoofable slots per day, framed by unspoofable sentinels:
    # edges alternate start, end within each day row.
    framed = np.zeros((n_days, MINUTES_PER_DAY + 2), dtype=bool)
    framed[:, 1:-1] = ok.reshape(n_days, MINUTES_PER_DAY)
    day, edge = np.nonzero(framed[:, 1:] != framed[:, :-1])
    segments: list[list[tuple[int, int]]] = [[] for _ in range(n_days)]
    edges = edge.tolist()
    for index, d in enumerate(day[::2].tolist()):
        segments[d].append((edges[2 * index], edges[2 * index + 1]))
    return segments


def _accessible_segments_reference(
    occupant_id: int,
    day_trace: HomeTrace,
    capability: AttackerCapability,
    day_start_slot: int,
) -> list[tuple[int, int]]:
    """Maximal spans of complete real visits the attacker can spoof over.

    A real visit can be spoofed only if every one of its slots is inside
    ``T^A`` and its real zone's sensors are accessible (the real-time
    feasibility condition of Section IV-C); consecutive spoofable visits
    merge into one segment.  This per-visit loop is the planner of the
    reference driver and the oracle of :func:`_accessible_segments`.
    """
    actual = day_trace.occupant_zone[:, occupant_id]
    changes = np.flatnonzero(actual[1:] != actual[:-1]) + 1
    boundaries = [0, *changes.tolist(), MINUTES_PER_DAY]
    if capability.slot_range is None:
        attackable = np.ones(MINUTES_PER_DAY, dtype=bool)
    else:
        # Built from the capability's own predicate so richer future
        # slot semantics cannot drift from this mask.
        attackable = np.fromiter(
            (
                capability.can_attack_slot(day_start_slot + t)
                for t in range(MINUTES_PER_DAY)
            ),
            dtype=bool,
            count=MINUTES_PER_DAY,
        )

    segments: list[tuple[int, int]] = []
    current: tuple[int, int] | None = None
    for index in range(len(boundaries) - 1):
        visit_start, visit_end = boundaries[index], boundaries[index + 1]
        zone = int(actual[visit_start])
        ok = capability.can_spoof_zone(zone) and bool(
            attackable[visit_start:visit_end].all()
        )
        if ok:
            if current is None:
                current = (visit_start, visit_end)
            else:
                current = (current[0], visit_end)
        else:
            if current is not None:
                segments.append(current)
                current = None
    if current is not None:
        segments.append(current)
    return segments


def _reality_rewards(
    home: SmartHome,
    occupant_id: int,
    day_trace: HomeTrace,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
    rates: np.ndarray,
) -> np.ndarray:
    """Per-slot marginal cost of the occupant's *actual* behaviour.

    ``rates`` is the tariff's marginal rate of every slot of
    ``day_trace``.  The per-minute kWh depends only on the conducted
    activity, so it is resolved once per activity id present and
    gathered across the trace; the products are bit-identical to
    pricing each slot one at a time.  ``day_trace`` may be one day or a
    whole multi-day trace — because the rate pattern is day-periodic and
    every kWh entry is a pure per-slot product, a whole-trace table
    sliced per day equals the per-day tables bit for bit (the batch
    planner relies on this).
    """
    zones = day_trace.occupant_zone[:, occupant_id]
    activities = day_trace.occupant_activity[:, occupant_id]
    present = np.bincount(activities)
    table = np.zeros(len(present))
    for activity in np.flatnonzero(present).tolist():
        cfm = occupant_marginal_cfm(home, controller_config, occupant_id, activity)
        table[activity] = hvac_kwh_per_minute(
            cfm, controller_config, config.outdoor_temperature_f
        )
    return np.where(zones == 0, 0.0, table[activities] * rates)


def _optimize_span_with_retry(
    zones: list[int],
    rewards: np.ndarray,
    oracle: _StealthOracle,
    config: ScheduleConfig,
    start: int,
    end: int,
    forbidden_first: int | None,
    forbidden_last: int | None,
    exhaustive: bool = False,
) -> tuple[list[int], float] | None:
    """:func:`_optimize_span` with one wider-beam retry on failure.

    Beam pruning can discard every state with a valid forced exit; a
    single 4x-wider retry recovers those rare dead ends cheaply.  An
    ``exhaustive`` span gets no retry.  This is the oracle of
    :func:`_solve_span_tasks`'s batched retry.
    """
    outcome = _optimize_span(
        zones,
        rewards,
        oracle,
        config,
        start=start,
        end=end,
        forbidden_first=forbidden_first,
        forbidden_last=forbidden_last,
        exhaustive=exhaustive,
    )
    if outcome is not None or exhaustive:
        return outcome
    return _optimize_span(
        zones,
        rewards,
        oracle,
        replace(config, beam_width=config.beam_width * 4),
        start=start,
        end=end,
        forbidden_first=forbidden_first,
        forbidden_last=forbidden_last,
    )


@dataclass
class _SpanTask:
    """One whole-span DP problem of the batch planner.

    A task is one distinct ``(job, occupant, segment)`` unit of work,
    shared by every day whose segment poses the same problem: the span
    bounds are minutes-of-day, the oracle and reward table identify the
    occupant, and ``outcome`` is filled in by
    :func:`_solve_span_tasks` — ``(path, value)`` as
    :func:`_optimize_span_with_retry` would have returned, with the path
    as an int64 array, or ``None``.
    """

    oracle: _StealthOracle
    rewards: np.ndarray
    zones: tuple[int, ...]
    start: int
    end: int
    forbidden_first: int | None
    forbidden_last: int | None
    config: ScheduleConfig
    outcome: tuple[np.ndarray, float] | None = None


def _solve_span_tasks(tasks: list[_SpanTask]) -> None:
    """Solve every task's whole-span DP, batching compatible spans.

    Tasks sharing ``(start, end, zones, window, beam)`` advance through
    :func:`_optimize_spans_batch` as rows of one array program — all
    attackable days of all occupants of all homes together, and a group
    of one as a one-row batch (each visit span of the per-visit
    fallback is a one-task call).  Failures get the same one-shot
    4x-wider-beam retry as :func:`_optimize_span_with_retry`, again
    batched.
    """
    _solve_task_wave(tasks, widen=False)
    retry = [task for task in tasks if task.outcome is None]
    if retry:
        _solve_task_wave(retry, widen=True)


def _solve_task_wave(tasks: list[_SpanTask], widen: bool) -> None:
    groups: dict[tuple, list[_SpanTask]] = {}
    for task in tasks:
        beam = task.config.beam_width * (4 if widen else 1)
        key = (task.start, task.end, task.zones, task.config.window, beam)
        groups.setdefault(key, []).append(task)
    for (start, end, zones, window, beam), members in groups.items():
        solve_config = ScheduleConfig(window=window, beam_width=beam)
        with kernel_timer(SCHEDULE_DP_BATCH):
            outcomes = _optimize_spans_batch(
                members, list(zones), solve_config, start, end
            )
        for task, outcome in zip(members, outcomes):
            task.outcome = outcome


# A window checkpoint also compacts the batched DP's states once this
# many positions have been born since the last one, dropping the dead
# placeholders that sparse rows accumulate (the reference never held
# them, so this prunes nothing it keeps).
_COMPACT_SLACK = 16


def _distinct(objects: list) -> tuple[list, np.ndarray]:
    """The distinct objects of a list by identity, in first-seen order,
    and the index of each entry among them."""
    first: dict[int, int] = {}
    unique: list = []
    index = np.empty(len(objects), dtype=np.int64)
    for position, item in enumerate(objects):
        index[position] = found = first.setdefault(id(item), len(unique))
        if found == len(unique):
            unique.append(item)
    return unique, index


def _optimize_spans_batch(
    tasks: list[_SpanTask],
    zones: list[int],
    config: ScheduleConfig,
    start: int,
    end: int,
) -> list[tuple[np.ndarray, float] | None]:
    """The production DP engine: one row of one array program per span task.

    Each row is the :func:`_optimize_span` problem of its task over
    ``[start, end)``; a solved row is ``(zone path as an int64 array,
    value)``.  DP states are ``[B, capacity]`` columns and each slot
    advance runs once for the whole batch.  A state keeps its float
    fields in one ``[C, B, capacity]`` block — value, death slot (the
    last slot the zone can still be occupied) and the *absolute* exit
    bounds of its merged stay intervals — and its int keys in one
    ``[2, B, capacity]`` block: its index into a reward row (row offset
    plus group-zone position) and its born column, so a beam prune is
    two takes and a birth three block writes.  A stay is an integer, so
    ``lo <= stay <= hi`` holds exactly when ``arrival + ceil(lo) <= t <=
    arrival + floor(hi)``: states carry no stay, and every exit test
    compares against the slot itself (the ``+inf`` / ``-inf`` padding
    stays never-true).  A born column is one (born slot, group zone)
    that some row may enter; each birth records its parent's column,
    and one walk up those columns recovers every winning path.  Results
    are bit-identical to the reference dict DP (:func:`_advance_slot` /
    :func:`_prune_beam`) because:

    * states keep the reference's canonical (arrival, zone) order: the
      entry block and every born block hold one position per group zone
      some row may enter, in the order of ``zones``.  A state the
      reference would not hold (not enterable in its row, no eligible
      parent) is a dead ``-inf`` entry; it never wins an ``argmax``,
      never finishes, and stays ``-inf`` under reward addition.  So
      every ``argmax`` (which returns the first maximum) picks the state
      the reference's strict ``>`` scan picks: the best exit-eligible
      state, and the best outside its zone for a transition into that
      zone;
    * a state whose ``maxStay`` ran out (the reference drops it) keeps
      its value until the next beam prune masks it: an integer stay past
      ``maxStay`` lies in no admitted interval (``maxStay`` is the
      largest integer they admit), so such a state can neither be a
      parent nor finish, and only the prune ranks it;
    * the beam prune reproduces the stable value sort plus canonical
      re-sort of :func:`_prune_beam`.  It keeps ``min(beam, most live
      states in any row)`` positions per row and dead states sort
      last, so a row that prunes where the reference would not (the
      position count is shared and counts dead states) drops only dead
      states.  That lets a window checkpoint also compact the dead
      placeholders away once :data:`_COMPACT_SLACK` positions were born
      since the last one, which keeps sparse rows' arrays short;
    * rewards are added in the same order, so every float operation is
      identical.

    A row with no enterable first zone gets ``None`` before any table is
    stacked, as the reference returns on an empty initial state set,
    and a call with no live row returns at once.  The oracle/reward
    tables are stacked once per distinct oracle and reward table and
    gathered per row, so memory scales with occupants, not with
    ``occupants x days``.
    """
    outcomes: list[tuple[np.ndarray, float] | None] = [None] * len(tasks)
    live_rows = [
        r
        for r, task in enumerate(tasks)
        if any(
            z != task.forbidden_first and task.oracle.entry[z, start]
            for z in zones
        )
    ]
    if not live_rows:
        return outcomes
    tasks = [tasks[r] for r in live_rows]
    n_rows = len(tasks)
    m = len(zones)
    span = end - start
    zarr = np.array(zones, dtype=np.int64)
    pos_of_zone = {z: p for p, z in enumerate(zones)}
    beam = config.beam_width
    minus_inf = -np.inf

    # Stack the oracle and reward tables over the span, restricted to the
    # group's zones, once per distinct table.  Rewards are slot-major
    # *contiguous* [span, B, m] so a run of quiet slots gathers all its
    # reward rows in one take.
    oracles, row_oracle = _distinct([task.oracle for task in tasks])
    reward_tables, row_rewards = _distinct([task.rewards for task in tasks])
    width = max(oracle.lo.shape[2] for oracle in oracles)
    n_oracles = len(oracles)
    entry_tab = np.empty((n_oracles, m, span), dtype=bool)
    for o, oracle in enumerate(oracles):
        entry_tab[o] = oracle.entry[zarr, start:end]
    rew_rows = np.empty((span, len(reward_tables), m))
    for p, rewards in enumerate(reward_tables):
        rew_rows[:, p] = rewards[zarr, start:end].T
    rew_rows = rew_rows.take(row_rewards, axis=1)
    rew_flat = rew_rows.reshape(span, n_rows * m)

    # Forbidden zones as group-zone positions; -1 when absent (a real
    # zone outside the schedulable set never equals a scheduled one).
    ff_pos = np.array(
        [
            pos_of_zone.get(task.forbidden_first, -1)
            if task.forbidden_first is not None
            else -1
            for task in tasks
        ],
        dtype=np.int64,
    )
    fl_pos = np.array(
        [
            pos_of_zone.get(task.forbidden_last, -1)
            if task.forbidden_last is not None
            else -1
            for task in tasks
        ],
        dtype=np.int64,
    )
    valid = entry_tab[row_oracle, :, 0] & (np.arange(m) != ff_pos[:, None])

    # Born slots: where some group zone is enterable in some row.  State
    # structure changes only there and at beam prunes; every other slot
    # replays one reward addition over a static state set.  A block of
    # states is born at ``start`` (the entry block) and at every born
    # slot: one state per group zone that some row may enter there, in
    # zone order, so each block keeps the reference's canonical order.
    born_rel = np.flatnonzero(entry_tab[:, :, 1:].any(axis=(0, 1))) + 1
    born_list = (born_rel + start).tolist()
    block_open = np.concatenate(
        (valid.any(axis=0)[None, :], entry_tab[:, :, born_rel].any(axis=0).T)
    )
    block, col_pos = np.nonzero(block_open)
    col_first = np.searchsorted(block, np.arange(len(born_list) + 2)).tolist()
    col_rel = np.concatenate(([0], born_rel))[block]
    col_slot = col_rel + start
    col_zone = zarr[col_pos]
    # Every born column's state block: death slot and absolute exit
    # bounds, padded to a common interval width with +inf/-inf; row 0
    # (the value) is written at the birth.  A column's reward is -inf in
    # a row that cannot enter its zone, so one add both prices the
    # valid births and kills the rest (a missing parent's -inf absorbs
    # the reward too).
    n_fields = 2 + 2 * width
    columns = np.empty((n_fields, n_oracles, len(block)))
    col_lows = columns[2 : 2 + width]
    col_highs = columns[2 + width :]
    for o, oracle in enumerate(oracles):
        w = oracle.lo.shape[2]
        columns[1, o] = oracle.max_int[col_zone, col_slot]
        col_lows[:w, o] = oracle.lo[col_zone, col_slot].T
        col_highs[:w, o] = oracle.hi[col_zone, col_slot].T
        if w < width:
            col_lows[w:, o] = np.inf
            col_highs[w:, o] = -np.inf
    columns[1] += col_slot - 1
    np.ceil(col_lows, out=col_lows)
    col_lows += col_slot
    np.floor(col_highs, out=col_highs)
    col_highs += col_slot
    if n_oracles < n_rows:
        columns = columns.take(row_oracle, axis=1)
    col_open = entry_tab[row_oracle[:, None], col_pos, col_rel]
    col_rew = np.where(col_open, rew_rows[col_rel, :, col_pos].T, minus_inf)

    capacity = beam + (config.window + 1) * m + m
    state = np.empty((n_fields, n_rows, capacity))
    value = state[0]
    death = state[1]
    lows = state[2 : 2 + width]
    highs = state[2 + width :]
    # A state's int keys: its index into a [B * m] reward row (row
    # offset plus group-zone position, which also tells zones apart
    # within a row) and its born column.  ``parent[row, column]`` is the
    # column of the state a birth was entered from; entry columns are
    # their own parents.
    keys = np.empty((2, n_rows, capacity), dtype=np.int64)
    slot_index = keys[0]
    rows = np.arange(n_rows)
    row_base = (rows * capacity)[:, None]
    col_keys = np.empty((2, n_rows, len(block)), dtype=np.int64)
    col_keys[0] = (rows * m)[:, None] + col_pos
    col_keys[1] = np.arange(len(block))
    n_entry = col_first[1]
    parent = np.empty((n_rows, len(block)), dtype=np.int64)
    parent[:, :n_entry] = np.arange(n_entry)

    # Entry block: invalid entries (zone not enterable at ``start``, or
    # the forbidden first zone) are dead -inf placeholders.
    n = n_entry
    entry_pos = col_pos[:n]
    state[:, :, :n] = columns[:, :, :n]
    value[:, :n] = np.where(
        valid[:, entry_pos], 0.0 + rew_rows[0][:, entry_pos], minus_inf
    )
    keys[:, :, :n] = col_keys[:, :, :n]

    def exits(t: int, n: int) -> np.ndarray:
        """Which of the first ``n`` states may end their visit at ``t``."""
        inside = (lows[:, :, :n] <= t) & (highs[:, :, :n] >= t)
        return inside[0] if width == 1 else inside.any(axis=0)

    def prune(last_slot: int) -> None:
        nonlocal n, compact_at
        vals = value[:, :n]
        # States whose maxStay ran out before ``last_slot`` (the last
        # slot advanced) are the ones the reference has dropped.
        vals[death[:, :n] < last_slot] = minus_inf
        # Keep k positions per row: the beam, or fewer when no row holds
        # that many live states, so the dead placeholders go too.
        live = int(np.count_nonzero(vals > minus_inf, axis=1).max())
        k = max(1, min(beam, live))
        # Top-k per row with the stable argsort's tie-break (lowest
        # position wins among equal values), via one partition instead
        # of a full stable sort: everything strictly above the k-th
        # largest value is kept, and the remaining slots fill with the
        # *earliest* states tied at that value.  The kept positions are
        # then read out in ascending order — exactly the stable
        # argsort + canonical re-sort of _prune_beam.
        kth = np.partition(vals, n - k, axis=1)[:, n - k]
        above = vals > kth[:, None]
        ties = vals == kth[:, None]
        need = k - np.count_nonzero(above, axis=1)
        tie_rank = np.cumsum(ties, axis=1)
        keep = above | (ties & (tie_rank <= need[:, None]))
        order = np.nonzero(keep)[1].reshape(n_rows, k)
        flat = (row_base + order).reshape(-1)
        state[:, :, :k] = (
            state.reshape(n_fields, -1).take(flat, axis=1).reshape(n_fields, n_rows, k)
        )
        keys[:, :, :k] = keys.reshape(2, -1).take(flat, axis=1).reshape(2, n_rows, k)
        n = k
        compact_at = k + _COMPACT_SLACK

    # Reusable gather buffer for quiet runs (a run never exceeds one
    # window, so window + 1 reward rows plus the accumulator suffice).
    scratch = np.empty((config.window + 1) * n_rows * capacity)
    boundaries = [*range(start + config.window, end, config.window), end]
    compact_at = n + _COMPACT_SLACK
    b_ptr = 0
    j = 0
    t = start + 1
    while t < end:
        boundary = boundaries[b_ptr]
        if t == boundary:
            if n > beam or n >= compact_at:
                prune(t - 1)
            b_ptr += 1
            continue
        stop = min(boundary, born_list[j]) if j < len(born_list) else boundary
        if stop > t:
            # A quiet run: all its reward rows in a single take, then the
            # per-slot adds.  An outer-axis reduce adds rows
            # sequentially, so seeding row 0 with the accumulator
            # reproduces the slot-by-slot addition order bit for bit.
            # One state in one row would collapse the reduce to a 1-D
            # pairwise sum, so that case takes the last prefix of a
            # sequential accumulate.
            vs = value[:, :n]
            length = stop - t
            buf = scratch[: (length + 1) * n_rows * n].reshape(length + 1, n_rows, n)
            buf[0] = vs
            np.take(
                rew_flat[t - start : stop - start],
                slot_index[:, :n],
                axis=1,
                out=buf[1:],
                mode="clip",
            )
            if vs.size == 1:
                vs[...] = np.add.accumulate(buf.reshape(-1))[-1]
            else:
                np.add.reduce(buf, axis=0, out=vs)
            t = stop
            continue
        # Born event: every row appends the slot's block of states, each
        # entered from the best exit-eligible state outside its zone.
        vs = value[:, :n]
        index = slot_index[:, :n]
        exit_value = np.where(exits(t, n), vs, minus_inf)
        best = exit_value.argmax(axis=1)
        best_index, best_column = keys[:, rows, best]
        best_value = exit_value[rows, best][:, None]
        j += 1
        first, last = col_first[j], col_first[j + 1]
        use_second = col_keys[0, :, first:last] == best_index[:, None]
        if (use_second & col_open[:, first:last]).any():
            # Some valid birth is into the best state's own zone: it
            # is entered from the best state outside that zone.
            other = np.where(index == best_index[:, None], minus_inf, exit_value)
            second = other.argmax(axis=1)
            parent[:, first:last] = np.where(
                use_second, keys[1, rows, second][:, None], best_column[:, None]
            )
            pick_value = np.where(use_second, other[rows, second][:, None], best_value)
        else:
            parent[:, first:last] = best_column[:, None]
            pick_value = best_value
        vs += rew_flat[t - start].take(index, mode="clip")
        born = slice(n, n + last - first)
        state[:, :, born] = columns[:, :, first:last]
        np.add(pick_value, col_rew[:, first:last], out=value[:, born])
        keys[:, :, born] = col_keys[:, :, first:last]
        n = born.stop
        t += 1
    if n > beam:
        prune(end - 1)  # the final window's checkpoint

    finish = exits(end, n) & (slot_index[:, :n] != (rows * m + fl_pos)[:, None])
    finish_value = np.where(finish, value[:, :n], minus_inf)
    winner = np.argmax(finish_value, axis=1)
    winner_value = finish_value[rows, winner]
    feasible = winner_value != minus_inf

    # One walk up the parent columns for the whole batch marks the slot
    # where each visit of the winning chain starts with its zone; a
    # parent is born before its child, so every chain reaches the entry
    # block.  Rows with no finisher walk along garbage and are discarded
    # below.
    marks = np.full((n_rows, span), -1, dtype=np.int64)
    chain = keys[1, rows, winner]
    marks[rows, col_rel[chain]] = col_zone[chain]
    while (chain >= n_entry).any():
        chain = parent[rows, chain]
        marks[rows, col_rel[chain]] = col_zone[chain]
    # Each slot holds the zone of the latest visit start at or before it.
    last_start = np.where(marks >= 0, np.arange(span), 0)
    np.maximum.accumulate(last_start, axis=1, out=last_start)
    zone_paths = np.take_along_axis(marks, last_start, axis=1)
    for row, r in enumerate(live_rows):
        if feasible[row]:
            outcomes[r] = (zone_paths[row], float(winner_value[row]))
    return outcomes


# One visit span of the per-visit fallback: ``(start, end,
# forbidden_first, forbidden_last)`` to ``(zone path, value)``, or
# ``None`` when no stealthy path exists.
_SpanSolver = Callable[
    [int, int, int | None, int | None], tuple[Sequence[int], float] | None
]


def _schedule_segment(
    solve: _SpanSolver,
    reality: np.ndarray,
    actual_day: np.ndarray,
    seg_start: int,
    seg_end: int,
    forbidden_first: int | None,
    forbidden_last: int | None,
) -> tuple[list[int], float, list[bool]]:
    """Best stealthy reported path for one accessible segment, solved in
    place: the reference driver's form of what the batch pipeline splits
    between :func:`_solve_span_tasks` and :func:`_assemble_schedule`.

    Tries the whole-span optimization first; when that is infeasible
    (or beats reality by nothing), falls back to optimizing each real
    visit's span (:func:`_segment_fallback`).  Returns what
    :func:`_segment_fallback` returns.
    """
    reality_value = float(reality[seg_start:seg_end].sum())
    outcome = solve(seg_start, seg_end, forbidden_first, forbidden_last)
    if outcome is not None and outcome[1] > reality_value + 1e-12:
        return list(outcome[0]), outcome[1], [True] * (seg_end - seg_start)
    return _segment_fallback(
        solve,
        reality,
        actual_day,
        seg_start,
        seg_end,
        forbidden_first,
        forbidden_last,
    )


def _segment_fallback(
    solve: _SpanSolver,
    reality: np.ndarray,
    actual_day: np.ndarray,
    seg_start: int,
    seg_end: int,
    forbidden_first: int | None,
    forbidden_last: int | None,
) -> tuple[list[int], float, list[bool]]:
    """Per-visit fallback for a segment whose whole-span DP failed (or
    failed to beat reality).

    Each real visit's span is optimized independently by ``solve``,
    left to right; the adjacency anchor chains through the previously
    decided reported zone, so this stays a sequential walk.  Visits that
    resist spoofing keep reality and earn the reality reward.  The batch
    pipeline solves each span as a one-task :func:`_solve_span_tasks`
    call (:func:`_solve_visit_span`), the reference driver with
    :func:`_optimize_span_with_retry`.

    Returns ``(reported_zone_per_slot, value, spoofed_mask)``; the mask
    marks slots belonging to adopted spoofed sub-spans (reality-kept
    slots report the occupant's true activity, spoofed slots the
    costliest plausible one).
    """
    boundaries = [seg_start]
    for t in range(seg_start + 1, seg_end):
        if actual_day[t] != actual_day[t - 1]:
            boundaries.append(t)
    boundaries.append(seg_end)

    path: list[int] = []
    mask: list[bool] = []
    value = 0.0
    previous_reported = forbidden_first
    for index in range(len(boundaries) - 1):
        v_start, v_end = boundaries[index], boundaries[index + 1]
        is_last = index == len(boundaries) - 2
        v_forbidden_last = (
            forbidden_last
            if is_last
            else (int(actual_day[v_end]) if v_end < MINUTES_PER_DAY else None)
        )
        sub = solve(v_start, v_end, previous_reported, v_forbidden_last)
        sub_reality = float(reality[v_start:v_end].sum())
        if sub is not None and sub[1] > sub_reality + 1e-12:
            sub_path, sub_value = sub
            path.extend(sub_path)
            mask.extend([True] * (v_end - v_start))
            value += sub_value
            previous_reported = int(sub_path[-1])
        else:
            path.extend(int(z) for z in actual_day[v_start:v_end])
            mask.extend([False] * (v_end - v_start))
            value += sub_reality
            previous_reported = int(actual_day[v_start])
    return path, value, mask


def _solve_visit_span(
    segment: _SpanTask,
    start: int,
    end: int,
    forbidden_first: int | None,
    forbidden_last: int | None,
) -> tuple[np.ndarray, float] | None:
    """The batch pipeline's :data:`_SpanSolver`: one visit span of
    ``segment``'s per-visit fallback, solved as a one-task
    :func:`_solve_span_tasks` call with the segment's oracle, tables and
    config."""
    task = replace(
        segment,
        start=start,
        end=end,
        forbidden_first=forbidden_first,
        forbidden_last=forbidden_last,
        outcome=None,
    )
    _solve_span_tasks([task])
    return task.outcome


@dataclass(frozen=True)
class ScheduleJob:
    """One home's inputs to :func:`shatter_schedule_batch`.

    Mirrors :class:`repro.hvac.simulation.SimulationJob`: the batch
    entry point takes a sequence of these and synthesizes every home's
    schedule in one stacked DP.

    Attributes:
        home: The target home.
        adm: The attacker's ADM estimate for this home.
        capability: Accessibility constraints (``Z^A``, ``O^A``, ``T^A``).
        pricing: TOU tariff providing the marginal price signal.
        actual_trace: Ground truth; inaccessible occupants and
            infeasible days fall back to it.
        controller_config: Controller setpoints used to price airflow;
            defaults to the standard configuration.
        config: Window length, beam width, assumed weather.
    """

    home: SmartHome
    adm: ClusterADM
    capability: AttackerCapability
    pricing: TouPricing
    actual_trace: HomeTrace
    controller_config: ControllerConfig | None = None
    config: ScheduleConfig | None = None


@dataclass
class _DayPlan:
    """Everything needed to assemble one (occupant, day) of a job.

    ``segments`` holds the span task of each accessible segment, in day
    order; a task's bounds and forbidden zones are the segment's.
    ``activity_lut`` maps a scheduled zone id to the activity reported
    with it and is shared by every day plan of the occupant.
    """

    occupant_id: int
    day: int
    segments: list[_SpanTask]
    full_day: bool
    actual_day: np.ndarray
    activity_lut: np.ndarray
    reality_day: np.ndarray


def _plan_vector_job(
    job: ScheduleJob,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
    tasks: list[_SpanTask],
) -> list[_DayPlan]:
    """Phase A of the batch pipeline: expand a job into span tasks.

    Walks the same (occupant, day, segment) structure as the reference
    driver, but instead of solving each whole-span DP in place it
    appends a :class:`_SpanTask` to the shared worklist.  Day-invariant
    work is hoisted: the oracle is memoized per ADM, the reward /
    best-activity tables are computed once per occupant (they are
    day-periodic), the reality table once over the whole trace (its
    per-day slices are bit-identical to per-day computation), and the
    day gate and every day's segments come from one array pass over
    the occupant's zone column (:func:`_accessible_segments`).  So two
    days of one occupant whose segments share bounds and forbidden
    zones pose the same DP problem: they share one task, and each day
    plan reads its outcome.  A row's result does not depend on its
    batch-mates (see :func:`_optimize_spans_batch`), so this is
    bit-identical to solving every day.
    """
    home, capability = job.home, job.capability
    trace = job.actual_trace
    n_slots = trace.n_slots
    if n_slots % MINUTES_PER_DAY != 0:
        raise AttackError("attack traces must cover whole days")
    zones = capability.schedulable_zones(home)
    spoofable_zone = capability.zone_mask(np.arange(home.n_zones))
    if capability.slot_range is None:
        attackable = None
        days = list(range(n_slots // MINUTES_PER_DAY))
    else:
        # A day is attacked only when its first and last slots are.
        attackable = capability.slot_mask(n_slots)
        days = np.flatnonzero(
            attackable[::MINUTES_PER_DAY]
            & attackable[MINUTES_PER_DAY - 1 :: MINUTES_PER_DAY]
        ).tolist()
    rates = job.pricing.marginal_rates(np.arange(n_slots))
    day_plans: list[_DayPlan] = []
    distinct: dict[tuple, _SpanTask] = {}
    for occupant in home.occupants:
        if occupant.occupant_id not in capability.occupants:
            continue
        oid = occupant.occupant_id
        oracle = stealth_oracle(job.adm, oid, home.n_zones)
        rewards, best_activity = occupant_reward_table(
            home, oid, zones, job.pricing, controller_config, config
        )
        # Zone -> reported activity as a lookup table (default 1 for
        # zones with no priced menu, matching best_activity.get(z, 1)).
        activity_lut = np.ones(max(zones, default=0) + 1, dtype=np.int64)
        for zone_id, activity_id in best_activity.items():
            if zone_id < len(activity_lut):
                activity_lut[zone_id] = activity_id
        reality_full = _reality_rewards(
            home, oid, trace, controller_config, config, rates
        )
        actual = trace.occupant_zone[:, oid]
        segments_of_day = _accessible_segments(actual, spoofable_zone, attackable)
        for day in days:
            day_start = day * MINUTES_PER_DAY
            segments = segments_of_day[day]
            actual_day = actual[day_start : day_start + MINUTES_PER_DAY]
            plan = _DayPlan(
                occupant_id=oid,
                day=day,
                segments=[],
                full_day=segments == [(0, MINUTES_PER_DAY)],
                actual_day=actual_day,
                activity_lut=activity_lut,
                reality_day=reality_full[day_start : day_start + MINUTES_PER_DAY],
            )
            for seg_start, seg_end in segments:
                forbidden_first = (
                    int(actual_day[seg_start - 1]) if seg_start > 0 else None
                )
                forbidden_last = (
                    int(actual_day[seg_end])
                    if seg_end < MINUTES_PER_DAY
                    else None
                )
                key = (oid, seg_start, seg_end, forbidden_first, forbidden_last)
                task = distinct.get(key)
                if task is None:
                    task = distinct[key] = _SpanTask(
                        oracle=oracle,
                        rewards=rewards,
                        zones=tuple(zones),
                        start=seg_start,
                        end=seg_end,
                        forbidden_first=forbidden_first,
                        forbidden_last=forbidden_last,
                        config=config,
                    )
                    tasks.append(task)
                plan.segments.append(task)
            day_plans.append(plan)
    return day_plans


def _assemble_schedule(
    job: ScheduleJob, day_plans: list[_DayPlan]
) -> AttackSchedule:
    """Phase C of the batch pipeline: adopt solved spans into a schedule.

    Replays the reference driver's adoption logic in its original
    (occupant, day, segment) order — including the float accumulation
    order of ``expected_reward`` — so the result is bit-identical to a
    per-job call.  An adopted whole-span path is written with one slice
    per array.  Segments whose whole-span DP failed (or failed to beat
    reality) run the sequential per-visit fallback here, each visit span
    a one-task :func:`_solve_span_tasks` call.
    """
    trace = job.actual_trace
    spoofed_zone = trace.occupant_zone.copy()
    spoofed_activity = trace.occupant_activity.copy()
    total_reward = 0.0
    infeasible: list[tuple[int, int]] = []
    substituted: list[tuple[int, int]] = []
    for plan in day_plans:
        oid = plan.occupant_id
        day_start = plan.day * MINUTES_PER_DAY
        adopted_any = False
        day_value = 0.0
        for seg in plan.segments:
            reality_value = float(plan.reality_day[seg.start : seg.end].sum())
            outcome = seg.outcome
            if outcome is not None and outcome[1] > reality_value + 1e-12:
                # Activity misinformation applies to the whole adopted
                # span: even where the scheduled zone coincides with
                # reality, the costliest plausible activity is reported
                # (that is what the reward model priced).
                path, value = outcome
                day_value += value
                adopted_any = True
                span = slice(day_start + seg.start, day_start + seg.end)
                spoofed_zone[span, oid] = path
                spoofed_activity[span, oid] = plan.activity_lut[path]
                continue
            with kernel_timer(SCHEDULE_DP):
                fallback, value, spoofed_mask = _segment_fallback(
                    partial(_solve_visit_span, seg),
                    plan.reality_day,
                    plan.actual_day,
                    seg.start,
                    seg.end,
                    seg.forbidden_first,
                    seg.forbidden_last,
                )
            day_value += value
            if not any(spoofed_mask):
                continue
            adopted_any = True
            offsets = np.flatnonzero(spoofed_mask)
            slots = day_start + seg.start + offsets
            adopted = np.asarray(fallback, dtype=np.int64)[offsets]
            spoofed_zone[slots, oid] = adopted
            spoofed_activity[slots, oid] = plan.activity_lut[adopted]
        if adopted_any:
            total_reward += day_value
            if not plan.full_day:
                substituted.append((oid, plan.day))
        else:
            infeasible.append((oid, plan.day))
    return AttackSchedule(
        spoofed_zone=spoofed_zone,
        spoofed_activity=spoofed_activity,
        expected_reward=total_reward,
        infeasible_days=infeasible,
        substituted_days=substituted,
    )


def _shatter_schedule_reference(
    job: ScheduleJob, exhaustive: bool = False
) -> AttackSchedule:
    """One job's schedule from a per-(occupant, day) loop that solves
    every span in place, one at a time: the bit-exact oracle
    :func:`shatter_schedule_batch` is property-tested against.

    Spans go through the scalar dict DP (:func:`_optimize_span` and its
    retry), or with ``exhaustive`` through the path enumeration; segments
    come from the per-visit planner (:func:`_accessible_segments_reference`).
    Day-invariant tables are still hoisted (memoized oracle, shared
    reward tables): both are bit-neutral per day, so the oracle stays
    exact.  Only tests and the hot-path benchmark call it.
    """
    home, adm, capability = job.home, job.adm, job.capability
    pricing, actual_trace = job.pricing, job.actual_trace
    controller_config = job.controller_config or ControllerConfig()
    config = job.config or ScheduleConfig()
    n_slots = actual_trace.n_slots
    if n_slots % MINUTES_PER_DAY != 0:
        raise AttackError("attack traces must cover whole days")
    n_days = n_slots // MINUTES_PER_DAY

    spoofed_zone = actual_trace.occupant_zone.copy()
    spoofed_activity = actual_trace.occupant_activity.copy()
    total_reward = 0.0
    infeasible: list[tuple[int, int]] = []
    substituted: list[tuple[int, int]] = []

    zones = capability.schedulable_zones(home)
    for occupant in home.occupants:
        if occupant.occupant_id not in capability.occupants:
            continue
        oracle = stealth_oracle(adm, occupant.occupant_id, home.n_zones)
        rewards, best_activity = occupant_reward_table(
            home,
            occupant.occupant_id,
            zones,
            pricing,
            controller_config,
            config,
        )
        solve = partial(
            _optimize_span_with_retry,
            zones,
            rewards,
            oracle,
            config,
            exhaustive=exhaustive,
        )
        for day in range(n_days):
            day_start = day * MINUTES_PER_DAY
            if not (
                capability.can_attack_slot(day_start)
                and capability.can_attack_slot(day_start + MINUTES_PER_DAY - 1)
            ):
                continue
            day_trace = actual_trace.slice_slots(
                day_start, day_start + MINUTES_PER_DAY
            )
            reality = _reality_rewards(
                home,
                occupant.occupant_id,
                day_trace,
                controller_config,
                config,
                pricing.marginal_rates(day_start + np.arange(MINUTES_PER_DAY)),
            )
            segments = _accessible_segments_reference(
                occupant.occupant_id, day_trace, capability, day_start
            )
            actual_day = day_trace.occupant_zone[:, occupant.occupant_id]
            adopted_any = False
            full_day = segments == [(0, MINUTES_PER_DAY)]
            day_value = 0.0
            for seg_start, seg_end in segments:
                forbidden_first = (
                    int(actual_day[seg_start - 1]) if seg_start > 0 else None
                )
                forbidden_last = (
                    int(actual_day[seg_end])
                    if seg_end < MINUTES_PER_DAY
                    else None
                )
                path, value, spoofed_mask = _schedule_segment(
                    solve,
                    reality,
                    actual_day,
                    seg_start,
                    seg_end,
                    forbidden_first,
                    forbidden_last,
                )
                day_value += value
                if not any(spoofed_mask):
                    continue
                adopted_any = True
                for offset, zone in enumerate(path):
                    if not spoofed_mask[offset]:
                        continue  # pure reality: true zone and activity
                    t = day_start + seg_start + offset
                    spoofed_zone[t, occupant.occupant_id] = zone
                    # Activity misinformation applies to the whole
                    # adopted sub-span: even where the scheduled zone
                    # coincides with reality, the costliest plausible
                    # activity is reported (that is what the reward
                    # model priced).
                    spoofed_activity[t, occupant.occupant_id] = (
                        best_activity.get(zone, 1)
                    )
            if adopted_any:
                total_reward += day_value
                if not full_day:
                    substituted.append((occupant.occupant_id, day))
            else:
                infeasible.append((occupant.occupant_id, day))
    return AttackSchedule(
        spoofed_zone=spoofed_zone,
        spoofed_activity=spoofed_activity,
        expected_reward=total_reward,
        infeasible_days=infeasible,
        substituted_days=substituted,
    )


def _prefetch_oracles(jobs: Sequence[ScheduleJob]) -> None:
    """Build every oracle ``jobs`` will ask for and the memo lacks,
    from one pass over all their (occupant, zone) hull groups."""
    missing: dict[tuple[int, int, int], tuple[ClusterADM, int, int]] = {}
    for job in jobs:
        n_zones = job.home.n_zones
        per_adm = _memo_of(job.adm)
        for occupant in job.home.occupants:
            oid = occupant.occupant_id
            if oid in job.capability.occupants and (oid, n_zones) not in per_adm:
                key = (id(job.adm), oid, n_zones)
                missing.setdefault(key, (job.adm, oid, n_zones))
    if missing:
        _build_oracles(list(missing.values()))


def shatter_schedule_batch(jobs: Sequence[ScheduleJob]) -> list[AttackSchedule]:
    """Synthesize SHATTER schedules for many homes in one array program.

    Every job runs through a three-phase pipeline: every distinct
    (occupant, segment) problem of every job becomes one whole-span DP
    task (:func:`_plan_vector_job`), compatible tasks advance together
    as rows of the batched engine (:func:`_solve_span_tasks`), and the
    solutions are adopted back per job, day by day, in the reference
    driver's order (:func:`_assemble_schedule`).  Before planning, the
    stealth oracles of every job that the memo lacks are built from one
    :func:`stay_range_rows` pass over all their hull groups
    (:func:`_prefetch_oracles`).  Results are bit-identical to calling
    :func:`shatter_schedule` per job — which itself is this function
    applied to a single job — and to the scalar oracle
    (:func:`_shatter_schedule_reference`).
    """
    _prefetch_oracles(jobs)
    tasks: list[_SpanTask] = []
    planned = [
        _plan_vector_job(
            job,
            job.controller_config or ControllerConfig(),
            job.config or ScheduleConfig(),
            tasks,
        )
        for job in jobs
    ]
    _solve_span_tasks(tasks)
    return [
        _assemble_schedule(job, day_plans) for job, day_plans in zip(jobs, planned)
    ]


def shatter_schedule(
    home: SmartHome,
    adm: ClusterADM,
    capability: AttackerCapability,
    pricing: TouPricing,
    actual_trace: HomeTrace,
    controller_config: ControllerConfig | None = None,
    config: ScheduleConfig | None = None,
) -> AttackSchedule:
    """Synthesize the SHATTER stealthy attack schedule for a trace span.

    Args:
        home: The target home.
        adm: The attacker's (possibly partial-knowledge) ADM estimate;
            every scheduled visit is guaranteed stealthy w.r.t. it.
        capability: Accessibility constraints (``Z^A``, ``O^A``, ``T^A``).
        pricing: TOU tariff providing the marginal price signal.
        actual_trace: Ground truth; inaccessible occupants and
            infeasible days fall back to it.
        controller_config: The controller setpoints used to price
            airflow; defaults to the standard configuration.
        config: Window length, beam width, assumed weather.

    Returns:
        The schedule with per-day feasibility diagnostics.

    A single-job :func:`shatter_schedule_batch`: all attackable days of
    all accessible occupants advance through the windowed DP together.
    """
    return shatter_schedule_batch(
        [
            ScheduleJob(
                home=home,
                adm=adm,
                capability=capability,
                pricing=pricing,
                actual_trace=actual_trace,
                controller_config=controller_config,
                config=config,
            )
        ]
    )[0]
