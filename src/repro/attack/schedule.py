"""SHATTER attack-schedule synthesis (Section IV-C, Eqs. 17-20).

The attacker pre-computes, per occupant and per day, a *stealthy
schedule*: a sequence of (zone, arrival, stay) visits that maximizes the
energy cost the controller will incur, subject to every visit lying
inside an ADM cluster hull (Eq. 20), staying never exceeding ``maxStay``
(Eq. 19), and exactly one zone per slot (Eq. 18).

The optimization is windowed, exactly as the paper describes: the
NP-hard full-day problem (O(|Z|^|T|)) is solved optimally inside
windows of ``I`` slots and the window solutions are merged.  One
production engine and its scalar oracles compute the same windowed
optimum:

* the default ``vector`` engine — a table-driven array program
  (:func:`_optimize_spans_batch`) that advances many spans as the rows
  of one program: all per-(zone, arrival) stay feasibility is
  precomputed for the full day (the stealth oracles, built for a
  whole batch from one multi-group stay-row pass), DP
  states live in ``[rows, states]`` index arrays in canonical
  (arrival, zone) order, and each slot advance is a handful of numpy
  operations with parent pointers kept in index arrays.  A single span
  is a one-row batch;
* the ``reference`` engine — the scalar dict-based dynamic program over
  (zone, arrival) states, kept as the bit-exact oracle the equivalence
  property tests compare against; and
* an ``exhaustive`` path enumeration replicating the SMT-style search
  whose cost grows exponentially with ``I`` (used by the Fig. 11
  scalability study; equivalence with the DP is property-tested).

Ties between equal-value states are broken canonically — toward the
smallest (arrival, zone) — in every engine, so the engines agree on the
synthesized path bit for bit, not just on its value.

Between windows a beam of the best states is carried, which is the
"merging" step of the paper.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Sequence

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
        exhaustive: Use the exponential path-enumeration engine instead
            of the DP (same answer, Fig. 11 cost profile).
        outdoor_temperature_f: Weather assumed when pricing airflow.
        engine: DP implementation — ``"vector"`` (the batched
            table-driven array program, default) or ``"reference"`` (the
            scalar dict DP kept as the equivalence oracle).  Ignored when
            ``exhaustive``.
    """

    window: int = 10
    beam_width: int = 64
    exhaustive: bool = False
    outdoor_temperature_f: float = 88.0
    engine: str = "vector"

    def __post_init__(self) -> None:
        if self.window < 1:
            raise AttackError("window must be at least one slot")
        if self.beam_width < 1:
            raise AttackError("beam width must be at least one")
        if self.engine not in ("vector", "reference"):
            raise AttackError(
                f"unknown schedule engine {self.engine!r}; "
                "expected 'vector' or 'reference'"
            )


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
    own copy of its raw rows, and the vector DP engine reads the arrays
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
    """One reference-engine DP step: stay in the zone or transition.

    The input dict is in canonical (arrival, zone) order and the output
    preserves the invariant: surviving stay states keep their relative
    order (their arrivals predate ``t``) and the new transition states —
    all with arrival ``t`` — are appended in ascending zone order.  The
    best predecessor of every transition is the maximum-value
    exit-eligible state in a *different* zone, ties broken toward the
    canonically smallest state; only the overall best and the best
    outside the overall best's zone can ever win, which is what the
    vector engine's two-argmax step mirrors.
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
    """Exhaustive engine: expand raw paths without state merging.

    Work (and memory) grows exponentially with the window length, as in
    an SMT enumeration; the final per-state maxima are identical to the
    DP engine's.
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
    # the final winner pick break ties exactly like the DP engines.
    return dict(
        sorted(best.items(), key=lambda item: (item[0].arrival, item[0].zone))
    )


def _prune_beam(
    states: dict[_State, tuple[float, _PathNode]], beam_width: int
) -> dict[_State, tuple[float, _PathNode]]:
    """Keep the ``beam_width`` best states, canonical order restored.

    The value sort is stable, so equal-value states survive in canonical
    (arrival, zone) priority; the kept states are re-sorted canonically
    to preserve the engines' shared ordering invariant.
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
) -> tuple[list[int], float] | None:
    """Windowed optimization of slots ``[start, end)`` within one day.

    A full day is the span ``(0, 1440)``; restricted attackers optimize
    shorter spans anchored to reality on both sides.  ``forbidden_last``
    is the real zone right after the span — ending the spoof there would
    merge visits.  At ``end`` the final (possibly truncated) visit must
    still be an in-cluster exit; for ``end == 1440`` this is the forced
    midnight exit rule.

    Returns ``(zone_per_slot, value)`` with ``end - start`` entries, or
    ``None`` when no stealthy span schedule exists.  The ``vector``
    engine solves the span as a one-row :func:`_optimize_spans_batch`.
    """
    if not config.exhaustive and config.engine == "vector":
        task = _SpanTask(
            oracle,
            rewards,
            tuple(zones),
            start,
            end,
            forbidden_first,
            forbidden_last,
            config,
        )
        with kernel_timer(SCHEDULE_DP_BATCH):
            return _optimize_spans_batch([task], zones, config, start, end)[0]
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
        if config.exhaustive:
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
    occupant_id: int,
    day_trace: HomeTrace,
    capability: AttackerCapability,
    day_start_slot: int,
) -> list[tuple[int, int]]:
    """Maximal spans of complete real visits the attacker can spoof over.

    A real visit can be spoofed only if every one of its slots is inside
    ``T^A`` and its real zone's sensors are accessible (the real-time
    feasibility condition of Section IV-C); consecutive spoofable visits
    merge into one segment.
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
    pricing: TouPricing,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
    day_start_slot: int,
) -> np.ndarray:
    """Per-slot marginal cost of the occupant's *actual* behaviour.

    The per-minute kWh depends only on the conducted activity, so it is
    resolved once per distinct activity id and gathered across the
    trace; the products are bit-identical to pricing each slot one at a
    time.  ``day_trace`` may be one day or a whole multi-day trace —
    because the rate pattern is day-periodic and every kWh entry is a
    pure per-slot product, a whole-trace table sliced per day equals the
    per-day tables bit for bit (the batch planner relies on this).
    """
    zones = day_trace.occupant_zone[:, occupant_id]
    activities = day_trace.occupant_activity[:, occupant_id]
    kwh_by_activity: dict[int, float] = {}
    for activity in np.unique(activities).tolist():
        cfm = occupant_marginal_cfm(
            home, controller_config, occupant_id, int(activity)
        )
        kwh_by_activity[int(activity)] = hvac_kwh_per_minute(
            cfm, controller_config, config.outdoor_temperature_f
        )
    table = np.zeros(max(kwh_by_activity) + 1)
    for activity, kwh in kwh_by_activity.items():
        table[activity] = kwh
    rates = pricing.marginal_rates(day_start_slot + np.arange(day_trace.n_slots))
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
) -> tuple[list[int], float] | None:
    """``_optimize_span`` with one wider-beam retry on failure.

    Beam pruning can discard every state with a valid forced exit; a
    single 4x-wider retry recovers those rare dead ends cheaply.
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
    )
    if outcome is not None or config.exhaustive:
        return outcome
    wide = ScheduleConfig(
        window=config.window,
        beam_width=config.beam_width * 4,
        exhaustive=False,
        outdoor_temperature_f=config.outdoor_temperature_f,
        engine=config.engine,
    )
    return _optimize_span(
        zones,
        rewards,
        oracle,
        wide,
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
    :func:`_solve_span_tasks` — ``(path, value)`` exactly as
    :func:`_optimize_span_with_retry` would have returned, or ``None``.
    """

    oracle: _StealthOracle
    rewards: np.ndarray
    zones: tuple[int, ...]
    start: int
    end: int
    forbidden_first: int | None
    forbidden_last: int | None
    config: ScheduleConfig
    outcome: tuple[list[int], float] | None = None


def _solve_span_tasks(tasks: list[_SpanTask]) -> None:
    """Solve every task's whole-span DP, batching compatible spans.

    Tasks sharing ``(start, end, zones, window, beam)`` advance through
    :func:`_optimize_spans_batch` as rows of one array program — all
    attackable days of all occupants of all homes together, and a group
    of one as a one-row batch.  Failures get the same one-shot
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


# Dead-state death sentinel of the batched DP: placeholder states (an
# invalid entry in an otherwise-uniform born block) carry this death
# slot so they never tighten the group's min-death early-out.
_NEVER_DIES = 1 << 60


def _optimize_spans_batch(
    tasks: list[_SpanTask],
    zones: list[int],
    config: ScheduleConfig,
    start: int,
    end: int,
) -> list[tuple[list[int], float] | None]:
    """The ``vector`` engine: one row of one array program per span task.

    Each row is the :func:`_optimize_span` problem of its task over
    ``[start, end)``.  DP states are ``[B, capacity]`` columns — group
    zone position, stay, value, death slot (the last slot the zone can
    still be occupied) and merged exit-interval bounds — and each slot
    advance runs once for the whole batch.  Results are bit-identical
    to the reference dict DP (:func:`_advance_slot` /
    :func:`_prune_beam`) because:

    * states keep the reference's canonical (arrival, zone) order: the
      entry block and every born block hold one position per group zone,
      in the order of ``zones``.  A state the reference would not hold
      (not enterable, no eligible parent, ``maxStay`` exhausted) is a
      dead ``-inf`` entry; it never wins an ``argmax``, never finishes,
      and stays ``-inf`` under reward addition.  So every ``argmax``
      (which returns the first maximum) picks the state the reference's
      strict ``>`` scan picks: the best exit-eligible state, and the
      best outside its zone for a transition into that zone;
    * the beam prune reproduces the stable value sort plus canonical
      re-sort of :func:`_prune_beam`.  Dead states sort last, so a row
      that prunes where the reference would not (the position count is
      shared and counts dead states) drops only dead states;
    * rewards are added in the same order, so every float operation is
      identical.

    A row with no enterable first zone gets ``None`` before any table is
    stacked, as the reference returns on an empty initial state set,
    and a call with no live row returns at once.  The oracle/reward
    tables are stacked once per distinct ``(oracle, rewards)`` pair and
    gathered per row, so memory scales with occupants, not with
    ``occupants x days``.
    """
    outcomes: list[tuple[list[int], float] | None] = [None] * len(tasks)
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
    zarr = np.array(zones, dtype=np.int64)
    pos_of_zone = {z: p for p, z in enumerate(zones)}
    beam = config.beam_width
    minus_inf = -np.inf

    # Stack the per-(oracle, rewards) tables, restricted to the group's
    # zones and padded to a common interval width (+inf/-inf padding
    # keeps membership tests vacuously false, the oracle's own
    # convention).
    pair_index: dict[tuple[int, int], int] = {}
    pairs: list[tuple[_StealthOracle, np.ndarray]] = []
    row_pair = np.empty(n_rows, dtype=np.int64)
    for r, task in enumerate(tasks):
        key = (id(task.oracle), id(task.rewards))
        idx = pair_index.get(key)
        if idx is None:
            idx = pair_index[key] = len(pairs)
            pairs.append((task.oracle, task.rewards))
        row_pair[r] = idx
    width = max(oracle.lo.shape[2] for oracle, _ in pairs)
    n_pairs = len(pairs)
    n_slots = pairs[0][0].lo.shape[1]
    entry_tab = np.empty((n_pairs, m, n_slots), dtype=bool)
    rew_tab = np.empty((n_pairs, m, n_slots))
    for p, (oracle, rewards) in enumerate(pairs):
        entry_tab[p] = oracle.entry[zarr]
        rew_tab[p] = rewards[zarr]
    # Group-level birth gate: a slot where no group zone is enterable in
    # any row can have no birth, so the loop treats it as quiet.
    entry_any = entry_tab.any(axis=(0, 1))
    # The interval and max-stay tables are only ever read at ``start``
    # and at born slots, so only those columns are stacked — column 0 is
    # ``start`` and columns 1: line up with ``born_slots``.
    born_slots = np.flatnonzero(entry_any[start + 1 : end]) + start + 1
    sel = np.concatenate(([start], born_slots))
    lo_tab = np.full((n_pairs, m, len(sel), width), np.inf)
    hi_tab = np.full((n_pairs, m, len(sel), width), -np.inf)
    max_tab = np.empty((n_pairs, m, len(sel)), dtype=np.int64)
    for p, (oracle, _) in enumerate(pairs):
        w = oracle.lo.shape[2]
        cols = np.ix_(zarr, sel)
        lo_tab[p, :, :, :w] = oracle.lo[cols]
        hi_tab[p, :, :, :w] = oracle.hi[cols]
        max_tab[p] = oracle.max_int[cols]

    # Per-row stacks for the small 3-D tables, gathered once: the DP
    # loop reads each slot as one [B, m] slice instead of a fancy
    # gather per slot.  Rewards are slot-major *contiguous* so a run of
    # quiet slots can gather all its reward rows in one take.  The 4-D
    # interval tables stay per-pair (a per-row copy would be tens of
    # MB) and gather per born slot.
    ent_rows = entry_tab[row_pair].transpose(2, 0, 1)
    rew_rows = np.ascontiguousarray(rew_tab[row_pair].transpose(2, 0, 1))
    rew_flat = rew_rows.reshape(n_slots, n_rows * m)

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

    # State columns, now [B, capacity]; states hold their zone as a
    # group-zone *position* so every table gather is a direct index.
    capacity = beam + (config.window + 1) * m + m
    zpos = np.zeros((n_rows, capacity), dtype=np.int64)
    stay_len = np.zeros((n_rows, capacity), dtype=np.int64)
    value = np.zeros((n_rows, capacity))
    death = np.full((n_rows, capacity), _NEVER_DIES, dtype=np.int64)
    exit_lo = np.zeros((n_rows, capacity, width))
    exit_hi = np.zeros((n_rows, capacity, width))

    rows = np.arange(n_rows)
    rcol = rows[:, None]  # broadcast row index for per-slot gathers
    positions = np.arange(m)

    # Init block: one state per group zone in every row; invalid entries
    # (zone not enterable at ``start``, or the forbidden first zone) are
    # dead -inf placeholders.
    ent0 = ent_rows[start]
    valid = ent0 & (positions[None, :] != ff_pos[:, None])
    rew0 = rew_rows[start]
    zpos[:, :m] = positions[None, :]
    value[:, :m] = np.where(valid, 0.0 + rew0, minus_inf)
    d0 = start + max_tab[row_pair, :, 0] - 1
    death[:, :m] = np.where(valid, d0, _NEVER_DIES)
    exit_lo[:, :m] = lo_tab[row_pair, :, 0, :]
    exit_hi[:, :m] = hi_tab[row_pair, :, 0, :]
    n = m
    min_death = int(death[:, :m].min())

    slot_records: list[tuple] = []

    # The slot loop is event-driven: state *structure* only changes at
    # born slots (entry_any), beam prunes (window checkpoints), and
    # death slots.  Between events every slot just replays one reward
    # addition over a static state set, so those "quiet" runs gather
    # all their reward rows in a single take and keep only the
    # per-slot adds — float addition is still applied slot by slot in
    # the original order, so every value is bit-identical to the
    # slot-at-a-time loop.  Lazy bookkeeping preserving bit-identity:
    #
    # * stays advance uniformly on quiet slots, so ``stay_len`` holds
    #   values exact as of ``synced`` and is caught up (one add) when a
    #   born slot or the finish actually reads stays;
    # * the original loop re-masks dead states every slot past
    #   ``min_death``; masking is idempotent (-inf absorbs the reward
    #   adds), so masking once at each state's first dead slot and
    #   retiring its death sentinel yields the same arrays.
    base_rows = (rows * m)[:, None]
    idx_flat = base_rows + zpos[:, :n]
    synced = start
    # Reusable gather buffer for quiet runs (a run never exceeds one
    # window, so window + 1 reward rows plus the accumulator suffice).
    _scratch = np.empty((config.window + 1) * n_rows * capacity)
    boundaries = list(range(start + config.window, end, config.window))
    boundaries.append(end)
    b_ptr = 0
    born_ptr = 0
    # Interval bounds for every born slot, gathered once up front as
    # [K, B, m, W] so each born event reads a contiguous slice instead
    # of paying a 4-D fancy gather.  Only the born slots' slices are
    # materialised (the full per-row tables would be tens of MB).
    born_lo = np.ascontiguousarray(
        lo_tab[:, :, 1:, :][row_pair].transpose(2, 0, 1, 3)
    )
    born_hi = np.ascontiguousarray(
        hi_tab[:, :, 1:, :][row_pair].transpose(2, 0, 1, 3)
    )
    # Same for the entry gate, max-stay, and reward rows read at born
    # slots: [K, B, m] contiguous (the transposed views stride a cache
    # line per element, which dominated the born path).
    born_ent = np.ascontiguousarray(ent_rows[born_slots])
    born_max = np.ascontiguousarray(
        max_tab[:, :, 1:][row_pair].transpose(2, 0, 1)
    )
    born_rew = np.ascontiguousarray(rew_rows[born_slots])

    def _prune() -> None:
        nonlocal n, idx_flat
        # Top-beam per row with the stable argsort's tie-break (lowest
        # position wins among equal values), via one partition instead
        # of a full stable sort: everything strictly above the beam-th
        # largest value is kept, and the remaining slots fill with the
        # *earliest* states tied at that value.  The kept positions are
        # then read out in ascending order — exactly the stable
        # argsort + canonical re-sort of _prune_beam.
        vals = value[:, :n]
        kth = np.partition(vals, n - beam, axis=1)[:, n - beam]
        above = vals > kth[:, None]
        ties = vals == kth[:, None]
        need = beam - np.count_nonzero(above, axis=1)
        tie_rank = np.cumsum(ties, axis=1)
        keep = above | (ties & (tie_rank <= need[:, None]))
        order = np.nonzero(keep)[1].reshape(n_rows, beam)
        flat_idx = rcol * capacity + order
        for columns in (zpos, stay_len, value, death):
            columns[:, :beam] = columns.take(flat_idx, mode="clip")
        exit_lo[:, :beam] = np.take(
            exit_lo.reshape(-1, width),
            flat_idx.reshape(-1),
            axis=0,
            mode="clip",
        ).reshape(n_rows, beam, width)
        exit_hi[:, :beam] = np.take(
            exit_hi.reshape(-1, width),
            flat_idx.reshape(-1),
            axis=0,
            mode="clip",
        ).reshape(n_rows, beam, width)
        slot_records.append(("prune", order))
        n = beam
        idx_flat = base_rows + zpos[:, :n]

    t = start + 1
    while t < end:
        boundary = boundaries[b_ptr]
        if t == boundary:
            if n > beam:
                _prune()
            b_ptr += 1
            continue
        while born_ptr < len(born_slots) and born_slots[born_ptr] < t:
            born_ptr += 1
        next_born = (
            int(born_slots[born_ptr]) if born_ptr < len(born_slots) else end
        )
        death_evt = min_death + 1 if min_death < _NEVER_DIES else end
        stop = min(boundary, next_born, max(death_evt, t))
        if stop > t:
            vs = value[:, :n]
            length = stop - t
            buf = _scratch[: (length + 1) * n_rows * n].reshape(
                length + 1, n_rows, n
            )
            buf[0] = vs
            np.take(
                rew_flat[t:stop], idx_flat, axis=1, out=buf[1:], mode="clip"
            )
            # An outer-axis reduce adds rows sequentially, so seeding
            # row 0 with the accumulator reproduces the slot-by-slot
            # addition order bit for bit.  One state in one row would
            # collapse the reduce to a 1-D pairwise sum, so that case
            # takes the last prefix of a sequential accumulate.
            if vs.size == 1:
                vs[...] = np.add.accumulate(buf.reshape(-1))[-1]
            else:
                np.add.reduce(buf, axis=0, out=vs)
            slot_records.append(("run", n, length))
            t = stop
            continue
        # Event slot: a birth and/or a death lands on t.
        zs = zpos[:, :n]
        vs = value[:, :n]
        born = bool(entry_any[t])
        if born:
            ss = stay_len[:, :n]
            ss += t - synced
            synced = t
            # Interval membership, unrolled over the (tiny) width axis:
            # the broadcast 3-D test costs ~10x these 2-D ops.  Stays
            # are cast to float once (exact for these magnitudes) so
            # each comparison skips its own int -> float promotion.
            ssf = ss.astype(np.float64)
            exits = (exit_lo[:, :n, 0] <= ssf) & (ssf <= exit_hi[:, :n, 0])
            for w in range(1, width):
                exits |= (exit_lo[:, :n, w] <= ssf) & (
                    ssf <= exit_hi[:, :n, w]
                )
            exit_value = np.where(exits, vs, minus_inf)
            best = np.argmax(exit_value, axis=1)
            best_ok = exit_value[rows, best] != minus_inf
            best_zpos = zs[rows, best]
            other = np.where(
                zs == best_zpos[:, None], minus_inf, exit_value
            )
            second = np.argmax(other, axis=1)
            second_ok = other[rows, second] != minus_inf
            use_second = positions[None, :] == best_zpos[:, None]
            pick = np.where(use_second, second[:, None], best[:, None])
            ent_t = born_ent[born_ptr]
            # second_ok implies best_ok (a live second requires a
            # live best), so the two gates fuse into one where().
            birth_valid = ent_t & np.where(
                use_second, second_ok[:, None], best_ok[:, None]
            )
            rew_t = born_rew[born_ptr]
            pick_value = exit_value.take(rcol * n + pick, mode="clip")
            parent_zpos = zpos.take(rcol * capacity + pick, mode="clip")
        vs += rew_flat[t].take(idx_flat, mode="clip")
        if t > min_death:
            dead = death[:, :n] < t
            vs[dead] = minus_inf
            death[:, :n][dead] = _NEVER_DIES
            min_death = int(death[:, :n].min())
        if born:
            zpos[:, n : n + m] = positions[None, :]
            stay_len[:, n : n + m] = 0
            value[:, n : n + m] = np.where(
                birth_valid, pick_value + rew_t, minus_inf
            )
            born_death = np.where(
                birth_valid, t + born_max[born_ptr] - 1, _NEVER_DIES
            )
            death[:, n : n + m] = born_death
            exit_lo[:, n : n + m] = born_lo[born_ptr]
            exit_hi[:, n : n + m] = born_hi[born_ptr]
            slot_records.append((n, pick, parent_zpos))
            n += m
            idx_flat = base_rows + zpos[:, :n]
            # Dead placeholders carry _NEVER_DIES, so the min is a
            # no-op when no birth was valid.
            min_death = min(min_death, int(born_death.min()))
        else:
            slot_records.append((n, None, None))
        t += 1
    if n > beam:
        _prune()  # the final window's checkpoint

    stay_len[:, :n] += (end - 1) - synced  # catch stays up to the last slot
    final_stay = (stay_len[:, :n] + 1).astype(np.float64)
    finish = (exit_lo[:, :n, 0] <= final_stay) & (
        final_stay <= exit_hi[:, :n, 0]
    )
    for w in range(1, width):
        finish |= (exit_lo[:, :n, w] <= final_stay) & (
            final_stay <= exit_hi[:, :n, w]
        )
    finish &= zpos[:, :n] != fl_pos[:, None]
    finish_value = np.where(finish, value[:, :n], minus_inf)
    winner = np.argmax(finish_value, axis=1)
    winner_value = finish_value[rows, winner]
    feasible = winner_value != minus_inf

    # One backward walk for the whole batch; rows with no finisher walk
    # along garbage and are discarded below.
    span = end - start
    paths = np.empty((n_rows, span), dtype=np.int64)
    col = span - 1
    index = winner.copy()
    zone_now = zpos[rows, winner].copy()
    for record in reversed(slot_records):
        if record[0] == "prune":
            index = record[1][rows, index]
            continue
        if record[0] == "run":
            # A quiet run: no state changed, so the whole stretch holds
            # the current zone and the walk index is unchanged.
            length = record[2]
            paths[:, col - length + 1 : col + 1] = zone_now[:, None]
            col -= length
            continue
        n_prev, pick, parent_zpos = record
        paths[:, col] = zone_now
        col -= 1
        if pick is not None:
            is_born = index >= n_prev
            offset = np.where(is_born, index - n_prev, 0)
            zone_now = np.where(is_born, parent_zpos[rows, offset], zone_now)
            index = np.where(is_born, pick[rows, offset], index)
    if col != 0:
        raise AttackError(
            f"internal scheduling error: {col + 1} unwritten path slots "
            f"for span [{start}, {end})"
        )
    paths[:, 0] = zone_now  # the entry slot emitted by the init block

    zone_paths = zarr[paths]  # group-zone positions -> real zone ids
    for row, r in enumerate(live_rows):
        if feasible[row]:
            outcomes[r] = (zone_paths[row].tolist(), float(winner_value[row]))
    return outcomes


def _schedule_segment(
    zones: list[int],
    rewards: np.ndarray,
    reality: np.ndarray,
    actual_day: np.ndarray,
    oracle: _StealthOracle,
    config: ScheduleConfig,
    seg_start: int,
    seg_end: int,
    forbidden_first: int | None,
    forbidden_last: int | None,
) -> tuple[list[int], float, bool]:
    """Best stealthy reported path for one accessible segment.

    Tries the whole-span optimization first; when that is infeasible
    (or beats reality by nothing), falls back to optimizing each real
    visit's span independently, left to right, anchoring adjacency on
    the previously decided reported zone.  Visits that resist spoofing
    keep reality and earn the reality reward.

    Returns ``(reported_zone_per_slot, value, spoofed_mask)``; the mask
    marks slots belonging to adopted spoofed sub-spans (reality-kept
    slots report the occupant's true activity, spoofed slots the
    costliest plausible one).
    """
    span_length = seg_end - seg_start
    reality_value = float(reality[seg_start:seg_end].sum())
    outcome = _optimize_span_with_retry(
        zones,
        rewards,
        oracle,
        config,
        seg_start,
        seg_end,
        forbidden_first,
        forbidden_last,
    )
    if outcome is not None and outcome[1] > reality_value + 1e-12:
        return outcome[0], outcome[1], [True] * span_length
    return _segment_fallback(
        zones,
        rewards,
        reality,
        actual_day,
        oracle,
        config,
        seg_start,
        seg_end,
        forbidden_first,
        forbidden_last,
    )


def _segment_fallback(
    zones: list[int],
    rewards: np.ndarray,
    reality: np.ndarray,
    actual_day: np.ndarray,
    oracle: _StealthOracle,
    config: ScheduleConfig,
    seg_start: int,
    seg_end: int,
    forbidden_first: int | None,
    forbidden_last: int | None,
) -> tuple[list[int], float, list[bool]]:
    """Per-visit fallback of :func:`_schedule_segment`.

    Each real visit's span is optimized independently, left to right;
    the adjacency anchor chains through the previously decided reported
    zone, so this stays a sequential scalar walk (the batch planner
    calls it only for the rare segments whose whole-span DP failed).
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
        sub = _optimize_span_with_retry(
            zones,
            rewards,
            oracle,
            config,
            v_start,
            v_end,
            previous_reported,
            v_forbidden_last,
        )
        sub_reality = float(reality[v_start:v_end].sum())
        if sub is not None and sub[1] > sub_reality + 1e-12:
            sub_path, sub_value = sub
            path.extend(sub_path)
            mask.extend([True] * (v_end - v_start))
            value += sub_value
            previous_reported = sub_path[-1]
        else:
            path.extend(int(z) for z in actual_day[v_start:v_end])
            mask.extend([False] * (v_end - v_start))
            value += sub_reality
            previous_reported = int(actual_day[v_start])
    return path, value, mask


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
        config: Window length, beam width, engine choice.
    """

    home: SmartHome
    adm: ClusterADM
    capability: AttackerCapability
    pricing: TouPricing
    actual_trace: HomeTrace
    controller_config: ControllerConfig | None = None
    config: ScheduleConfig | None = None


@dataclass
class _SegmentPlan:
    """One accessible segment of a planned day, with its span task."""

    seg_start: int
    seg_end: int
    forbidden_first: int | None
    forbidden_last: int | None
    task: _SpanTask


@dataclass
class _DayPlan:
    """Everything needed to assemble one (occupant, day) of a job."""

    occupant_id: int
    day: int
    segments: list[_SegmentPlan]
    full_day: bool
    actual_day: np.ndarray
    oracle: _StealthOracle
    rewards: np.ndarray
    best_activity: dict[int, int]
    reality_day: np.ndarray
    zones: list[int]


def _plan_vector_job(
    job: ScheduleJob,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
    tasks: list[_SpanTask],
) -> list[_DayPlan]:
    """Phase A of the batch pipeline: expand a job into span tasks.

    Walks the same (occupant, day, segment) structure as the scalar
    engine, but instead of solving each whole-span DP in place it
    appends a :class:`_SpanTask` to the shared worklist.  Day-invariant
    work is hoisted: the oracle is memoized per ADM, the reward /
    best-activity tables are computed once per occupant (they are
    day-periodic) and the reality table once over the whole trace (its
    per-day slices are bit-identical to per-day computation).  So two
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
    n_days = n_slots // MINUTES_PER_DAY
    zones = capability.schedulable_zones(home)
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
        reality_full = _reality_rewards(
            home,
            oid,
            trace,
            job.pricing,
            controller_config,
            config,
            day_start_slot=0,
        )
        for day in range(n_days):
            day_start = day * MINUTES_PER_DAY
            if not (
                capability.can_attack_slot(day_start)
                and capability.can_attack_slot(day_start + MINUTES_PER_DAY - 1)
            ):
                continue
            day_trace = trace.slice_slots(
                day_start, day_start + MINUTES_PER_DAY
            )
            segments = _accessible_segments(
                oid, day_trace, capability, day_start
            )
            actual_day = day_trace.occupant_zone[:, oid]
            plan = _DayPlan(
                occupant_id=oid,
                day=day,
                segments=[],
                full_day=segments == [(0, MINUTES_PER_DAY)],
                actual_day=actual_day,
                oracle=oracle,
                rewards=rewards,
                best_activity=best_activity,
                reality_day=reality_full[day_start : day_start + MINUTES_PER_DAY],
                zones=zones,
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
                plan.segments.append(
                    _SegmentPlan(
                        seg_start,
                        seg_end,
                        forbidden_first,
                        forbidden_last,
                        task,
                    )
                )
            day_plans.append(plan)
    return day_plans


def _assemble_schedule(
    job: ScheduleJob,
    config: ScheduleConfig,
    day_plans: list[_DayPlan],
) -> AttackSchedule:
    """Phase C of the batch pipeline: adopt solved spans into a schedule.

    Replays the scalar engine's adoption logic in its original
    (occupant, day, segment) order — including the float accumulation
    order of ``expected_reward`` — so the result is bit-identical to a
    per-job call.  Segments whose whole-span DP failed (or failed to
    beat reality) run the sequential per-visit fallback here.
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
        # Zone -> reported activity as a lookup table (default 1 for
        # zones with no priced menu, matching best_activity.get(z, 1)).
        activity_lut = np.ones(max(plan.zones, default=0) + 1, dtype=np.int64)
        for zone_id, activity_id in plan.best_activity.items():
            if zone_id < len(activity_lut):
                activity_lut[zone_id] = activity_id
        for seg in plan.segments:
            reality_value = float(
                plan.reality_day[seg.seg_start : seg.seg_end].sum()
            )
            outcome = seg.task.outcome
            if outcome is not None and outcome[1] > reality_value + 1e-12:
                path, value = outcome
                spoofed_mask: list[bool] = [True] * (
                    seg.seg_end - seg.seg_start
                )
            else:
                with kernel_timer(SCHEDULE_DP):
                    path, value, spoofed_mask = _segment_fallback(
                        plan.zones,
                        plan.rewards,
                        plan.reality_day,
                        plan.actual_day,
                        plan.oracle,
                        config,
                        seg.seg_start,
                        seg.seg_end,
                        seg.forbidden_first,
                        seg.forbidden_last,
                    )
            day_value += value
            if not any(spoofed_mask):
                continue
            adopted_any = True
            # Activity misinformation applies to the whole adopted
            # sub-span: even where the scheduled zone coincides with
            # reality, the costliest plausible activity is reported
            # (that is what the reward model priced).
            path_arr = np.asarray(path, dtype=np.int64)
            if all(spoofed_mask):
                span = slice(
                    day_start + seg.seg_start, day_start + seg.seg_end
                )
                spoofed_zone[span, oid] = path_arr
                spoofed_activity[span, oid] = activity_lut[path_arr]
            else:
                offsets = np.nonzero(spoofed_mask)[0]
                slots = day_start + seg.seg_start + offsets
                adopted = path_arr[offsets]
                spoofed_zone[slots, oid] = adopted
                spoofed_activity[slots, oid] = activity_lut[adopted]
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


def _shatter_schedule_scalar(
    home: SmartHome,
    adm: ClusterADM,
    capability: AttackerCapability,
    pricing: TouPricing,
    actual_trace: HomeTrace,
    controller_config: ControllerConfig,
    config: ScheduleConfig,
) -> AttackSchedule:
    """The per-(occupant, day) scheduling loop for the scalar engines.

    ``reference`` and ``exhaustive`` jobs solve their spans in place,
    one at a time — this is the bit-exact oracle the batched pipeline
    is property-tested against.  Day-invariant tables are still hoisted
    (memoized oracle, shared reward tables): both changes are
    bit-neutral per day, so the oracle stays exact.
    """
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
                pricing,
                controller_config,
                config,
                day_start,
            )
            segments = _accessible_segments(
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
                with kernel_timer(SCHEDULE_DP):
                    path, value, spoofed_mask = _schedule_segment(
                        zones,
                        rewards,
                        reality,
                        actual_day,
                        oracle,
                        config,
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

    ``vector``-engine jobs run through a three-phase pipeline: every
    distinct (occupant, segment) problem of every job becomes one
    whole-span DP task (:func:`_plan_vector_job`), compatible tasks
    advance together as rows of the batched engine
    (:func:`_solve_span_tasks`), and the solutions are adopted back per
    job, day by day, in the scalar engine's original order
    (:func:`_assemble_schedule`).  Before planning, the stealth
    oracles of every vector job that the memo lacks are built from one
    :func:`stay_range_rows` pass over all their hull groups
    (:func:`_prefetch_oracles`).  Results are bit-identical to calling
    :func:`shatter_schedule` per job — which itself is this function
    applied to a single job.  ``reference``/``exhaustive`` jobs run the
    scalar loop unchanged.
    """
    results: list[AttackSchedule | None] = [None] * len(jobs)
    planned: list[tuple[int, ScheduleJob, ScheduleConfig, list[_DayPlan]]] = []
    tasks: list[_SpanTask] = []
    configs = [job.config or ScheduleConfig() for job in jobs]
    _prefetch_oracles(
        [
            job
            for job, config in zip(jobs, configs)
            if config.engine == "vector" and not config.exhaustive
        ]
    )
    for index, (job, config) in enumerate(zip(jobs, configs)):
        controller_config = job.controller_config or ControllerConfig()
        if config.exhaustive or config.engine != "vector":
            results[index] = _shatter_schedule_scalar(
                job.home,
                job.adm,
                job.capability,
                job.pricing,
                job.actual_trace,
                controller_config,
                config,
            )
        else:
            day_plans = _plan_vector_job(job, controller_config, config, tasks)
            planned.append((index, job, config, day_plans))
    if planned:
        _solve_span_tasks(tasks)
        for index, job, config, day_plans in planned:
            results[index] = _assemble_schedule(job, config, day_plans)
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


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
        config: Window length, beam width, engine choice.

    Returns:
        The schedule with per-day feasibility diagnostics.

    A single-job :func:`shatter_schedule_batch`: with the ``vector``
    engine, all attackable days of all accessible occupants advance
    through the windowed DP together.
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
