"""Hot-path kernel benchmark: scalar reference vs vectorized engines.

Times the hot kernels — SHATTER schedule synthesis (per day and
batched), the closed-loop simulator, real-time attack execution and its
visit-feasibility filter, the BIoTA greedy baseline, and ADM
fit/containment — running each workload through its *scalar
reference* path and its *vectorized* path, verifying the outputs agree
exactly, and writing the measured speedups to ``BENCH_hotpaths.json``
at the repository root (the committed file documents the speedups on
the reference machine).  ``adm_fit`` fits a 64-home k-means fleet
and the ARAS-A DBSCAN ADM through the per-group loop
(``ClusterADM._fit_reference``) and through ``fit``'s one array program,
and requires equal encoded ADM frames.  ``fleet_geometry`` has no scalar arm: it
times a k-means fleet's ADM fits and, separately, its stealth oracles
built one stay pass per oracle and from one shared pass, requires the
two arms' oracle arrays to be equal, and checks every oracle row
against the scalar ``union_stay_ranges``.  ``fleet_schedule`` has no
scalar arm either: it times the batch pipeline's planning, DP and
assembly phases on one fleet chunk, counts the DP's born events, and
requires every schedule to equal the reference engine's.

Usage::

    python benchmarks/bench_hotpaths.py            # full rounds + targets
    python benchmarks/bench_hotpaths.py --smoke    # CI: one round, no
                                                   # timing assertions

``REPRO_BENCH_SMOKE=1`` implies ``--smoke`` (the nightly CI tier).
Smoke mode still verifies scalar/vector output equality — it relaxes
only rounds, workload sizes, and the speedup gates.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.adm.cluster_model import AdmParams, ClusterADM, ClusterBackend  # noqa: E402
from repro.attack.biota import (  # noqa: E402
    biota_greedy_attack,
    biota_greedy_attack_reference,
)
from repro.attack.model import AttackerCapability  # noqa: E402
from repro.attack.realtime import (  # noqa: E402
    _apply_visit_feasibility,
    _apply_visit_feasibility_reference,
    execute_attack,
    execute_attack_reference,
)
from repro.attack.schedule import (  # noqa: E402
    ScheduleConfig,
    _OracleBatch,
    _StealthOracle,
    shatter_schedule,
)
from repro.dataset.splits import split_days  # noqa: E402
from repro.core.serialization import (  # noqa: E402
    cluster_adm_to_arrays,
    decode_artifact,
    encode_artifact,
)
from repro.dataset.synthetic import (  # noqa: E402
    SyntheticConfig,
    generate_home_fleet,
    generate_house_trace,
)
from repro.errors import AttackError  # noqa: E402
from repro.geometry import (  # noqa: E402
    point_in_hull,
    points_in_hulls,
    stay_range_table,
    union_stay_ranges,
)
from repro.home.builder import build_house_a  # noqa: E402
from repro.hvac.controller import DemandControlledHVAC  # noqa: E402
from repro.hvac.pricing import TouPricing  # noqa: E402
from repro.hvac.simulation import simulate, simulate_reference  # noqa: E402
from repro.runner.common import params_for  # noqa: E402

# Speedup floors for the non-smoke run.
TARGET_SCHEDULE_SPEEDUP = 5.0
TARGET_ADM_FIT_SPEEDUP = 2.0
TARGET_SIMULATE_SPEEDUP = 6.0
TARGET_EXECUTE_SPEEDUP = 6.0
TARGET_BIOTA_SPEEDUP = 10.0
TARGET_FEASIBILITY_SPEEDUP = 8.0
TARGET_SCHEDULE_BATCH_SPEEDUP = 8.0
TARGET_CODEC_SPEEDUP = 5.0
TARGET_FLEET_RSS_RATIO = 1.5


def _best_of(rounds: int, fn):
    """Best wall time of ``rounds`` runs and the last return value."""
    best = float("inf")
    value = None
    for _ in range(rounds):
        started = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - started)
    return best, value


def _schedules_equal(a, b) -> bool:
    return (
        np.array_equal(a.spoofed_zone, b.spoofed_zone)
        and np.array_equal(a.spoofed_activity, b.spoofed_activity)
        and a.expected_reward == b.expected_reward
    )


def _adms_equal(a: ClusterADM, b: ClusterADM) -> bool:
    """Same groups, points, labels and hulls: equal encoded frames."""
    return encode_artifact(cluster_adm_to_arrays(a)) == encode_artifact(
        cluster_adm_to_arrays(b)
    )


def _results_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("airflow_cfm", "co2_ppm", "temperature_f", "hvac_kwh", "appliance_kwh")
    )


def _optimize_span_vector(
    zones: list[int],
    rewards: np.ndarray,
    oracle: _StealthOracle,
    config: ScheduleConfig,
    start: int,
    end: int,
    forbidden_first: int | None,
    forbidden_last: int | None,
) -> tuple[list[int], float] | None:
    """Frozen copy of the per-span DP engine, the "before" arm's solver.

    Before every ``vector`` span ran through
    ``repro.attack.schedule._optimize_spans_batch``, the pre-batching
    per-(home, day) loop solved each span here, and the
    ``shatter_schedule_batch`` floor was set against this code.  The
    body is the engine's, except that ``entry_any`` is derived from
    ``oracle.entry``, which the oracle no longer precomputes.

    DP states are flat parallel arrays in canonical (arrival, zone)
    order — ``zone``/``arrival``/``value`` plus, gathered once at state
    creation from the oracle's tables, the state's death slot (last slot
    its zone can still be occupied) and its merged exit-interval bounds.
    One slot advance is: a stay-survivor mask against the death slots,
    one interval test for exit eligibility, and two ``argmax`` calls
    (the best exit-eligible state, and the best outside that state's
    zone) that decide every transition's parent — ``argmax`` returns the
    first maximum, which in canonical order is exactly the reference
    engine's tie-break.  Parent pointers are recorded per slot in index
    arrays; the winning path is materialised by one backward walk.

    Produces bit-identical ``(path, value)`` results to the reference
    engine; the arm asserts its schedules equal the batched engine's.
    """
    entry = oracle.entry
    max_int = oracle.max_int
    width = oracle.lo.shape[2]
    beam = config.beam_width
    n_zones = len(zones)
    minus_inf = -np.inf

    init = [
        z for z in zones if z != forbidden_first and entry[z, start]
    ]
    if not init:
        return None

    # Preallocated state columns.  States are append-only between beam
    # prunes (which compact); a state whose zone can no longer be
    # occupied is not removed but marked value = -inf, which keeps it
    # out of every later argmax exactly as removal would — so indices
    # into these columns stay stable for the parent pointers.
    capacity = beam + (config.window + 1) * n_zones + len(init)
    zone = np.zeros(capacity, dtype=np.int64)
    stay_len = np.zeros(capacity, dtype=np.int64)  # t - arrival, kept current
    value = np.zeros(capacity)
    death = np.zeros(capacity, dtype=np.int64)
    exit_lo = np.zeros((capacity, width))
    exit_hi = np.zeros((capacity, width))

    n = len(init)
    init_arr = np.array(init, dtype=np.int64)
    zone[:n] = init_arr
    stay_len[:n] = 0
    # The entry slot's occupancy reward is collected up front (the
    # reference adds rewards[zone, start] to the zero-valued entries).
    value[:n] = 0.0 + rewards[init_arr, start]
    death[:n] = start + max_int[init_arr, start] - 1
    exit_lo[:n] = oracle.lo[init_arr, start]
    exit_hi[:n] = oracle.hi[init_arr, start]
    # Path records, walked backwards at the end.  Slot records are
    # (n_prev, born_parents, born_parent_zones): states below n_prev
    # stayed put; born state i continues the path of born_parents[i],
    # whose zone at birth time was born_parent_zones[i].  Prune records
    # are (order,) mapping post-prune to pre-prune indices.
    slot_records: list[tuple] = []

    # ``min_death``/``max_death`` track, as plain ints, the earliest and
    # latest slots any current state's zone feasibility runs out: the
    # per-slot death scan is skipped entirely until t reaches min_death,
    # and total extinction (the reference's empty-dict early return) is
    # detected by t outrunning max_death.
    min_death = int(death[:n].min())
    max_death = int(death[:n].max())
    entry_any = oracle.entry.any(axis=0)
    flat = width == 1
    lo1 = exit_lo[:, 0]
    hi1 = exit_hi[:, 0]

    first = True
    for window_start in range(start, end, config.window):
        window_end = min(window_start + config.window, end)
        slots = range(window_start, window_end)
        if first:
            slots = range(start + 1, window_end)
            first = False
        for t in slots:
            zs = zone[:n]
            vs = value[:n]
            ss = stay_len[:n]
            ss += 1
            born_zones: list[int] = []
            born_parents: list[int] = []
            exit_value: np.ndarray | None = None
            if entry_any[t]:
                # Every live state arrived at t-1 or earlier, so the
                # reference's stay_so_far >= 1 exit precondition always
                # holds here; only the interval membership is live.
                if flat:
                    exits = (lo1[:n] <= ss) & (ss <= hi1[:n])
                else:
                    exits = (
                        (exit_lo[:n] <= ss[:, None])
                        & (ss[:, None] <= exit_hi[:n])
                    ).any(axis=1)
                exit_value = np.where(exits, vs, minus_inf)
                best = int(np.argmax(exit_value))
                if exit_value[best] != minus_inf:
                    best_zone = int(zs[best])
                    other = np.where(zs == best_zone, minus_inf, exit_value)
                    second = int(np.argmax(other))
                    second_ok = other[second] != minus_inf
                    entry_t = entry[:, t]
                    for z_new in zones:
                        if not entry_t[z_new]:
                            continue
                        if z_new != best_zone:
                            pick = best
                        elif second_ok:
                            pick = second
                        else:
                            continue
                        born_zones.append(z_new)
                        born_parents.append(pick)
            # Stay option: collect the slot reward, or die at -inf when
            # the zone's maxStay is exhausted (dead stays dead: -inf
            # plus any reward is still -inf).
            vs += rewards[zs, t]
            if t > min_death:
                vs[death[:n] < t] = minus_inf
            if born_zones:
                born = np.array(born_zones, dtype=np.int64)
                parents = np.array(born_parents, dtype=np.int64)
                m = len(born)
                zone[n : n + m] = born
                stay_len[n : n + m] = 0
                value[n : n + m] = exit_value[parents] + rewards[born, t]
                born_death = t + max_int[born, t] - 1
                death[n : n + m] = born_death
                exit_lo[n : n + m] = oracle.lo[born, t]
                exit_hi[n : n + m] = oracle.hi[born, t]
                slot_records.append((n, parents, zs[parents]))
                n += m
                min_death = min(min_death, int(born_death.min()))
                max_death = max(max_death, int(born_death.max()))
            elif t > max_death:
                return None  # every state died with no way out
            else:
                slot_records.append((n, None, None))
        if n > beam:
            order = np.argsort(-value[:n], kind="stable")[:beam]
            order.sort()  # positions ascending == canonical (arrival, zone)
            zone[: len(order)] = zone[order]
            stay_len[: len(order)] = stay_len[order]
            value[: len(order)] = value[order]
            death[: len(order)] = death[order]
            exit_lo[: len(order)] = exit_lo[order]
            exit_hi[: len(order)] = exit_hi[order]
            slot_records.append(("prune", order))
            n = len(order)

    # stay_len is t - arrival for the last advanced slot t = end - 1, so
    # the forced-exit stay at the span boundary is one minute longer.
    final_stay = stay_len[:n] + 1
    finish = (
        (exit_lo[:n] <= final_stay[:, None])
        & (final_stay[:, None] <= exit_hi[:n])
    ).any(axis=1)
    if forbidden_last is not None:
        finish &= zone[:n] != forbidden_last
    finish_value = np.where(finish, value[:n], minus_inf)
    winner = int(np.argmax(finish_value))
    if finish_value[winner] == minus_inf:
        return None

    path: list[int] = []
    index = winner
    zone_now = int(zone[index])
    for record in reversed(slot_records):
        if record[0] == "prune":
            index = int(record[1][index])
            continue
        n_prev, parents, parent_zones = record
        path.append(zone_now)
        if parents is not None and index >= n_prev:
            offset = index - n_prev
            zone_now = int(parent_zones[offset])
            index = int(parents[offset])
    path.append(zone_now)  # the entry slot emitted by the initial states
    path.reverse()
    if len(path) != end - start:
        raise AttackError(
            f"internal scheduling error: path length {len(path)} "
            f"for span [{start}, {end})"
        )
    return path, float(finish_value[winner])


def bench(smoke: bool) -> dict:
    rounds = 1 if smoke else 5
    results: dict[str, dict] = {}

    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=8, seed=5)
    )
    train, evaluation = split_days(trace, 7)
    adm_params = AdmParams(eps=40.0, min_pts=4, tolerance=20.0)

    # --- ClusterADM.fit (per-group loop vs one array program) ----------
    fit_homes = 16 if smoke else 64
    fit_fleet = [
        (f_home, split_days(f_trace, 2)[0])
        for f_home, f_trace in generate_home_fleet(
            fit_homes, n_zones=4, n_days=3, seed=61
        )
    ]
    kmeans_params = params_for(ClusterBackend.KMEANS)
    before_s, reference_adms = _best_of(
        rounds,
        lambda: [
            ClusterADM(kmeans_params)._fit_reference(f_train, f_home.n_zones)
            for f_home, f_train in fit_fleet
        ],
    )
    after_s, fleet_adms = _best_of(
        rounds,
        lambda: [
            ClusterADM(kmeans_params).fit(f_train, f_home.n_zones)
            for f_home, f_train in fit_fleet
        ],
    )
    assert all(map(_adms_equal, fleet_adms, reference_adms))
    aras_before_s, aras_reference = _best_of(
        rounds, lambda: ClusterADM(adm_params)._fit_reference(train, home.n_zones)
    )
    aras_after_s, adm = _best_of(
        rounds, lambda: ClusterADM(adm_params).fit(train, home.n_zones)
    )
    assert _adms_equal(adm, aras_reference)
    results["adm_fit"] = {
        "workload": (
            f"{fit_homes}-home k-means fleet (4 zones, 2 training days), "
            "per-group loop (_fit_reference) vs one array program (fit); "
            "the ARAS-A DBSCAN fit (7 training days) alongside"
        ),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
        "aras_dbscan_before_s": aras_before_s,
        "aras_dbscan_after_s": aras_after_s,
        "aras_dbscan_speedup": aras_before_s / aras_after_s,
    }

    # --- containment (flag_visits vs per-visit scalar) ------------------
    from repro.dataset.features import extract_visits

    containment_days = 8 if smoke else 30
    containment_trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=containment_days, seed=13)
    )

    def scalar_containment():
        return [
            not adm.is_benign_visit(v.occupant_id, v.zone_id, v.arrival, v.stay)
            for v in extract_visits(containment_trace)
        ]

    before_s, scalar_flags = _best_of(rounds, scalar_containment)
    after_s, batched = _best_of(
        rounds, lambda: adm.flag_visits(containment_trace)
    )
    assert [flag for _, flag in batched] == scalar_flags
    results["adm_containment"] = {
        "workload": f"ARAS-A, {containment_days}-day trace classification",
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- batched geometry ----------------------------------------------
    hulls = [h for z in range(home.n_zones) for h in adm.hulls(0, z)]
    rng = np.random.default_rng(7)
    points = rng.uniform(0, 1440, size=(2000, 2))
    arrivals = np.arange(1440.0)

    def scalar_geometry():
        membership = [
            [point_in_hull(float(x), float(y), h) for h in hulls]
            for x, y in points
        ]
        ranges = [union_stay_ranges(hulls, float(a)) for a in arrivals]
        return membership, ranges

    before_s, (scalar_membership, scalar_ranges) = _best_of(rounds, scalar_geometry)

    def batched_geometry():
        return points_in_hulls(points, hulls), stay_range_table(hulls, arrivals)

    after_s, (membership, table) = _best_of(rounds, batched_geometry)
    assert membership.tolist() == scalar_membership
    assert all(
        table.intervals(i) == scalar_ranges[i] for i in range(len(arrivals))
    )
    results["geometry"] = {
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- shatter_schedule (default ARAS-A day) --------------------------
    capability = AttackerCapability.full_access(home)
    pricing = TouPricing()
    before_s, reference_schedule = _best_of(
        rounds,
        lambda: shatter_schedule(
            home,
            adm,
            capability,
            pricing,
            evaluation,
            config=ScheduleConfig(engine="reference"),
        ),
    )
    after_s, vector_schedule = _best_of(
        rounds,
        lambda: shatter_schedule(home, adm, capability, pricing, evaluation),
    )
    assert _schedules_equal(reference_schedule, vector_schedule)
    results["shatter_schedule"] = {
        "workload": "ARAS-A, 1 evaluation day, default ScheduleConfig",
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- shatter_schedule_batch (fleet, per-day loop vs one batch) ------
    import repro.attack.schedule as schedule_mod
    from repro.attack.schedule import (
        ScheduleJob,
        _shatter_schedule_scalar,
        shatter_schedule_batch,
    )
    from repro.hvac.controller import ControllerConfig
    from repro.runner.cache import cache_disabled

    fleet_homes = 4 if smoke else 10
    fleet_days = 4 if smoke else 6
    fleet_training = 2
    eval_days = fleet_days - fleet_training
    fleet_jobs = []
    for f_home, f_trace in generate_home_fleet(
        fleet_homes, n_zones=4, n_days=fleet_days, seed=41
    ):
        f_train, f_eval = split_days(f_trace, fleet_training)
        f_adm = ClusterADM(
            AdmParams(backend=ClusterBackend.KMEANS, k=4, tolerance=5.0)
        ).fit(f_train, f_home.n_zones)
        fleet_jobs.append(
            ScheduleJob(
                home=f_home,
                adm=f_adm,
                capability=AttackerCapability.full_access(f_home),
                pricing=pricing,
                actual_trace=f_eval,
            )
        )

    loop_controller = ControllerConfig()
    loop_config = ScheduleConfig()

    def per_day_loop():
        # The pre-batching code path: one vector-engine schedule per
        # (home, day), rebuilding the stealth oracles and reward tables
        # each call exactly as the per-day driver did before the batch
        # engine (no oracle memo hits, no shared reward-table cache),
        # with every span solved by the frozen per-span engine.
        out = []
        span_solver = schedule_mod._optimize_span
        schedule_mod._optimize_span = _optimize_span_vector
        try:
            with cache_disabled():
                for job in fleet_jobs:
                    days = []
                    for day in range(eval_days):
                        schedule_mod._ORACLE_MEMO.clear()
                        days.append(
                            _shatter_schedule_scalar(
                                job.home,
                                job.adm,
                                job.capability,
                                job.pricing,
                                job.actual_trace.slice_slots(
                                    day * 1440, (day + 1) * 1440
                                ),
                                loop_controller,
                                loop_config,
                            )
                        )
                    out.append(days)
        finally:
            schedule_mod._optimize_span = span_solver
        return out

    # Warm the oracle memo and the shared reward-table cache once so
    # the timed batch rounds measure the steady-state fleet path.
    shatter_schedule_batch(fleet_jobs)
    before_s, looped = _best_of(rounds, per_day_loop)
    after_s, batched_schedules = _best_of(
        rounds, lambda: shatter_schedule_batch(fleet_jobs)
    )
    for days, whole in zip(looped, batched_schedules):
        assert (
            np.concatenate([piece.spoofed_zone for piece in days]).tobytes()
            == whole.spoofed_zone.tobytes()
        )
        assert (
            np.concatenate([piece.spoofed_activity for piece in days]).tobytes()
            == whole.spoofed_activity.tobytes()
        )
        # Same addends, day-major vs occupant-major summation order.
        assert np.isclose(
            sum(piece.expected_reward for piece in days),
            whole.expected_reward,
            rtol=1e-9,
            atol=1e-9,
        )
    results["shatter_schedule_batch"] = {
        "workload": (
            f"{fleet_homes}-home fleet x {eval_days} evaluation days, "
            "pre-batching per-(home, day) loop on the frozen per-span DP "
            "engine (fresh oracle and reward tables per call) vs one "
            "batched array program"
        ),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- fleet ADM geometry (fits, stealth oracles) ---------------------
    geometry_homes = 4 if smoke else 16
    geometry_fleet = [
        (g_home, split_days(g_trace, 2)[0])
        for g_home, g_trace in generate_home_fleet(
            geometry_homes, n_zones=4, n_days=6, seed=47
        )
    ]
    fit_s, geometry_adms = _best_of(
        rounds,
        lambda: [
            ClusterADM(kmeans_params).fit(g_train, g_home.n_zones)
            for g_home, g_train in geometry_fleet
        ],
    )
    oracle_pairs = [
        (adm, occupant, adm.n_zones)
        for adm in geometry_adms
        for occupant in range(adm.n_occupants)
    ]
    # Oracles built one pair at a time (one stay pass per oracle) vs all
    # of them from one shared pass, as a schedule batch builds them.
    per_pair_s, per_pair_oracles = _best_of(
        rounds, lambda: [_StealthOracle(*pair) for pair in oracle_pairs]
    )

    def batched_oracles():
        batch = _OracleBatch(oracle_pairs)
        return [_StealthOracle(*pair, batch) for pair in oracle_pairs]

    batched_s, batched = _best_of(rounds, batched_oracles)
    for one, shared in zip(per_pair_oracles, batched):
        for name in ("entry", "max_int", "min_int", "lo", "hi"):
            assert getattr(one, name).shape == getattr(shared, name).shape
            assert getattr(one, name).tobytes() == getattr(shared, name).tobytes()
    hull_kinds = [0, 0, 0]
    rows_with_intervals = 0
    n_rows = 0
    for (adm, occupant, n_zones), oracle in zip(oracle_pairs, batched):
        for zone in range(n_zones):
            hulls = adm.hulls(occupant, zone)
            for arrival in range(1440):
                intervals = oracle.intervals(zone, arrival)
                assert intervals == union_stay_ranges(hulls, float(arrival))
                rows_with_intervals += bool(intervals)
            for hull in hulls:
                hull_kinds[min(hull.n_vertices, 3) - 1] += 1
            n_rows += 1440
    results["fleet_geometry"] = {
        "workload": (
            f"{geometry_homes}-home k-means fleet (4 zones, 6 days, 2 training "
            "days): the ADM fits, then both stealth oracles of each home, "
            "one stay pass per oracle vs one pass for all of them"
        ),
        "fit_s": fit_s,
        "before_s": per_pair_s,
        "after_s": batched_s,
        "speedup": per_pair_s / batched_s,
        "hulls": dict(zip(("points", "segments", "polygons"), hull_kinds)),
        "rows_with_intervals": rows_with_intervals / n_rows,
    }

    # --- fleet_schedule (the batch pipeline's phases, fleet regime) -----
    from repro.attack.schedule import (
        _assemble_schedule,
        _plan_vector_job,
        _prefetch_oracles,
        _solve_span_tasks,
    )

    chunk_jobs = []
    for c_home, c_trace in generate_home_fleet(8, n_zones=4, n_days=6, seed=53):
        c_train, c_eval = split_days(c_trace, 2)
        chunk_jobs.append(
            ScheduleJob(
                home=c_home,
                adm=ClusterADM(kmeans_params).fit(c_train, c_home.n_zones),
                capability=AttackerCapability.full_access(c_home),
                pricing=pricing,
                actual_trace=c_eval,
            )
        )
    _prefetch_oracles(chunk_jobs)  # the stealth oracles are prebuilt
    chunk_config = ScheduleConfig()

    def plan_chunk():
        tasks: list = []
        plans = [
            _plan_vector_job(job, loop_controller, chunk_config, tasks)
            for job in chunk_jobs
        ]
        return tasks, plans

    plan_s, _ = _best_of(rounds, plan_chunk)
    dp_s = float("inf")
    for _ in range(rounds):
        chunk_tasks, chunk_plans = plan_chunk()
        started = time.perf_counter()
        _solve_span_tasks(chunk_tasks)
        dp_s = min(dp_s, time.perf_counter() - started)
    assemble_s, chunk_schedules = _best_of(
        rounds,
        lambda: [
            _assemble_schedule(job, chunk_config, plans)
            for job, plans in zip(chunk_jobs, chunk_plans)
        ],
    )
    for job, schedule in zip(chunk_jobs, chunk_schedules):
        reference = shatter_schedule(
            job.home,
            job.adm,
            job.capability,
            job.pricing,
            job.actual_trace,
            config=ScheduleConfig(engine="reference"),
        )
        assert _schedules_equal(reference, schedule)
        assert reference.infeasible_days == schedule.infeasible_days
        assert reference.substituted_days == schedule.substituted_days

    # Born events, counted from the oracles' entry tables the way the DP
    # defines them: slots after a call's ``start`` where some live row
    # (one that can enter a zone other than its forbidden first zone at
    # ``start``) can enter some group zone.
    dp_calls: list[tuple] = []
    solve_batch = schedule_mod._optimize_spans_batch

    def recording(batch_tasks, zones, config, start, end):
        dp_calls.append((batch_tasks, zones, start, end))
        return solve_batch(batch_tasks, zones, config, start, end)

    schedule_mod._optimize_spans_batch = recording
    try:
        _solve_span_tasks(plan_chunk()[0])
    finally:
        schedule_mod._optimize_spans_batch = solve_batch

    def born_events(batch_tasks, zones, start, end) -> int:
        gates = [
            task.oracle.entry[zones, start + 1 : end].any(axis=0)
            for task in batch_tasks
            if any(
                z != task.forbidden_first and task.oracle.entry[z, start]
                for z in zones
            )
        ]
        return int(np.logical_or.reduce(gates).sum()) if gates else 0

    born = [born_events(*call) for call in dp_calls]
    results["fleet_schedule"] = {
        "workload": (
            "one 8-home fleet chunk (4 zones, 6 days, 2 training days, "
            "k-means ADMs, oracles prebuilt) through the batch pipeline's "
            "phases; gated on equality with the reference engine"
        ),
        "plan_s": plan_s,
        "dp_s": dp_s,
        "assemble_s": assemble_s,
        "dp_calls": len(dp_calls),
        "rows_per_call": [len(call[0]) for call in dp_calls],
        "born_events_per_call": born,
        "us_per_born_event": dp_s * 1e6 / max(1, sum(born)),
    }

    # --- simulate (7-day closed loop; 2-day in smoke) -------------------
    sim_days = 2 if smoke else 7
    sim_trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=sim_days, seed=6)
    )
    controller = DemandControlledHVAC(home)
    before_s, reference_result = _best_of(
        rounds, lambda: simulate_reference(home, sim_trace, controller)
    )
    after_s, fast_result = _best_of(
        rounds, lambda: simulate(home, sim_trace, controller)
    )
    assert _results_equal(reference_result, fast_result)
    results["simulate"] = {
        "workload": f"ARAS-A, {sim_days}-day benign closed loop",
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- execute_attack (3 evaluation days; 1 in smoke) -----------------
    execute_days = 1 if smoke else 3
    execute_trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=7 + execute_days, seed=8)
    )
    execute_train, execute_eval = split_days(execute_trace, 7)
    execute_adm = ClusterADM(adm_params).fit(execute_train, home.n_zones)
    execute_schedule = shatter_schedule(
        home, execute_adm, capability, pricing, execute_eval
    )

    def run_execution(execute):
        return execute(
            home,
            controller,
            execute_eval,
            execute_schedule,
            capability,
            adm=execute_adm,
            start_slot=7 * 1440,
        )

    before_s, reference_outcome = _best_of(
        rounds, lambda: run_execution(execute_attack_reference)
    )
    # With the cache on, every round after the first would replay the
    # first one's memoized closed loop: time the kernel, not the memo.
    with cache_disabled():
        after_s, fast_outcome = _best_of(
            rounds, lambda: run_execution(execute_attack)
        )
    assert fast_outcome.vector.triggered.any()
    assert _results_equal(reference_outcome.result, fast_outcome.result)
    for field in (
        "spoofed_zone",
        "spoofed_activity",
        "delta_co2",
        "delta_temperature",
        "triggered",
    ):
        assert np.array_equal(
            getattr(reference_outcome.vector, field),
            getattr(fast_outcome.vector, field),
        ), f"execute_attack paths disagree on {field}"
    assert np.array_equal(reference_outcome.applied_zone, fast_outcome.applied_zone)
    assert reference_outcome.trigger_decisions == fast_outcome.trigger_decisions
    assert (
        reference_outcome.applied_visit_fraction
        == fast_outcome.applied_visit_fraction
    )
    results["execute_attack"] = {
        "workload": (
            f"ARAS-A, {execute_days}-day SHATTER schedule with appliance "
            "triggering, per-slot loop vs simulate() + open-loop plant"
        ),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- BIoTA greedy baseline (same evaluation trace, full access) ----
    before_s, reference_biota = _best_of(
        rounds,
        lambda: biota_greedy_attack_reference(home, capability, pricing, execute_eval),
    )
    after_s, fast_biota = _best_of(
        rounds, lambda: biota_greedy_attack(home, capability, pricing, execute_eval)
    )
    assert _schedules_equal(reference_biota, fast_biota)
    assert type(reference_biota.expected_reward) is type(fast_biota.expected_reward)
    results["biota_greedy_attack"] = {
        "workload": (
            f"ARAS-A, {execute_days}-day BIoTA greedy attack, full access, "
            "per-slot loop vs ranked-choice array pass"
        ),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- visit feasibility (the SHATTER schedule above, full access) ----
    before_s, reference_story = _best_of(
        rounds,
        lambda: _apply_visit_feasibility_reference(
            execute_schedule, execute_eval, capability
        ),
    )
    after_s, fast_story = _best_of(
        rounds,
        lambda: _apply_visit_feasibility(execute_schedule, execute_eval, capability),
    )
    assert np.array_equal(reference_story[0], fast_story[0])
    assert np.array_equal(reference_story[1], fast_story[1])
    assert reference_story[2] == fast_story[2]
    results["visit_feasibility"] = {
        "workload": (
            f"ARAS-A, {execute_days}-day SHATTER schedule, full access, "
            "per-visit slot tests vs run-length pass over capability masks"
        ),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- artifact codec (base64-pickle JSON vs binary frames) -----------

    codec_homes, codec_days = (2, 2) if smoke else (6, 6)
    codec_payload = [
        f_trace
        for _, f_trace in generate_home_fleet(
            codec_homes, n_zones=4, n_days=codec_days, seed=29
        )
    ]

    def pickle_json_round_trip():
        # The pre-frame artifact path, inlined here since the package no
        # longer has it: tagged base64-pickle inside a JSON document (the
        # v1 cache's on-disk encoding).
        raw = pickle.dumps(codec_payload, protocol=pickle.HIGHEST_PROTOCOL)
        wire = json.dumps({"__pickle__": base64.b64encode(raw).decode("ascii")})
        return pickle.loads(base64.b64decode(json.loads(wire)["__pickle__"]))

    def frame_round_trip():
        return decode_artifact(encode_artifact(codec_payload))

    before_s, via_pickle = _best_of(rounds, pickle_json_round_trip)
    after_s, via_frame = _best_of(rounds, frame_round_trip)
    for a, b in zip(via_pickle, via_frame):
        for field in ("occupant_zone", "occupant_activity", "appliance_status"):
            assert (
                getattr(a, field).tobytes() == getattr(b, field).tobytes()
            ), f"codec round trips disagree on {field}"
    frame_bytes = len(encode_artifact(codec_payload))
    results["artifact_codec"] = {
        "workload": (
            f"{codec_homes}-home x {codec_days}-day fleet trace artifact "
            f"({frame_bytes} frame bytes), JSON base64-pickle vs binary "
            "frame round trip"
        ),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
    }

    # --- streaming fleet coordinator peak RSS ---------------------------
    base_homes = 4 if smoke else 16
    rss_base = _fleet_peak_rss(base_homes)
    rss_10x = _fleet_peak_rss(base_homes * 10)
    results["fleet_peak_rss"] = {
        "workload": (
            f"fleet experiment at {base_homes} vs {base_homes * 10} "
            "homes (chunk=4), per-size subprocess VmHWM"
        ),
        "rss_base_kb": rss_base,
        "rss_10x_kb": rss_10x,
        "ratio": rss_10x / rss_base,
    }
    return results


def _fleet_peak_rss(n_homes: int) -> float:
    """Peak RSS (``VmHWM`` KB) of a fresh process running the sharded
    fleet experiment at ``n_homes``.

    The high watermark is process-lifetime, so every fleet size needs
    its own subprocess; each gets a throwaway cache dir so disk-tier
    replay cannot hide the coordinator's working set.  It is read from
    ``/proc/self/status``, not ``ru_maxrss``: Linux carries the forking
    process's high watermark across ``exec`` into ``ru_maxrss``, so that
    figure would report this benchmark's own peak.
    """
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(_ROOT / 'src')!r})\n"
        "from repro.runner.experiments.fleet import run_fleet\n"
        f"run_fleet(n_homes={n_homes}, n_days=2, chunk=4)\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(l.split()[1] for l in status if l.startswith('VmHWM:')))\n"
    )
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, REPRO_CACHE_DIR=scratch)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one round, reduced sizes, no speedup gates (CI)",
    )
    parser.add_argument(
        "--output",
        default=str(_ROOT / "BENCH_hotpaths.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    smoke = args.smoke or os.environ.get("REPRO_BENCH_SMOKE") == "1"

    results = bench(smoke)
    report = {
        "bench": "hotpath kernels, scalar reference vs vectorized",
        "mode": "smoke" if smoke else "full",
        "targets": {
            "adm_fit": TARGET_ADM_FIT_SPEEDUP,
            "shatter_schedule": TARGET_SCHEDULE_SPEEDUP,
            "shatter_schedule_batch": TARGET_SCHEDULE_BATCH_SPEEDUP,
            "simulate": TARGET_SIMULATE_SPEEDUP,
            "execute_attack": TARGET_EXECUTE_SPEEDUP,
            "biota_greedy_attack": TARGET_BIOTA_SPEEDUP,
            "visit_feasibility": TARGET_FEASIBILITY_SPEEDUP,
            "artifact_codec": TARGET_CODEC_SPEEDUP,
            "fleet_peak_rss_ratio": TARGET_FLEET_RSS_RATIO,
        },
        "results": results,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    for kernel, numbers in results.items():
        if "speedup" in numbers:
            print(
                f"{kernel:18s} before {numbers['before_s']:8.4f}s  "
                f"after {numbers['after_s']:8.4f}s  "
                f"speedup {numbers['speedup']:6.2f}x"
            )
        elif "dp_s" in numbers:
            print(
                f"{kernel:18s} plan {numbers['plan_s']:8.4f}s  "
                f"dp {numbers['dp_s']:8.4f}s  "
                f"assemble {numbers['assemble_s']:8.4f}s  "
                f"{numbers['us_per_born_event']:6.1f}us/born event"
            )
        else:
            print(
                f"{kernel:18s} base {numbers['rss_base_kb']:10.0f}KB  "
                f"10x {numbers['rss_10x_kb']:10.0f}KB  "
                f"ratio {numbers['ratio']:6.2f}x"
            )
    print(f"report written to {args.output}")

    if not smoke:
        fit_x = results["adm_fit"]["speedup"]
        if fit_x < TARGET_ADM_FIT_SPEEDUP:
            print(f"FAIL: adm_fit speedup {fit_x:.2f}x < {TARGET_ADM_FIT_SPEEDUP}x")
            return 1
        schedule_x = results["shatter_schedule"]["speedup"]
        simulate_x = results["simulate"]["speedup"]
        if schedule_x < TARGET_SCHEDULE_SPEEDUP:
            print(f"FAIL: shatter_schedule speedup {schedule_x:.2f}x < "
                  f"{TARGET_SCHEDULE_SPEEDUP}x")
            return 1
        if simulate_x < TARGET_SIMULATE_SPEEDUP:
            print(f"FAIL: simulate speedup {simulate_x:.2f}x < "
                  f"{TARGET_SIMULATE_SPEEDUP}x")
            return 1
        execute_x = results["execute_attack"]["speedup"]
        if execute_x < TARGET_EXECUTE_SPEEDUP:
            print(f"FAIL: execute_attack speedup {execute_x:.2f}x < "
                  f"{TARGET_EXECUTE_SPEEDUP}x")
            return 1
        biota_x = results["biota_greedy_attack"]["speedup"]
        if biota_x < TARGET_BIOTA_SPEEDUP:
            print(f"FAIL: biota_greedy_attack speedup {biota_x:.2f}x < "
                  f"{TARGET_BIOTA_SPEEDUP}x")
            return 1
        feasibility_x = results["visit_feasibility"]["speedup"]
        if feasibility_x < TARGET_FEASIBILITY_SPEEDUP:
            print(f"FAIL: visit_feasibility speedup {feasibility_x:.2f}x < "
                  f"{TARGET_FEASIBILITY_SPEEDUP}x")
            return 1
        batch_x = results["shatter_schedule_batch"]["speedup"]
        if batch_x < TARGET_SCHEDULE_BATCH_SPEEDUP:
            print(f"FAIL: shatter_schedule_batch speedup {batch_x:.2f}x < "
                  f"{TARGET_SCHEDULE_BATCH_SPEEDUP}x")
            return 1
        codec_x = results["artifact_codec"]["speedup"]
        if codec_x < TARGET_CODEC_SPEEDUP:
            print(f"FAIL: artifact_codec speedup {codec_x:.2f}x < "
                  f"{TARGET_CODEC_SPEEDUP}x")
            return 1
        rss_ratio = results["fleet_peak_rss"]["ratio"]
        if rss_ratio > TARGET_FLEET_RSS_RATIO:
            print(f"FAIL: fleet peak-RSS ratio {rss_ratio:.2f}x > "
                  f"{TARGET_FLEET_RSS_RATIO}x at 10x fleet size")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
