"""Hot-path kernel benchmark: scalar reference vs vectorized engines.

Times the hot kernels — SHATTER schedule synthesis (per day and
batched), the closed-loop simulator, real-time attack execution, and
ADM fit/containment — running each workload through its *scalar
reference* path and its *vectorized* path, verifying the outputs agree
exactly, and writing the measured speedups to ``BENCH_hotpaths.json``
at the repository root (the committed file documents the speedups on
the reference machine).  ``simulate_batch`` has no scalar arm: its
entry times per-job runs against the stacked kernel at one fleet size
on each side of the stacking threshold, the measurement the threshold
is set from.

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
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.adm.cluster_model import AdmParams, ClusterADM  # noqa: E402
from repro.attack.model import AttackerCapability  # noqa: E402
from repro.attack.realtime import (  # noqa: E402
    execute_attack,
    execute_attack_reference,
)
from repro.attack.schedule import ScheduleConfig, shatter_schedule  # noqa: E402
from repro.dataset.splits import split_days  # noqa: E402
from repro.dataset.synthetic import SyntheticConfig, generate_house_trace  # noqa: E402
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

# Speedup floors for the non-smoke run.
TARGET_SCHEDULE_SPEEDUP = 5.0
TARGET_SIMULATE_SPEEDUP = 6.0
TARGET_EXECUTE_SPEEDUP = 6.0
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


def _results_equal(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("airflow_cfm", "co2_ppm", "temperature_f", "hvac_kwh", "appliance_kwh")
    )


def bench(smoke: bool) -> dict:
    rounds = 1 if smoke else 5
    results: dict[str, dict] = {}

    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=8, seed=5)
    )
    train, evaluation = split_days(trace, 7)
    adm_params = AdmParams(eps=40.0, min_pts=4, tolerance=20.0)

    # --- ClusterADM.fit -------------------------------------------------
    fit_seconds, adm = _best_of(
        rounds, lambda: ClusterADM(adm_params).fit(train, home.n_zones)
    )
    results["adm_fit"] = {"seconds": fit_seconds}

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
    from repro.adm.cluster_model import ClusterBackend
    from repro.attack.schedule import (
        ScheduleJob,
        _shatter_schedule_scalar,
        shatter_schedule_batch,
    )
    from repro.dataset.synthetic import generate_home_fleet
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
        # engine (no oracle memo hits, no shared reward-table cache).
        out = []
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
            "pre-batching per-(home, day) vector DP loop (fresh oracle "
            "and reward tables per call) vs one batched array program"
        ),
        "before_s": before_s,
        "after_s": after_s,
        "speedup": before_s / after_s,
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
    after_s, fast_outcome = _best_of(rounds, lambda: run_execution(execute_attack))
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

    # --- simulate_batch (per-job vs stacked, each side of the threshold)
    from repro.hvac.simulation import (
        _STACK_THRESHOLD,
        SimulationJob,
        _simulate_stacked,
        simulate_batch,
    )

    batch_days = 1 if smoke else 3
    batch_sizes = []
    for batch_homes in (8, 32):
        batch_jobs = [
            SimulationJob(b_home, b_trace, DemandControlledHVAC(b_home))
            for b_home, b_trace in generate_home_fleet(
                batch_homes, n_zones=4, n_days=batch_days, seed=43
            )
        ]
        stacked_zones = sum(
            len(job.home.layout.conditioned_ids) for job in batch_jobs
        )
        per_job_s, per_job = _best_of(
            rounds,
            lambda: [simulate(j.home, j.trace, j.controller) for j in batch_jobs],
        )
        stacked_s, stacked = _best_of(
            rounds, lambda: _simulate_stacked(batch_jobs)
        )
        chosen = simulate_batch(batch_jobs)
        for solo, stack, pick in zip(per_job, stacked, chosen):
            assert _results_equal(solo, stack)
            assert _results_equal(solo, pick)
        batch_sizes.append(
            {
                "homes": batch_homes,
                "stacked_zones": stacked_zones,
                "per_job_s": per_job_s,
                "stacked_s": stacked_s,
                "stacks": stacked_zones >= _STACK_THRESHOLD,
            }
        )
    assert [size["stacks"] for size in batch_sizes] == [False, True]
    results["simulate_batch"] = {
        "workload": (
            f"4-zone fleet homes, {batch_days}-day benign closed loops, "
            "per-job simulate() vs the zone-stacked kernel; "
            "simulate_batch stacks a group from threshold_zones "
            "conditioned zones"
        ),
        "threshold_zones": _STACK_THRESHOLD,
        "sizes": batch_sizes,
    }

    # --- artifact codec (base64-pickle JSON vs binary frames) -----------
    from repro.core.serialization import (
        _pickle_tag,
        decode_artifact,
        decode_wire_value,
        encode_artifact,
    )

    codec_homes, codec_days = (2, 2) if smoke else (6, 6)
    codec_payload = [
        f_trace
        for _, f_trace in generate_home_fleet(
            codec_homes, n_zones=4, n_days=codec_days, seed=29
        )
    ]

    def pickle_json_round_trip():
        # The pre-frame artifact path: tagged base64-pickle inside a
        # JSON document (the v1 cache's on-disk encoding).
        wire = json.dumps(_pickle_tag(codec_payload))
        return decode_wire_value(json.loads(wire))

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
            "shatter_schedule": TARGET_SCHEDULE_SPEEDUP,
            "shatter_schedule_batch": TARGET_SCHEDULE_BATCH_SPEEDUP,
            "simulate": TARGET_SIMULATE_SPEEDUP,
            "execute_attack": TARGET_EXECUTE_SPEEDUP,
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
        elif "sizes" in numbers:
            for size in numbers["sizes"]:
                print(
                    f"{kernel:18s} {size['stacked_zones']:4d} zones  "
                    f"per-job {size['per_job_s']:8.4f}s  "
                    f"stacked {size['stacked_s']:8.4f}s  "
                    f"stacks {size['stacks']}"
                )
        elif "ratio" in numbers:
            print(
                f"{kernel:18s} base {numbers['rss_base_kb']:10.0f}KB  "
                f"10x {numbers['rss_10x_kb']:10.0f}KB  "
                f"ratio {numbers['ratio']:6.2f}x"
            )
        else:
            print(f"{kernel:18s} {numbers['seconds']:8.4f}s")
    print(f"report written to {args.output}")

    if not smoke:
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
