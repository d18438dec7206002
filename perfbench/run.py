"""The repository benchmark: one command, three workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload paper_suite --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run.  Either way the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a human-readable report with provenance.  Every
output is checked against a ``SerialRunner`` reference, and the command
exits non-zero when any output differs.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    ROOT,
    SRC,
    TIERS,
    WORK,
    child_env,
    digest,
    fleet_requests,
    home_days,
    host_loop_s,
    median,
    paper_requests,
    read_json,
    service_small_requests,
    tail,
    write_json,
)

WORKLOADS = ("paper_suite", "fleet_attack", "service_mixed")
# Nominal cold seconds of one pass (one cycle for service_mixed) on a
# 2-core box.  A run makes round(--seconds / nominal) of them, at least
# one, so every run with the same --seconds pools the same number of
# samples (and its tail sits at the same percentile) however fast the
# machine happens to be.
NOMINAL_PASS_S = {"paper_suite": 7.5, "fleet_attack": 4.5, "service_mixed": 2.0}
SETUP_GROUP = 3  # set-up-only processes before the first pass and after each
SERVICE_SETUPS = 2  # plane set-ups per service_mixed run (the last is used)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("long_done_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Printed with the end-to-end metrics but left out of the JSON line,
# because their run-to-run spread on a shared 2-core box exceeded every
# bound a metric may have: a fresh-process replay is mostly interpreter
# start and import, and the small jobs' latency is queue wait behind the
# long job, so it carries the long job's spread and the open-loop
# schedule's quantisation on top.  The small-job latencies exist only on
# service_mixed.
REPORT_ONLY_E2E = (("warm_wall_s", "s"), ("small_p50_s", "s"), ("small_tail_s", "s"))

_PAPER = "wall_s on paper_suite"
_CODEC = "warm_wall_s, small_p50_s"
_HIT = "wall_s on paper_suite (cross-experiment sharing), fleet_attack (reward-table sharing)"
_BATCH = (
    "home_days_per_s on fleet_attack (wide), wall_s on paper_suite (one-job "
    "batches), long_done_s; no change on warm_wall_s"
)
_SCHED = "wall_s on paper_suite, fleet_attack"
# (name, unit, what it should move, on which workload)
PER_LAYER = (
    ("dataset.trace_s", "s", "wall_s on paper_suite, fleet_attack"),
    ("adm.fit_s", "s", "home_days_per_s on fleet_attack; wall_s on paper_suite"),
    ("adm.fit_calls", "count", "wall_s on paper_suite (fewer calls = ADM-tier dedup)"),
    ("geometry.stay_table_s", "s", "home_days_per_s on fleet_attack"),
    ("attack.batch_s", "s", _BATCH),
    ("attack.batch_calls", "count", _BATCH),
    ("attack.jobs_per_call", "count", _BATCH),
    ("attack.baselines_s", "s", "wall_s on paper_suite only"),
    ("attack.execute_s", "s", "wall_s on paper_suite only"),
    ("hvac.simulate_s", "s", "wall_s on paper_suite; no change on fleet_attack"),
    ("hvac.simulate_calls", "count", "wall_s on paper_suite; no change on fleet_attack"),
    ("codec.encode_s", "s", _CODEC),
    ("codec.decode_s", "s", _CODEC),
    ("codec.bytes", "bytes", _CODEC),
    ("cache.read_s", "s", _CODEC),
    ("cache.write_s", "s", "wall_s"),
    ("cache.write_bytes", "bytes", "wall_s"),
    ("cache.hit_ratio.trace", "ratio", _HIT),
    ("cache.hit_ratio.adm", "ratio", _HIT),
    ("cache.hit_ratio.rewards", "ratio", _HIT),
    ("cache.hit_ratio.result", "ratio", _HIT),
    ("scheduler.tasks", "count", _SCHED),
    ("scheduler.busy_s", "s", _SCHED),
    ("scheduler.utilization", "ratio", _SCHED),
    ("scheduler.idle_s", "s", _SCHED),
    ("runner.merge_s", "s", _PAPER),
    ("runner.task_self_s", "s", "wall_s (experiment code outside the wrapped layers)"),
    ("store.record_s", "s", _CODEC),
    ("events.write_s", "s", "warm_wall_s, wall_s"),
    ("remote.connects_per_task", "ratio", "small_p50_s, long_done_s"),
    ("service.queue_wait_p50_s", "s", "small_p50_s, small_tail_s"),
    ("service.queue_wait_tail_s", "s", "small_p50_s, small_tail_s"),
    ("service.run_p50_s", "s", "small_p50_s, long_done_s"),
    ("service.submit_rtt_p50_s", "s", "small_p50_s"),
    ("service.status_rtt_p50_s", "s", "small_p50_s"),
    ("service.gen_late_max_s", "s", "validity of the run"),
    ("unattributed_s", "s", "a layer the wrappers miss"),
    ("trace.overhead_s", "s", "wrapper cost per call x spans (the benchmark's own cost)"),
    ("trace.cache_count_gap", "count", "0 unless a call site escapes the wrappers"),
)
# Printed in the report but left out of the JSON line: each is exactly 0
# on some workload (a layer that does not run there, a tier it never
# uses, a cold cache, a backend without remote workers, or the coverage
# gap when tracing is complete), and a metric must be measured everywhere.
# trace.overhead_s measures the benchmark's tracer, not the program.
REPORT_ONLY = {
    "attack.baselines_s",
    "attack.execute_s",
    "hvac.simulate_s",
    "hvac.simulate_calls",
    "codec.decode_s",
    "cache.hit_ratio.trace",
    "cache.hit_ratio.result",
    "remote.connects_per_task",
    "service.queue_wait_p50_s",
    "service.queue_wait_tail_s",
    "service.run_p50_s",
    "service.submit_rtt_p50_s",
    "service.status_rtt_p50_s",
    "service.gen_late_max_s",
    "trace.overhead_s",
    "trace.cache_count_gap",
}


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10, check=False,
        ).stdout.strip() or "unknown (not a git checkout)"
    except OSError:
        commit = "unknown (git not available)"
    import numpy

    from repro.runner.cache import code_fingerprint

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "code_fingerprint": code_fingerprint(),
    }


# ----------------------------------------------------------------------
# Session workloads (paper_suite, fleet_attack)
# ----------------------------------------------------------------------


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def _coordinator(run_dir: Path, name: str, extra: list[str]) -> dict:
    out = run_dir / f"{name}.json"
    spawned = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "coordinator.py"),
         "--spawned", repr(spawned), "--cache-dir", str(run_dir / f"{name}-cache"),
         "--out", str(out), *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=170, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"coordinator {name} failed:\n{completed.stderr[-3000:]}")
    shutil.rmtree(run_dir / f"{name}-cache", ignore_errors=True)
    return read_json(out)


def session_workload(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path):
    from reference import reference_digests

    specs = paper_requests(seed) if workload == "paper_suite" else fleet_requests(seed)
    reference = reference_digests(specs)
    requests = run_dir / "requests.json"
    write_json(requests, specs)
    args = ["--mode", "pass", "--requests", str(requests)]

    def setup_samples(count: int) -> list[float]:
        return [
            _coordinator(run_dir, f"setup{len(setups) + i}", ["--mode", "setup"])["setup_s"]
            for i in range(count)
        ]

    # Set-up samples are taken a few at a time between passes, so they
    # see the machine across the whole run rather than one moment of it.
    setups: list[float] = []
    setups += setup_samples(SETUP_GROUP)
    passes, traced = [], []
    count = 1 if trace else pass_count(workload, seconds)
    while len(passes) < count:
        index = len(passes) + len(traced)
        passes.append(_coordinator(run_dir, f"pass{index}", args))
        if trace:
            trace_dir = run_dir / f"trace{index}"
            result = _coordinator(
                run_dir, f"pass{index}t", args + ["--trace-dir", str(trace_dir)]
            )
            result["trace_dir"] = str(trace_dir)
            traced.append(result)
        setups += setup_samples(SETUP_GROUP)

    attempted = failed = 0
    mismatches = []
    for result in passes + traced:
        checks = [("cold", index, value) for index, value in enumerate(result["cold"])]
        for digests in result["warm"]:
            checks += [("warm", index, value) for index, value in enumerate(digests)]
        for kind, index, value in checks:
            attempted += 1
            if value != reference[index]:
                failed += 1
                mismatches.append(f"{kind}:{specs[index]['experiment']}")

    walls = [result["wall_s"] for result in passes]
    metrics = {
        "setup_s": median(setups + [result["setup_s"] for result in passes]),
        "wall_s": median(walls),
        "warm_wall_s": median([value for result in passes for value in result["warm_wall_s"]]),
        "long_done_s": median(walls),
        "peak_rss_mb": median([result["rss_mb"] for result in passes]),
    }
    notes = {
        "passes": len(passes),
        "pass_walls": [round(w, 3) for w in walls],
        "setups": [round(v, 3) for v in setups + [result["setup_s"] for result in passes]],
        "warms": [round(v, 3) for result in passes for v in result["warm_wall_s"]],
        "mismatches": mismatches[:10],
    }
    if workload == "fleet_attack":
        notes["home_days_per_s"] = home_days(specs[0]) / metrics["wall_s"]
    layers = session_layers(passes, traced) if trace else {}
    return metrics, layers, attempted, failed, notes


def span_layers(summary) -> dict:
    """The per-layer figures the wrappers' spans give (self seconds,
    calls, bytes), for any set of traced processes."""
    batches = summary.count("attack.batch")
    return {
        "dataset.trace_s": summary.seconds("dataset.trace", "dataset.fleet", "dataset.fleet_home"),
        "adm.fit_s": summary.seconds("adm.fit"),
        "adm.fit_calls": summary.count("adm.fit"),
        "geometry.stay_table_s": summary.seconds(
            "geometry.stay_range_table", "geometry.points_in_hulls", "geometry.oracle"
        ),
        "attack.batch_s": summary.seconds("attack.batch", "attack.dp_batch"),
        "attack.batch_calls": batches,
        "attack.jobs_per_call": summary.value.get("attack.batch", 0) / batches if batches else 0.0,
        "attack.baselines_s": summary.seconds("attack.greedy", "attack.biota"),
        "attack.execute_s": summary.seconds("attack.execute"),
        "hvac.simulate_s": summary.seconds("hvac.simulate", "hvac.simulate_batch"),
        "hvac.simulate_calls": summary.count("hvac.simulate", "hvac.simulate_batch"),
        "codec.encode_s": summary.seconds("codec.encode"),
        "codec.decode_s": summary.seconds("codec.decode"),
        "codec.bytes": summary.value.get("codec.encode", 0) + summary.value.get("codec.decode", 0),
        "cache.read_s": summary.seconds("cache.get"),
        "cache.write_s": summary.seconds("cache.put"),
        "cache.write_bytes": summary.child_value("codec.encode", "cache.put"),
        "runner.merge_s": summary.seconds("runner.merge"),
        "runner.task_self_s": summary.seconds("runner.task"),
        "store.record_s": summary.seconds("store.record"),
        "events.write_s": summary.seconds("events.write"),
        "_self": summary.self_s,
    }


def session_layers(passes: list[dict], traced: list[dict]) -> dict:
    from tracing import SpanSummary, cache_count_gap, load_spans, wrapper_cost

    result = traced[0]
    trace_dir = Path(result["trace_dir"])
    coordinator = SpanSummary(load_spans(trace_dir))
    summary = SpanSummary(load_spans(trace_dir) + load_spans(trace_dir / "replay"))
    sched = result["scheduler"]
    capacity = sched["slots"] * sched["wall_s"]
    return {
        **span_layers(summary),
        **{f"cache.hit_ratio.{tier}": ratio for tier, ratio in sched["hit_ratio"].items()},
        "scheduler.tasks": sched["tasks"],
        "scheduler.busy_s": sched["busy_s"],
        "scheduler.utilization": sched["busy_s"] / capacity if capacity else 0.0,
        "scheduler.idle_s": max(0.0, capacity - sched["busy_s"]),
        "unattributed_s": coordinator.uncovered(*result["window"]),
        "trace.overhead_s": wrapper_cost() * len(summary.spans),
        "_wall_gap_s": result["wall_s"] - passes[0]["wall_s"],
        "trace.cache_count_gap": cache_count_gap(coordinator, sched["cache_stats"]),
        "_task_spans": coordinator.count("runner.task"),
        "_pool_tasks": sched["remote_tasks"],
    }


# ----------------------------------------------------------------------
# service_mixed
# ----------------------------------------------------------------------


def service_workload(seed: int, seconds: float, trace: bool, run_dir: Path):
    import service
    from reference import reference_digests

    smalls = service_small_requests(seed)
    small_ref = reference_digests(smalls)
    cycles = pass_count("service_mixed", seconds)
    if trace:
        # One untraced and one traced pass (plane and worker started with
        # the tracer installed), for the tracing overhead.
        passes = [
            service.service_pass(seed, cycles, 1),
            service.service_pass(seed, cycles, 1, trace_dir=run_dir / "trace"),
        ]
    else:
        passes = [service.service_pass(seed, cycles, SERVICE_SETUPS)]
    long_specs = {
        json.dumps(cycle["long_spec"], sort_keys=True): cycle["long_spec"]
        for data in passes
        for cycle in data["cycles"]
    }
    long_ref = dict(zip(long_specs, reference_digests(list(long_specs.values()))))

    attempted = failed = 0
    mismatches = []
    for data in passes:
        expected: dict[str, str] = {}
        for view in data["setup_views"]:
            expected[view["job_id"]] = small_ref[len(expected)]
        for cycle in data["cycles"]:
            expected[cycle["long"]["job_id"]] = long_ref[
                json.dumps(cycle["long_spec"], sort_keys=True)
            ]
            for small in cycle["smalls"]:
                expected[small["job_id"]] = small_ref[small["ref"]]
        for job_id, want in expected.items():
            attempted += 1
            got = data["rendered"].get(job_id)
            if got is None or digest(got) != want:
                failed += 1
                mismatches.append(job_id)
        for _, digests in data["warm"]:
            for index, value in enumerate(digests):
                attempted += 1
                if value != small_ref[index]:
                    failed += 1
                    mismatches.append(f"warm:{smalls[index]['experiment']}")

    metrics, samples = service_metrics(passes[0])
    notes = {
        "cycles": len(passes[0]["cycles"]),
        "small_tail": f"p{samples['percentile']:.1f} of {samples['n']} small jobs",
        "home_days_per_s": samples["home_days_per_s"],
        "setups": [round(v, 3) for v in passes[0]["setup_s"]],
        "mismatches": mismatches[:10],
    }
    layers = service_layers(passes, run_dir / "trace") if trace else {}
    return metrics, layers, attempted, failed, notes


def service_metrics(data: dict) -> tuple[dict, dict]:
    """End-to-end figures of one service pass, from the job records."""
    cycles = data["cycles"]
    latencies, spans, long_done, rates = [], [], [], []
    for cycle in cycles:
        views = cycle["views"]
        for small in cycle["smalls"]:
            latencies.append(views[small["job_id"]]["finished"] - small["due"])
        spans.append(
            max(view["finished"] for view in views.values()) - cycle["long"]["submitted"]
        )
        done = cycle["long"]["finished"] - cycle["long"]["submitted"]
        long_done.append(done)
        rates.append(home_days(cycle["long_spec"]) / done)
    small_tail, percentile, n = tail(latencies)
    metrics = {
        "setup_s": median(data["setup_s"]),
        "wall_s": median(spans),
        "warm_wall_s": median([seconds for seconds, _ in data["warm"]]),
        "small_p50_s": median(latencies),
        "small_tail_s": small_tail,
        "long_done_s": median(long_done),
        "peak_rss_mb": data["rss_mb"],
    }
    return metrics, {"percentile": percentile, "n": n, "home_days_per_s": median(rates)}


def service_layers(passes: list[dict], trace_dir: Path) -> dict:
    """Per-layer figures of the traced service pass: the generator's own
    timing, the job records, the jobs' trails, and the spans the plane
    and worker processes wrote."""
    from tracing import SpanSummary, cache_count_gap, load_spans, wrapper_cost

    untraced, traced = passes
    waits, runs, late = [], [], []
    first = last = None
    for cycle in traced["cycles"]:
        views = cycle["views"]
        for small in cycle["smalls"]:
            view = views[small["job_id"]]
            waits.append(view["started"] - view["submitted"])
            late.append(small["late"])
        for view in views.values():
            runs.append(view["finished"] - view["started"])
            first = min(first or view["submitted"], view["submitted"])
            last = max(last or view["finished"], view["finished"])
    wait_tail, _, _ = tail(waits)
    summary = SpanSummary(load_spans(trace_dir / "serve") + load_spans(trace_dir / "worker"))
    trails, trail_cache = trail_layers(traced["trails"])
    # Job records carry wall-clock stamps, spans the monotonic clock.
    offset = traced["clock"][0] - traced["clock"][1]
    return {
        **span_layers(summary),
        **trails,
        "service.queue_wait_p50_s": median(waits),
        "service.queue_wait_tail_s": wait_tail,
        "service.run_p50_s": median(runs),
        "service.submit_rtt_p50_s": median(traced["submit_rtt"]),
        "service.status_rtt_p50_s": median(traced["status_rtt"]),
        "service.gen_late_max_s": max(late) if late else 0.0,
        "unattributed_s": summary.uncovered(first - offset, last - offset),
        "trace.overhead_s": wrapper_cost() * len(summary.spans),
        "_wall_gap_s": service_metrics(traced)[0]["wall_s"]
        - service_metrics(untraced)[0]["wall_s"],
        "trace.cache_count_gap": cache_count_gap(summary, trail_cache),
    }


def trail_layers(trails: list[list]) -> tuple[dict, dict[str, int]]:
    """Scheduler, cache and transport figures from the jobs' event
    trails, folded by the program's own ``ProfileAggregator`` (one per
    trail for the slot capacity, one over all trails for the totals);
    also the trails' cache counts."""
    from repro.events.processors import ProfileAggregator

    total = ProfileAggregator()
    capacity = 0.0
    for events in trails:
        run = ProfileAggregator()
        for seq, event in enumerate(events):
            run.handle(event, seq, 0.0)
            total.handle(event, seq, 0.0)
        capacity += run.jobs * run.wall_seconds
    busy = total.busy_seconds
    remote = sum(1 for event in total.task_events if not event.local)
    connects = sum(total.worker_connects.values())
    layers = {
        **{f"cache.hit_ratio.{tier}": total.hit_rate(tier) for tier in TIERS},
        "scheduler.tasks": len(total.task_events),
        "scheduler.busy_s": busy,
        "scheduler.utilization": busy / capacity if capacity else 0.0,
        "scheduler.idle_s": max(0.0, capacity - busy),
        "remote.connects_per_task": connects / remote if remote else 0.0,
    }
    return layers, total.cache_stats


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def report(workload: str, trace: bool, prov: dict, metrics: dict, layers: dict,
           attempted: int, failed: int, notes: dict) -> None:
    print(f"perfbench {workload} (trace={int(trace)})")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"  {'failed_frac':<28} {failed / attempted if attempted else 0.0:>14.6f} ratio"
          f"   ({failed} of {attempted} requests)")
    for key, value in notes.items():
        if key == "home_days_per_s":
            print(f"  {key:<28} {value:>14.3f} 1/s")
        elif key != "mismatches" or value:
            print(f"  {key:<28} {value}")
    label = " (untraced pass)" if trace else ""
    for name, unit in END_TO_END + REPORT_ONLY_E2E:
        if name in metrics:
            print(f"  {name:<28} {metrics[name]:>14.6f} {unit}{label}")
    if not trace:
        return
    print(f"  {'metric':<28} {'value':>14} {'unit':<6} should move -> on")
    for name, unit, moves in PER_LAYER:
        print(f"  {name:<28} {layers.get(name, 0.0):>14.6f} {unit:<6} {moves}")
    if "_self" in layers:
        print("  self time per span name (s):")
        for name, seconds in sorted(layers["_self"].items(), key=lambda item: -item[1]):
            print(f"    {name:<30} {seconds:>10.4f}")
    if "_wall_gap_s" in layers:
        print(f"  traced wall_s - untraced wall_s {layers['_wall_gap_s']:.4f} s (one pass "
              "each, inside run-to-run noise)")
    if "_task_spans" in layers:
        print(f"  task spans {layers['_task_spans']} vs pool tasks in the scheduler's "
              f"events {layers['_pool_tasks']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program tree at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True, exist_ok=True)
    # A fresh checkout has no bytecode yet; compile it before any timed
    # process starts, as an installed package would have it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=False, timeout=170)
    prov = provenance(args.seed)
    host_loop_start = host_loop_s()
    trace = bool(args.trace)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.workload == "service_mixed":
            metrics, layers, attempted, failed, notes = service_workload(
                args.seed, args.seconds, trace, run_dir
            )
        else:
            metrics, layers, attempted, failed, notes = session_workload(
                args.workload, args.seed, args.seconds, trace, run_dir
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prov["host_loop_s"] = [round(host_loop_start, 4), round(host_loop_s(), 4)]
    report(args.workload, trace, prov, metrics, layers, attempted, failed, notes)
    if trace:
        chosen = {
            name: (float(layers.get(name, 0.0)), unit)
            for name, unit, _ in PER_LAYER
            if name not in REPORT_ONLY
        }
    else:
        chosen = {name: (float(metrics[name]), unit) for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
