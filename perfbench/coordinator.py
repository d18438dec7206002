"""One pass of a Session workload, in a fresh process (the coordinator).

Run by ``run.py``; not meant to be started by hand.  Modes:

``setup``
    Start, ``import repro``, load the registry, open the ``Session`` and
    stop: one set-up sample.
``pass``
    Set up, then run the workload's requests cold through
    ``Session(runner="async", jobs=2)`` on an empty cache dir, then
    replay them warm in fresh ``replay.py`` processes.  Writes timings,
    rendered-text digests, the run's scheduler and cache figures and peak
    RSS to ``--out``.

With ``--trace-dir`` the pass installs the outside-in tracer before the
first request (and before any process pool forks) and the warm replay
processes install it too; every process writes its spans there.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

from common import CLI_REPLAYS, JOBS, TIERS, digest, read_json, timed_replay, write_json
from tracing import Tracer


def scheduler_counts(aggregator) -> dict:
    """Scheduler and cache figures from the run's own events, as folded
    by the session's ``ProfileAggregator``."""
    tasks = aggregator.task_events
    return {
        "tasks": len(tasks),
        "remote_tasks": sum(1 for event in tasks if not event.local),
        "busy_s": aggregator.busy_seconds,
        "wall_s": aggregator.wall_seconds,
        "slots": aggregator.jobs,
        "cache_stats": dict(aggregator.cache_stats),
        "hit_ratio": {tier: aggregator.hit_rate(tier) for tier in TIERS},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--requests", default="")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args()

    from repro.api import Session
    from repro.runner import load_all

    load_all()
    tracer = None
    if args.trace_dir:
        tracer = Tracer(args.trace_dir).install()
    session = Session(cache_dir=args.cache_dir, runner="async", jobs=JOBS)
    ready = time.monotonic()
    result: dict = {"setup_s": ready - args.spawned}
    if args.mode == "setup":
        write_json(Path(args.out), result)
        return 0

    specs = read_json(Path(args.requests))
    requests = [
        session.request(spec["experiment"], days=spec["days"], **spec["params"])
        for spec in specs
    ]
    started = time.perf_counter()
    outcomes = session.run(requests)
    ended = time.perf_counter()
    result["wall_s"] = ended - started
    result["window"] = [started, ended]
    result["cold"] = [digest(outcome.rendered) for outcome in outcomes]
    result["scheduler"] = scheduler_counts(session.last_events)

    # Replay processes trace into a subdirectory, so the coordinator's
    # own spans can be compared with the events this session saw.
    replay_trace = Path(args.trace_dir) / "replay" if args.trace_dir else None
    replays = [
        timed_replay(
            Path(args.requests),
            Path(args.cache_dir),
            Path(args.out).with_suffix(".replay.json"),
            replay_trace,
        )
        for _ in range(CLI_REPLAYS)
    ]
    result["warm_wall_s"] = [seconds for seconds, _ in replays]
    result["warm"] = [digests for _, digests in replays]
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.flush()
        tracer.uninstall()
    write_json(Path(args.out), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
