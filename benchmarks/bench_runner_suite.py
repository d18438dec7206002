"""Fast smoke benches for the runner subsystem itself.

Three properties of the execution layer, at small scale so the whole
file runs in well under a minute:

* the shard-graph runner renders byte-identically to the serial one on
  both local executors (process pool and threads);
* a warmed artifact cache turns a repeat run into a replay (the
  second full pass must be at least 3x faster);
* the shared trace/ADM tiers keep a mixed suite from regenerating
  identical inputs.

With ``REPRO_BENCH_SMOKE=1`` (the CI smoke step) timing ratios are
reported but not asserted: shared CI runners have noisy clocks, and the
smoke tier's contract is "fails on crash or wrong output, not on
timing".  Correctness assertions (byte-identical rendering, cache
replay semantics) always hold.
"""

import os
import time

from repro.events import collect_events
from repro.runner import (
    ArtifactCache,
    AsyncShardRunner,
    RunnerPolicy,
    RunRequest,
    SerialRunner,
    build_runner,
    cache_disabled,
)

SMOKE_MODE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

SMOKE_REQUESTS = [
    ("fig3", {"n_days": 3, "seed": 1}),
    ("fig4", {"n_days": 5, "seed": 2023, "min_pts_values": [3, 6], "k_values": [2, 4]}),
    ("fig6", {"n_days": 5, "seed": 3}),
    # Exercises the batched schedule DP end to end (shards and merge
    # through the graph runner, ADM and reward-table sharing through
    # the cache).
    (
        "fleet_attack",
        {
            "n_homes": 4,
            "n_zones": 4,
            "n_days": 4,
            "training_days": 2,
            "seed": 7,
            "chunk": 2,
            "backend": "kmeans",
        },
    ),
]


def _requests():
    return [RunRequest(name, dict(params)) for name, params in SMOKE_REQUESTS]


def test_parallel_matches_serial(benchmark, artifact_writer):
    with cache_disabled():
        serial = SerialRunner().run(_requests())
    with cache_disabled():
        parallel = benchmark.pedantic(
            # --jobs 2: the graph runner on its process-pool executor.
            lambda: build_runner(RunnerPolicy(backend="async", jobs=2)).run(
                _requests()
            ),
            rounds=1,
            iterations=1,
        )
    for s, p in zip(serial, parallel):
        assert p.rendered == s.rendered, f"{s.name} diverged under parallelism"
    artifact_writer(
        "runner_suite_parallel",
        "\n".join(
            f"{o.name}: {o.shards} shard(s), {o.seconds:.2f}s compute"
            for o in parallel
        ),
    )


def test_async_graph_matches_serial(benchmark, artifact_writer):
    with cache_disabled():
        serial = SerialRunner().run(_requests())
    with cache_disabled(), collect_events() as events:
        runner = AsyncShardRunner(jobs=2)
        outcomes = benchmark.pedantic(
            lambda: runner.run(_requests()),
            rounds=1,
            iterations=1,
        )
    for s, a in zip(serial, outcomes):
        assert a.rendered == s.rendered, f"{s.name} diverged under async graph"
    profile = events.scheduler_profile()
    artifact_writer(
        "runner_suite_async",
        "\n".join(
            f"{r.label}: start +{r.started:.2f}s, {r.seconds:.2f}s"
            for r in sorted(profile.tasks, key=lambda r: r.started)
        )
        + f"\nutilization: {100 * profile.utilization:.0f}%",
    )


def test_cached_rerun_is_a_replay(tmp_path, benchmark, artifact_writer):
    cache = ArtifactCache(memory=True, disk_dir=tmp_path / "cache")

    started = time.perf_counter()
    SerialRunner(cache=cache).run(_requests())
    cold = time.perf_counter() - started

    # Fresh memory, warm disk: what a second CLI invocation sees.
    warm_cache = ArtifactCache(memory=True, disk_dir=tmp_path / "cache")
    started = time.perf_counter()
    outcomes = benchmark.pedantic(
        lambda: SerialRunner(cache=warm_cache).run(_requests()),
        rounds=1,
        iterations=1,
    )
    warm = time.perf_counter() - started

    assert all(o.cached for o in outcomes), "warm run must replay results"
    if not SMOKE_MODE:
        assert warm < cold / 3.0, (
            f"cached rerun too slow: {warm:.2f}s vs {cold:.2f}s"
        )
    artifact_writer(
        "runner_suite_cache",
        f"cold suite: {cold:.2f}s\nwarm replay: {warm:.2f}s "
        f"({cold / max(warm, 1e-6):.0f}x faster)",
    )


def test_trace_tier_dedupes_generation(benchmark):
    # fig4 and fig6 share the ("A", n_days, seed) trace; with the cache
    # the second experiment's trace generation is a hit.
    cache = ArtifactCache(memory=True, disk_dir=None)

    def run_pair():
        runner = SerialRunner(cache=cache)
        with collect_events() as events:
            runner.run(
                [
                    RunRequest("fig4", {"n_days": 6, "seed": 3, "min_pts_values": [3, 6], "k_values": [2, 4]}),
                    RunRequest("fig6", {"n_days": 6, "seed": 3}),
                ]
            )
        return events.cache_stats

    stats = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    assert stats["hits"] > 0, "shared trace should hit the cache"
