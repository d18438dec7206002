"""AsyncShardRunner: determinism, shard graphs, failure, ADM disk tier."""

import pytest

from repro.events import collect_events
from repro.runner import (
    AsyncShardRunner,
    ProcessExecutor,
    RunRequest,
    SerialRunner,
    cache_disabled,
    get_cache,
    set_cache,
)
from repro.runner.async_graph import GraphSummary
from repro.runner.cache import ArtifactCache, configure_cache
from repro.runner.registry import Experiment, all_experiments, unregister

SMALL_REQUESTS = [
    ("fig3", {"n_days": 3, "seed": 1}),
    ("fig4", {"n_days": 4, "seed": 2023, "min_pts_values": [3, 6], "k_values": [2, 4]}),
    ("fig6", {"n_days": 4, "seed": 3}),
    ("sec6", {"n_minutes": 30, "seed": 7}),
]


def _requests(spec=SMALL_REQUESTS):
    return [RunRequest(name, dict(params)) for name, params in spec]


@pytest.fixture()
def fresh_cache(tmp_path):
    previous = get_cache()
    cache = configure_cache(memory=True, disk_dir=tmp_path / "cache")
    yield cache
    set_cache(previous)


def test_capabilities_declare_async_graph():
    caps = AsyncShardRunner(jobs=4).capabilities
    assert caps.name == "async-graph[thread]"
    process = AsyncShardRunner(jobs=2, executor=ProcessExecutor(2))
    assert process.capabilities.name == "async-graph[process]"
    assert SerialRunner().capabilities.name == "serial"


def test_async_matches_serial_byte_for_byte():
    with cache_disabled():
        serial = SerialRunner().run(_requests())
    with cache_disabled():
        run = AsyncShardRunner(jobs=4).run(_requests())
    assert [o.name for o in run] == [o.name for o in serial]
    for s, a in zip(serial, run):
        assert a.rendered == s.rendered, f"{s.name} diverged under async"
        assert not a.cached


@pytest.mark.slow
def test_async_matches_serial_across_all_experiments():
    """Byte-identical rendering for every registered deterministic
    experiment; non-deterministic (timing) ones still run cleanly."""
    deterministic = [e.name for e in all_experiments() if e.deterministic]
    timing = [e.name for e in all_experiments() if not e.deterministic]
    requests = [RunRequest.for_days(name, days=5) for name in deterministic]
    with cache_disabled():
        serial = SerialRunner().run(
            [RunRequest(r.experiment, dict(r.params)) for r in requests]
        )
    with cache_disabled():
        run = AsyncShardRunner(jobs=4).run(
            [RunRequest(r.experiment, dict(r.params)) for r in requests]
        )
    assert [o.name for o in run] == deterministic
    for s, a in zip(serial, run):
        assert a.rendered == s.rendered, f"{s.name} diverged under async"
    with cache_disabled():
        outcomes = AsyncShardRunner(jobs=2).run(
            [RunRequest.for_days(name, days=5) for name in timing]
        )
    assert [o.name for o in outcomes] == timing
    for outcome in outcomes:
        assert outcome.rendered


@pytest.mark.slow
def test_async_process_executor_matches_serial():
    with cache_disabled():
        serial = SerialRunner().run(_requests())
    with cache_disabled():
        run = AsyncShardRunner(jobs=2, executor=ProcessExecutor(2)).run(_requests())
    for s, a in zip(serial, run):
        assert a.rendered == s.rendered, f"{s.name} diverged in process mode"


def test_request_order_preserved_despite_interleaving():
    with cache_disabled():
        outcomes = AsyncShardRunner(jobs=4).run(
            [
                RunRequest("fig6", {"n_days": 4, "seed": 3}),
                RunRequest("fig3", {"n_days": 3, "seed": 1}),
            ]
        )
    assert [o.name for o in outcomes] == ["fig6", "fig3"]


def test_result_cache_replay(fresh_cache):
    runner = AsyncShardRunner(jobs=2)
    first = runner.run_one("fig3", params={"n_days": 2, "seed": 21})
    assert not first.cached
    second = runner.run_one("fig3", params={"n_days": 2, "seed": 21})
    assert second.cached
    assert second.rendered == first.rendered


def test_profile_reports_tasks_and_cache_traffic(fresh_cache):
    runner = AsyncShardRunner(jobs=2)
    with collect_events() as events:
        runner.run(_requests([("fig3", {"n_days": 2, "seed": 22})]))
    labels = {event.label for event in events.task_events}
    assert any(label.startswith("fig3/shard") for label in labels)
    assert "fig3/merge" in labels
    assert events.wall_seconds > 0
    assert events.cache_stats.get("trace.puts", 0) >= 1


def test_adm_disk_tier_replays_in_fresh_process(fresh_cache):
    """A second run with cold memory but warm disk must replay the ADMs
    fitted inside ShatterAnalysis instead of re-clustering."""
    request = [("tab6", {"n_days": 5, "training_days": 3, "seed": 5})]
    runner = AsyncShardRunner(jobs=2)
    with collect_events() as events:
        first = runner.run(_requests(request))
    stats = events.cache_stats
    # One fit per house: the full-knowledge attacker reuses the
    # defender's ADM instead of fitting the same rules again.
    assert stats.get("adm.puts", 0) == 2, "one defender fit per house"

    # Same disk tier, fresh memory: what a new process (or CI replay)
    # sees.  Drop the result tier so the experiment really re-executes.
    set_cache(ArtifactCache(memory=True, disk_dir=fresh_cache.disk_dir))
    for entry in (fresh_cache.disk_dir / "result").iterdir():
        entry.unlink()
    rerun_runner = AsyncShardRunner(jobs=2)
    with collect_events() as events:
        second = rerun_runner.run(_requests(request))
    assert second[0].rendered == first[0].rendered
    assert not second[0].cached
    stats = events.cache_stats
    assert stats.get("adm.hits", 0) == 2, "ADM fits must replay from disk"
    assert stats.get("adm.puts", 0) == 0, "nothing should be re-fitted"


# ----------------------------------------------------------------------
# Failure semantics mid-graph
# ----------------------------------------------------------------------


def _register_exploding(name):
    def _shards(params):
        return [{"part": 0}, {"part": 1}, {"part": 2}]

    def _run_shard(part):
        if part == 1:
            raise RuntimeError("mid-graph failure")
        return part

    def _merge(params, shards, parts):  # pragma: no cover - must not run
        raise AssertionError("merge must not run after a shard failure")

    return Experiment(
        name=name,
        artifact=f"synthetic {name}",
        title="exploding shard fixture",
        render=str,
        shards=_shards,
        run_shard=_run_shard,
        merge=_merge,
        cacheable=False,
        deterministic=False,
    )


def test_shard_exception_propagates_and_skips_merge():
    from repro.runner.registry import register

    exp = register(_register_exploding("explode-async"))
    try:
        with cache_disabled():
            with pytest.raises(RuntimeError, match="mid-graph failure"):
                AsyncShardRunner(jobs=2).run(
                    [RunRequest(exp.name, {})]
                )
    finally:
        unregister(exp.name)


def test_dry_run_planning_touches_no_cache(fresh_cache):
    runner = AsyncShardRunner(jobs=2)
    with collect_events() as events:
        tasks, summaries = runner.build_graph(
            [RunRequest("tab5", {"n_days": 5, "training_days": 3, "seed": 2})]
        )
    assert summaries[0].shards == 8
    assert len(tasks) == summaries[0].tasks
    assert events.cache_stats == {}


def test_every_graph_is_shards_feeding_one_merge():
    """At its default parameters, a sharded experiment's graph is exactly
    its shards plus one coordinator-side merge that depends on all of
    them, and a plain experiment's is one dependency-free ``plain`` task:
    shards reach shared traces and ADMs through the cache, not through
    graph stages."""
    runner = AsyncShardRunner(jobs=2)
    for exp in all_experiments():
        request = RunRequest.build(exp.name)
        tasks, summaries = runner.build_graph([request])
        params = request.params
        if not exp.shardable:
            assert [(t.key, t.payload, t.deps) for t in tasks] == [
                ((0, "run"), ("plain", exp.name, params, None), ())
            ], exp.name
            assert summaries == [GraphSummary(exp.name, shards=0, tasks=1)]
            continue
        shards = exp.shard_params(params)
        shard_keys = [(0, "shard", index) for index in range(len(shards))]
        *shard_tasks, merge = tasks
        assert [(t.key, t.payload, t.deps) for t in shard_tasks] == [
            (key, ("shard", exp.name, params, shard), ())
            for key, shard in zip(shard_keys, shards)
        ], exp.name
        assert merge.key == (0, "merge") and merge.local, exp.name
        assert merge.payload == ("merge", exp.name, params, shards), exp.name
        assert merge.deps == tuple(shard_keys), exp.name
        assert summaries == [
            GraphSummary(exp.name, shards=len(shards), tasks=len(shards) + 1)
        ]


def test_concurrent_same_key_puts_do_not_collide(tmp_path):
    """Two threads writing the same cache key must both succeed (the
    atomic-write temp name is unique per thread and call)."""
    import threading

    from repro.home.builder import build_house_a
    from repro.dataset.synthetic import SyntheticConfig, generate_house_trace

    cache = ArtifactCache(memory=False, disk_dir=tmp_path)
    home = build_house_a()
    trace = generate_house_trace(
        home, house="A", config=SyntheticConfig(n_days=1, seed=3)
    )
    errors = []

    def put():
        try:
            for _ in range(20):
                cache.put_trace("A", 1, 3, trace)
        except Exception as error:  # pragma: no cover - the regression
            errors.append(error)

    threads = [threading.Thread(target=put) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"concurrent same-key puts crashed: {errors[0]!r}"
    assert cache.get_trace("A", 1, 3) is not None


@pytest.mark.slow
def test_process_mode_profile_sees_worker_cache_traffic(fresh_cache):
    """Worker-side cache events must ship back to the coordinator, or
    --profile reports ~0% hit rates for the CLI's default executor."""
    runner = AsyncShardRunner(jobs=2, executor=ProcessExecutor(2))
    with collect_events() as events:
        runner.run(_requests([("fig3", {"n_days": 2, "seed": 31})]))
    stats = events.cache_stats
    assert stats.get("trace.puts", 0) >= 1, "worker trace traffic missing"


def test_prepares_skipped_when_cache_disabled():
    """With the cache disabled, fig3 still runs as its shards and merge
    and nothing else."""
    with cache_disabled(), collect_events() as events:
        runner = AsyncShardRunner(jobs=2)
        outcomes = runner.run([RunRequest("fig3", {"n_days": 2, "seed": 7})])
    labels = {event.label for event in events.task_events}
    assert outcomes[0].rendered
    assert not any("prep" in label for label in labels)
    assert {"fig3/shard0", "fig3/shard1", "fig3/merge"} <= labels
