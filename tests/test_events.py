"""The structured event stream: wire codec, dispatcher, aggregator,
replayed trail == live aggregate, failed runs' records, submission-order
scheduling, and the byte-identity invariant with events enabled."""

import json

import pytest

from repro.api import Session
from repro.errors import ConfigurationError
from repro.events import (
    EVENT_KINDS,
    GEOMETRY,
    CacheCorrupt,
    CacheHit,
    CacheMiss,
    CachePut,
    Event,
    EventDispatcher,
    EventProcessor,
    HeartbeatMissed,
    JobDequeued,
    JobQueued,
    JsonlEventWriter,
    KernelTimed,
    RunFinished,
    RunStarted,
    TaskFailed,
    TaskFinished,
    TaskStarted,
    WorkerConnected,
    WorkerLeased,
    WorkerLost,
    WorkerRegistered,
    WorkerRetired,
    collect_events,
    emit,
    event_from_wire,
    event_to_wire,
    read_events_jsonl,
    render_profile,
    replay_events,
    use_dispatcher,
)
from repro.runner import (
    ArtifactCache,
    AsyncShardRunner,
    ProcessExecutor,
    RemoteExecutor,
    RunRequest,
    SerialRunner,
    ThreadExecutor,
    WorkerServer,
    cache_disabled,
    get_cache,
    load_all,
    set_cache,
)
from repro.runner.cache import configure_cache
from repro.runner.registry import Experiment, Param, register, unregister
from repro.runner.scheduler import GraphScheduler, Task

load_all()


class Recorder(EventProcessor):
    """Keeps every (seq, event) pair it sees, in handling order."""

    def __init__(self):
        self.seen = []

    def handle(self, event, seq, ts):
        self.seen.append((seq, event))

    @property
    def events(self):
        return [event for _, event in self.seen]


@pytest.fixture()
def fresh_cache(tmp_path):
    previous = get_cache()
    cache = configure_cache(memory=True, disk_dir=tmp_path / "cache")
    yield cache
    set_cache(previous)


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

ONE_OF_EACH = [
    RunStarted(experiments=("fig3", "tab5"), runner="async", jobs=4),
    RunFinished(wall_seconds=1.5),
    TaskStarted(
        key=(0, "shard", 3), label="fig3/shard3", worker="local",
        local=False, started=0.25,
    ),
    TaskFinished(
        key=(0, "shard", 3), label="fig3/shard3", worker="w:1",
        local=False, started=0.25, seconds=0.1,
    ),
    TaskFailed(
        key=(1, "run"), label="tab5/run", worker="w:2", local=False,
        started=0.5, seconds=0.2, retrying=True,
    ),
    WorkerLeased(worker="127.0.0.1:7070", capacity=2),
    WorkerConnected(worker="127.0.0.1:7070"),
    WorkerLost(worker="127.0.0.1:7070", reason="connection reset"),
    WorkerRetired(worker="127.0.0.1:7070"),
    WorkerRegistered(worker="127.0.0.1:7070", capacity=2),
    HeartbeatMissed(worker="127.0.0.1:7070", silent_seconds=6.5),
    JobQueued(job_id="job-fig4-0001", client="alice", experiment="fig4"),
    JobDequeued(job_id="job-fig4-0001"),
    CacheHit(tier="trace", count=2),
    CacheMiss(tier="adm"),
    CachePut(tier="result", count=3),
    CacheCorrupt(tier="analysis"),
    KernelTimed(kernel=GEOMETRY, seconds=0.015625),
]


def test_every_event_kind_is_a_frozen_dataclass():
    """Events are shared across threads and kept in aggregates, so
    Event and each kind the wire codec decodes is a frozen dataclass."""
    for cls in (Event, *EVENT_KINDS.values()):
        # Read the class's own params: a subclass without the decorator
        # would inherit Event's.
        params = vars(cls).get("__dataclass_params__")
        assert params is not None and params.frozen, (
            f"{cls.__name__} must be @dataclass(frozen=True)"
        )


def test_round_trip_catalogue_holds_one_of_each_kind():
    """ONE_OF_EACH, which the round-trip test below runs, has an
    instance of every kind in EVENT_KINDS and of no other class."""
    assert {type(event) for event in ONE_OF_EACH} == set(EVENT_KINDS.values())


@pytest.mark.parametrize("event", ONE_OF_EACH, ids=lambda e: type(e).__name__)
def test_wire_round_trips_every_kind_exactly(event):
    envelope = event_to_wire(event, seq=7, ts=123.0)
    # Through real JSON text, as the trail file does.
    decoded = event_from_wire(json.loads(json.dumps(envelope)))
    assert decoded == event
    assert type(decoded) is type(event)
    assert envelope["seq"] == 7 and envelope["kind"] == type(event).__name__


def test_wire_tuple_task_keys_survive_exactly():
    event = TaskStarted(
        key=(0, "shard", 3), label="x", worker="", local=True, started=0.0
    )
    decoded = event_from_wire(json.loads(json.dumps(event_to_wire(event))))
    assert decoded.key == (0, "shard", 3)
    assert isinstance(decoded.key, tuple)


def test_wire_unknown_kind_rejected_unknown_field_dropped():
    with pytest.raises(ConfigurationError, match="unknown event kind"):
        event_from_wire({"kind": "FluxCapacitorCharged", "data": {}})
    payload = event_to_wire(WorkerRetired(worker="w"))
    payload["data"]["added_in_the_future"] = 42
    assert event_from_wire(payload) == WorkerRetired(worker="w")
    # Trails written while the scheduler still learned task costs from
    # history carry one more field on every task end; they replay as
    # the task events of today.
    finished = TaskFinished(
        key=(0, "shard", 3), label="fig3/shard3", worker="w:1",
        local=False, started=0.25, seconds=0.1,
    )
    failed = TaskFailed(
        key=(1, "run"), label="tab5/run", worker="w:2", local=False,
        started=0.5, seconds=0.2, retrying=True,
    )
    old_keys = ((finished, "fig3/shard3|ab12"), (failed, "tab5/run|cd34"))
    for event, old_key in old_keys:
        payload = event_to_wire(event, seq=3, ts=1.0)
        payload["data"]["cost_key"] = old_key
        assert event_from_wire(json.loads(json.dumps(payload))) == event


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------


def test_dispatcher_sequences_and_fans_out_in_one_order():
    first, second = Recorder(), Recorder()
    dispatcher = EventDispatcher(processors=[first, second])
    with use_dispatcher(dispatcher):
        emit(WorkerRetired(worker="a"))
        emit(WorkerRetired(worker="b"))
    assert [seq for seq, _ in first.seen] == [0, 1]
    assert first.seen == second.seen
    dispatcher.close()
    dispatcher.close()  # idempotent
    with use_dispatcher(dispatcher):
        emit(WorkerRetired(worker="late"))
    assert len(first.seen) == 2, "a closed dispatcher drops emissions"


def test_emit_without_dispatcher_is_a_noop():
    emit(WorkerRetired(worker="nobody-is-listening"))


def test_innermost_dispatcher_wins():
    outer, inner = Recorder(), Recorder()
    with use_dispatcher(EventDispatcher(processors=[outer])):
        with use_dispatcher(EventDispatcher(processors=[inner])):
            emit(WorkerRetired(worker="w"))
        emit(WorkerRetired(worker="v"))
    assert [e.worker for e in inner.events] == ["w"]
    assert [e.worker for e in outer.events] == ["v"]


def test_processor_exceptions_propagate():
    class Broken(EventProcessor):
        def handle(self, event, seq, ts):
            raise RuntimeError("processor bug")

    with use_dispatcher(EventDispatcher(processors=[Broken()])):
        with pytest.raises(RuntimeError, match="processor bug"):
            emit(WorkerRetired(worker="w"))


# ----------------------------------------------------------------------
# Ordering invariants across executors
# ----------------------------------------------------------------------


def _check_stream_invariants(events):
    assert isinstance(events[0], RunStarted)
    assert isinstance(events[-1], RunFinished)
    started_keys = []
    for event in events:
        if isinstance(event, TaskStarted):
            started_keys.append(event.key)
        elif isinstance(event, (TaskFinished, TaskFailed)):
            assert event.key in started_keys, (
                f"task {event.key!r} finished before it started"
            )


@pytest.mark.parametrize(
    "executor",
    [ThreadExecutor, ProcessExecutor],
    ids=["thread", "process"],
)
def test_event_stream_is_well_ordered_across_executors(
    executor, fresh_cache
):
    recorder = Recorder()
    with collect_events([recorder]) as aggregator:
        runner = AsyncShardRunner(jobs=2, executor=executor(2))
        outcomes = runner.run([RunRequest.for_days("fig6", days=3)])
    assert outcomes[0].rendered
    _check_stream_invariants(recorder.events)
    # Scheduler task events happen on the event-loop thread in record
    # order, so the recorded stream replays to the live aggregate.
    assert aggregator.task_events and aggregator.wall_seconds > 0
    assert replay_events(recorder.events) == aggregator


def test_serial_runner_emits_through_the_same_pipeline(fresh_cache):
    recorder = Recorder()
    with collect_events([recorder]) as aggregator:
        SerialRunner().run([RunRequest.for_days("fig3", days=2)])
    _check_stream_invariants(recorder.events)
    labels = [
        e.label for e in recorder.events if isinstance(e, TaskFinished)
    ]
    assert labels == ["fig3/run"]
    assert aggregator.slots == {"local": 1}
    assert aggregator.busy_seconds > 0.0
    assert aggregator.jobs == 1


# ----------------------------------------------------------------------
# Aggregator / JSONL trail / replay equality
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,days", [("fig6", 3), ("fig10", 4)], ids=["fig6", "fig10"]
)
def test_trail_replays_to_the_live_aggregate(tmp_path, name, days):
    session = Session(cache_dir=str(tmp_path / "cache"), jobs=2)
    session.submit(name, days=days)
    live = session.last_events
    assert live is not None and live.task_events

    manifest = session.last_manifests[0]
    assert manifest.events_path, "a session with a store persists a trail"
    assert session.last_events_path is not None
    assert session.last_events_path.is_file()
    # Only the coordinator writes the trail (pool members inherit its
    # open writer): one header, then each event once, in seq order.
    lines = session.last_events_path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["kind"] for r in records].count("TrailHeader") == 1
    seqs = [r["seq"] for r in records if r["kind"] != "TrailHeader"]
    assert len(set(seqs)) == len(seqs), "duplicate seq numbers"
    assert all(a < b for a, b in zip(seqs, seqs[1:])), "seq not increasing"

    assert replay_events(session.events(manifest)) == live


@pytest.fixture()
def flaky_exp():
    """A sharded experiment whose shards raise when ``fail`` is set."""

    def _run_shard(part, fail):
        if fail:
            raise RuntimeError(f"shard {part} exploded")
        return part

    exp = register(
        Experiment(
            name="evt-flaky",
            artifact="synthetic evt-flaky",
            title="failing-run fixture",
            render=str,
            shards=lambda params: [{"part": 0}, {"part": 1}],
            run_shard=_run_shard,
            merge=lambda params, shards, parts: sum(parts),
            params=(Param("fail", False),),
            cacheable=False,
        )
    )
    yield exp
    unregister(exp.name)


@pytest.mark.parametrize("runner", ["serial", "async"])
def test_failed_session_run_keeps_its_own_record(tmp_path, flaky_exp, runner):
    """A failed run's aggregate and trail are that run's — its failed
    task and its RunFinished — not the previous run's."""
    session = Session(cache_dir=str(tmp_path / "cache"), runner=runner)
    session.submit(flaky_exp.name)
    previous = session.last_events_path
    assert session.last_manifests
    with pytest.raises(Exception, match="exploded"):
        session.submit(flaky_exp.name, fail=True)
    failed = session.last_events
    assert failed is not None
    assert [e for e in failed.task_events if isinstance(e, TaskFailed)]
    assert failed.run_finished is not None and failed.wall_seconds > 0
    assert session.last_manifests == []
    path = session.last_events_path
    assert path is not None and path != previous and path.is_file()
    trail = read_events_jsonl(path)
    assert any(isinstance(event, TaskFailed) for event in trail)
    assert isinstance(trail[-1], RunFinished)
    assert replay_events(trail) == failed


def test_trail_reader_skips_header_and_torn_tail(tmp_path):
    path = tmp_path / "trail.jsonl"
    writer = JsonlEventWriter(path, header={"origin": "test"})
    writer.handle(WorkerRetired(worker="w"), 0, 1.0)
    writer.close()
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"kind": "TaskFin')  # torn final line
    assert read_events_jsonl(path) == [WorkerRetired(worker="w")]
    header = json.loads(path.read_text().splitlines()[0])
    assert header["kind"] == "TrailHeader" and header["origin"] == "test"


def test_render_profile_matches_cli_shape(tmp_path):
    session = Session(cache_dir=str(tmp_path / "cache"), jobs=2)
    session.submit("fig3", days=2)
    text = render_profile(session.last_events, "async-graph")
    assert "Scheduler profile (async-graph" in text
    assert "fig3/merge" in text
    assert "utilization" in text
    assert "cache hit rate (all)" in text
    assert "cache corrupt entries" in text
    # Kernels execute in pool processes under jobs=2; their events come
    # home with each result, so the kernel table is there as in serial.
    assert "Kernel profile" in text.splitlines()
    serial = Session(cache_dir=str(tmp_path / "serial"), runner="serial")
    serial.submit("fig3", days=2)
    assert "Kernel profile" in render_profile(
        serial.last_events, "serial"
    ).splitlines()


def test_every_backend_trail_has_the_serial_kernels_and_put_bytes(tmp_path):
    """Pool and remote workers send their events home: whichever
    executor ran it, a fig10 trail names the serial run's kernels,
    records the bytes the workers wrote, and replays to its live
    aggregate."""
    backends = {
        "serial": {"runner": "serial"},
        "pool": {"jobs": 2},
        "remote": {"workers": "local:2"},
    }
    trails = {}
    for label, kwargs in backends.items():
        session = Session(cache_dir=str(tmp_path / label), **kwargs)
        session.submit("fig10", days=4)
        events = session.events(session.last_manifests[0])
        assert replay_events(events) == session.last_events, label
        trails[label] = events
    serial_kernels = {
        e.kernel for e in trails["serial"] if isinstance(e, KernelTimed)
    }
    assert serial_kernels
    for label, events in trails.items():
        kernels = {e.kernel for e in events if isinstance(e, KernelTimed)}
        assert kernels == serial_kernels, label
        for tier in ("trace", "adm"):
            assert any(
                isinstance(e, CachePut) and e.tier == tier and e.nbytes > 0
                for e in events
            ), f"{label}: no {tier} put bytes"


# ----------------------------------------------------------------------
# Cache events
# ----------------------------------------------------------------------


def test_cache_traffic_is_emitted_as_events(tmp_path):
    cache = ArtifactCache(memory=True, disk_dir=tmp_path / "c")
    runner = SerialRunner(cache=cache)
    with collect_events() as cold:
        runner.run([RunRequest.for_days("fig3", days=2)])
    assert cold.cache_stats.get("result.misses", 0) >= 1
    assert cold.cache_stats.get("result.puts", 0) >= 1
    with collect_events() as warm:
        runner.run([RunRequest.for_days("fig3", days=2)])
    assert warm.cache_stats.get("result.hits", 0) >= 1
    assert warm.hit_rate() > 0.0
    # Aggregate keys mirror the tier-qualified ones.
    for name in ("hits", "misses", "puts"):
        total = sum(
            count
            for key, count in warm.cache_stats.items()
            if key.endswith(f".{name}")
        )
        assert warm.cache_stats.get(name, 0) == total


# ----------------------------------------------------------------------
# Dispatch order
# ----------------------------------------------------------------------


def _run_order(tasks):
    order = []

    def execute(task, deps, worker):
        order.append(task.key)
        return task.key

    GraphScheduler(execute=execute, slots={"local": 1}).run(tasks)
    return order


def test_without_history_scheduling_degrades_to_fifo():
    tasks = [
        Task(key="a", payload=None, label="a"),
        Task(key="b", payload=None, label="b"),
        Task(key="c", payload=None, label="c"),
    ]
    assert _run_order(tasks) == ["a", "b", "c"]
    # Deterministic: the same graph runs in the same order every time.
    assert _run_order(tasks) == ["a", "b", "c"]
    # Ready tasks start in submission order, whatever they unblock:
    # x gates y, yet z was submitted first and runs first.
    chain = [
        Task(key="z", payload=None, label="z"),
        Task(key="x", payload=None, label="x"),
        Task(key="y", payload=None, deps=("x",), label="y"),
    ]
    assert _run_order(chain) == ["z", "x", "y"]


# ----------------------------------------------------------------------
# Session surface
# ----------------------------------------------------------------------


def test_session_subscribe_sees_live_events(tmp_path):
    session = Session(cache_dir=str(tmp_path / "cache"))
    recorder = Recorder()
    session.subscribe(recorder)
    session.submit("fig3", days=2)
    _check_stream_invariants(recorder.events)
    count = len(recorder.seen)
    session.submit("fig3", days=2)
    assert len(recorder.seen) > count, "subscription spans runs"


def test_session_events_off_and_missing_trails():
    """A no_cache session has no run store, so it writes no trail and
    has none to read back; its in-memory aggregate is still there."""
    session = Session(no_cache=True)
    session.submit("fig3", days=2)
    assert session.last_manifests == []
    assert session.last_events_path is None
    assert session.last_events is not None and session.last_events.task_events, (
        "the in-memory aggregator is attached without a store"
    )
    with pytest.raises(ConfigurationError, match="persists no runs"):
        session.events("fig3-20260101-000000-abc123")


# ----------------------------------------------------------------------
# Byte identity: events dispatched or not, every backend
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"runner": "serial"},
        {"runner": "async", "jobs": 2},
    ],
    ids=["serial", "async"],
)
def test_artifacts_byte_identical_events_on_and_off(tmp_path, kwargs):
    """A Session run (aggregator plus trail writer) renders what the
    serial oracle renders with no dispatcher installed at all."""
    with cache_disabled():
        oracle = SerialRunner().run([RunRequest.for_days("fig3", days=2)])
    session = Session(cache_dir=str(tmp_path / "cache"), **kwargs)
    assert session.submit("fig3", days=2).rendered == oracle[0].rendered
    assert session.last_events_path is not None


def test_artifacts_byte_identical_under_remote_workers(tmp_path, fresh_cache):
    with cache_disabled():
        oracle = SerialRunner().run([RunRequest.for_days("fig3", days=2)])
    servers = [WorkerServer(), WorkerServer()]
    addresses = [server.start_background() for server in servers]
    try:
        recorder = Recorder()
        with collect_events([recorder]) as aggregator:
            runner = AsyncShardRunner(executor=RemoteExecutor(addresses))
            outcomes = runner.run([RunRequest.for_days("fig3", days=2)])
        assert outcomes[0].rendered == oracle[0].rendered
        assert replay_events(recorder.events) == aggregator
        assert set(aggregator.slots) == set(addresses)
        assert aggregator.worker_connects, "dials must be observable"
    finally:
        for server in servers:
            server.close()


# ----------------------------------------------------------------------
# Service control-plane events
# ----------------------------------------------------------------------


def test_service_events_aggregate():
    with collect_events() as aggregator:
        emit(WorkerRegistered(worker="w:1", capacity=2))
        emit(JobQueued(job_id="j1", client="alice", experiment="fig4"))
        emit(JobQueued(job_id="j2", client="bob", experiment="fig3"))
        emit(JobDequeued(job_id="j1"))
        emit(HeartbeatMissed(worker="w:1", silent_seconds=9.0))
    assert aggregator.registered_workers == {"w:1": 2}
    assert aggregator.heartbeats_missed == ["w:1"]
    assert aggregator.jobs_queued == 2
    assert aggregator.jobs_dequeued == 1


def test_perf_shim_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import repro.perf  # noqa: F401
