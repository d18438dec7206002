"""The asyncio graph scheduler: ordering, bounds, failure semantics."""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.errors import ConfigurationError
from repro.events import RunFinished, TaskFailed, TaskFinished, collect_events, emit
from repro.runner.scheduler import (
    GraphScheduler,
    Task,
    TaskExecutionError,
    WorkerLostError,
    check_acyclic,
)


def _graph(*tasks):
    return [
        Task(key=key, payload=key, deps=tuple(deps), label=str(key))
        for key, deps in tasks
    ]


@contextmanager
def _collected_run():
    """Fold a bare scheduler run's events, closed with ``RunFinished``
    the way a runner closes its runs (even when the block raises)."""
    with collect_events() as aggregator:
        started = time.perf_counter()
        try:
            yield aggregator
        finally:
            emit(RunFinished(wall_seconds=time.perf_counter() - started))


# ----------------------------------------------------------------------
# Graph validation
# ----------------------------------------------------------------------


def test_topological_order_is_deterministic():
    tasks = _graph(("a", []), ("b", ["a"]), ("c", ["a"]), ("d", ["b", "c"]))
    assert check_acyclic(tasks) == ["a", "b", "c", "d"]


def test_cycle_is_rejected():
    tasks = _graph(("a", ["b"]), ("b", ["a"]))
    with pytest.raises(ConfigurationError, match="cycle"):
        check_acyclic(tasks)


def test_self_dependency_is_a_cycle():
    with pytest.raises(ConfigurationError, match="cycle"):
        check_acyclic(_graph(("a", ["a"])))


def test_unknown_dependency_is_rejected():
    with pytest.raises(ConfigurationError, match="unknown"):
        check_acyclic(_graph(("a", ["ghost"])))


def test_duplicate_keys_are_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        check_acyclic(_graph(("a", []), ("a", [])))


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def test_dependencies_complete_before_dependents():
    finished = []
    lock = threading.Lock()

    def execute(task, deps, worker):
        with lock:
            finished.append(task.key)
        return task.key

    tasks = _graph(
        ("t1", []), ("t2", ["t1"]), ("t3", ["t1"]), ("t4", ["t2", "t3"])
    )
    results = GraphScheduler(execute=execute, slots={"local": 4}).run(tasks)
    assert set(results) == {"t1", "t2", "t3", "t4"}
    assert finished.index("t1") < finished.index("t2")
    assert finished.index("t1") < finished.index("t3")
    assert finished.index("t4") == 3


def test_dependency_results_are_passed_to_dependents():
    def execute(task, deps, worker):
        if task.key == "sum":
            return sum(deps.values())
        return int(task.key)

    tasks = _graph(("1", []), ("2", []), ("sum", ["1", "2"]))
    results = GraphScheduler(execute=execute, slots={"local": 2}).run(tasks)
    assert results["sum"] == 3


def test_concurrency_never_exceeds_jobs():
    active = []
    peak = []
    lock = threading.Lock()

    def execute(task, deps, worker):
        with lock:
            active.append(task.key)
            peak.append(len(active))
        time.sleep(0.02)
        with lock:
            active.remove(task.key)
        return None

    tasks = _graph(*((f"t{i}", []) for i in range(12)))
    GraphScheduler(execute=execute, slots={"local": 3}).run(tasks)
    assert max(peak) <= 3


def test_independent_tasks_interleave():
    """With jobs>1, two independent chains overlap in wall time."""
    stamps = {}

    def execute(task, deps, worker):
        start = time.perf_counter()
        time.sleep(0.05)
        stamps[task.key] = (start, time.perf_counter())
        return None

    tasks = _graph(("a1", []), ("b1", []), ("a2", ["a1"]), ("b2", ["b1"]))
    GraphScheduler(execute=execute, slots={"local": 2}).run(tasks)
    a_start, a_end = stamps["a1"]
    b_start, b_end = stamps["b1"]
    assert a_start < b_end and b_start < a_end, "chains did not overlap"


def test_local_tasks_run_on_the_coordinator_thread():
    main_thread = threading.get_ident()
    seen = {}

    def execute(task, deps, worker):
        seen[task.key] = threading.get_ident()
        return None

    tasks = [
        Task(key="pool", payload=None),
        Task(key="merge", payload=None, deps=("pool",), local=True),
    ]
    GraphScheduler(execute=execute, slots={"local": 2}).run(tasks)
    assert seen["merge"] == main_thread
    assert seen["pool"] != main_thread


# ----------------------------------------------------------------------
# Failure semantics
# ----------------------------------------------------------------------


def test_failure_propagates_and_cancels_descendants():
    ran = []

    def execute(task, deps, worker):
        ran.append(task.key)
        if task.key == "boom":
            raise ValueError("shard exploded")
        return None

    tasks = _graph(("boom", []), ("after", ["boom"]))
    with pytest.raises(TaskExecutionError, match="shard exploded") as info:
        GraphScheduler(execute=execute, slots={"local": 2}).run(tasks)
    assert "after" not in ran, "dependent of a failed task must not start"
    # The wrapper names the failing task and chains the original error.
    assert info.value.key == "boom"
    assert info.value.label == "boom"
    assert isinstance(info.value.__cause__, ValueError)


def test_failure_cancels_unstarted_independent_tasks():
    ran = []
    lock = threading.Lock()

    def execute(task, deps, worker):
        with lock:
            ran.append(task.key)
        if task.key == "boom":
            raise RuntimeError("early failure")
        time.sleep(0.01)
        return None

    # jobs=1 serializes: boom runs first, the rest must be skipped.
    tasks = _graph(("boom", []), *((f"t{i}", []) for i in range(8)))
    with pytest.raises(RuntimeError, match="early failure"):
        GraphScheduler(execute=execute, slots={"local": 1}).run(tasks)
    assert ran == ["boom"]


def test_profile_records_every_task():
    def execute(task, deps, worker):
        time.sleep(0.01)
        return None

    scheduler = GraphScheduler(execute=execute, slots={"local": 2})
    with _collected_run() as run:
        scheduler.run(_graph(("a", []), ("b", ["a"]), ("c", ["a"])))
    assert {event.key for event in run.task_events} == {"a", "b", "c"}
    assert run.wall_seconds > 0
    assert run.busy_seconds >= 0.03
    assert 0.0 < run.utilization <= 1.0


def test_failed_task_still_recorded_in_profile():
    """A failed task's busy time must not vanish from the profile, or
    utilization misreports what the slots actually did."""

    def execute(task, deps, worker):
        time.sleep(0.01)
        if task.key == "boom":
            raise RuntimeError("kaboom")
        return None

    scheduler = GraphScheduler(execute=execute, slots={"local": 1})
    with _collected_run() as run, pytest.raises(TaskExecutionError, match="kaboom"):
        scheduler.run(_graph(("ok", []), ("boom", [])))
    events = {event.key: event for event in run.task_events}
    assert set(events) == {"ok", "boom"}
    assert isinstance(events["boom"], TaskFailed)
    assert isinstance(events["ok"], TaskFinished)
    assert events["boom"].seconds > 0
    assert run.busy_seconds >= events["ok"].seconds + events["boom"].seconds
    assert run.wall_seconds > 0, "a failed run keeps its wall time"


# ----------------------------------------------------------------------
# Worker slots (the remote executor's contract)
# ----------------------------------------------------------------------


def test_slots_bound_concurrency_per_worker():
    active = {"w1": 0, "w2": 0}
    peak = {"w1": 0, "w2": 0}
    lock = threading.Lock()

    def execute(task, deps, worker):
        with lock:
            active[worker] += 1
            peak[worker] = max(peak[worker], active[worker])
        time.sleep(0.02)
        with lock:
            active[worker] -= 1
        return worker

    tasks = _graph(*((f"t{i}", []) for i in range(10)))
    scheduler = GraphScheduler(execute=execute, slots={"w1": 2, "w2": 1})
    with _collected_run() as run:
        results = scheduler.run(tasks)
    assert run.jobs == 3
    assert peak["w1"] <= 2 and peak["w2"] <= 1
    assert set(results.values()) == {"w1", "w2"}, "both workers must be used"


def test_profile_attributes_tasks_to_workers():
    def execute(task, deps, worker):
        time.sleep(0.01)
        return worker

    scheduler = GraphScheduler(execute=execute, slots={"w1": 1, "w2": 1})
    with _collected_run() as run:
        scheduler.run(_graph(*((f"t{i}", []) for i in range(4))))
    assert run.slots == {"w1": 1, "w2": 1}
    assert {event.worker for event in run.task_events} == {"w1", "w2"}
    busy = run.worker_busy()
    assert busy["w1"] > 0 and busy["w2"] > 0
    utilization = run.worker_utilization()
    assert 0.0 < utilization["w1"] <= 1.0
    assert 0.0 < utilization["w2"] <= 1.0


def test_worker_lost_retries_on_a_survivor():
    """A lost worker is retired and its task retried elsewhere — the
    run succeeds, and the failed attempt stays in the profile."""
    attempts = []
    lock = threading.Lock()

    def execute(task, deps, worker):
        with lock:
            attempts.append((task.key, worker))
        if worker == "flaky":
            raise WorkerLostError("flaky", "connection reset")
        return worker

    tasks = _graph(*((f"t{i}", []) for i in range(4)))
    scheduler = GraphScheduler(execute=execute, slots={"flaky": 1, "solid": 1})
    with _collected_run() as run:
        results = scheduler.run(tasks)
    assert all(value == "solid" for value in results.values())
    lost = [event for event in run.task_events if isinstance(event, TaskFailed)]
    assert lost, "the lost attempt must be recorded"
    assert all(event.worker == "flaky" for event in lost)
    # After the loss, nothing else was sent to the dead worker.
    flaky_attempts = [key for key, worker in attempts if worker == "flaky"]
    assert len(flaky_attempts) == 1


def test_all_workers_lost_fails_with_task_identity():
    def execute(task, deps, worker):
        raise WorkerLostError(worker, "host unreachable")

    tasks = _graph(("only", []))
    scheduler = GraphScheduler(execute=execute, slots={"w1": 1, "w2": 1})
    with pytest.raises(TaskExecutionError, match="no live workers") as info:
        scheduler.run(tasks)
    assert info.value.key == "only"


def test_invalid_slots_rejected():
    with pytest.raises(ConfigurationError, match="slots"):
        GraphScheduler(execute=lambda task, deps, worker: None, slots={})
    with pytest.raises(ConfigurationError, match="slots"):
        GraphScheduler(execute=lambda task, deps, worker: None, slots={"w": 0})


# ----------------------------------------------------------------------
# Elastic slot control (the service control plane's mid-run hooks)
# ----------------------------------------------------------------------


def test_elastic_control_is_noop_without_a_live_run():
    scheduler = GraphScheduler(execute=lambda task, deps, worker: None, slots={"a": 1})
    assert scheduler.add_worker("b", 2) is False
    assert scheduler.drain_worker("a") is False
    assert scheduler.retire_worker("a") is False


def test_drain_mid_run_finishes_inflight_then_stops_leasing():
    """Draining a worker with a task in flight: that task completes and
    its result stands, but the worker is never leased again."""
    started_on_a = threading.Event()
    drain_applied = threading.Event()
    record = []
    lock = threading.Lock()

    def execute(task, deps, worker):
        with lock:
            record.append((task.key, worker))
        if worker == "a":
            started_on_a.set()
            # Hold the in-flight task until the drain has applied, so
            # "completes despite the drain" is what we actually test.
            assert drain_applied.wait(timeout=10.0)
        time.sleep(0.01)
        return worker

    scheduler = GraphScheduler(execute=execute, slots={"a": 1, "b": 1})

    def control():
        assert started_on_a.wait(timeout=10.0)
        assert scheduler.drain_worker("a") is True
        drain_applied.set()

    controller = threading.Thread(target=control)
    controller.start()
    results = scheduler.run(_graph(*((f"t{i}", []) for i in range(6))))
    controller.join(timeout=10.0)
    on_a = [key for key, worker in record if worker == "a"]
    assert len(on_a) == 1, "a drained worker must get no new tasks"
    assert results[on_a[0]] == "a", "the in-flight task's result stands"
    rest = {key: value for key, value in results.items() if key != on_a[0]}
    assert rest and all(value == "b" for value in rest.values())


def test_worker_added_mid_run_takes_load():
    gate = threading.Event()
    first_started = threading.Event()
    lock = threading.Lock()
    seen = []

    def execute(task, deps, worker):
        with lock:
            seen.append(worker)
        first_started.set()
        assert gate.wait(timeout=10.0)
        time.sleep(0.01)
        return worker

    scheduler = GraphScheduler(execute=execute, slots={"a": 1})

    def control():
        assert first_started.wait(timeout=10.0)
        assert scheduler.add_worker("b", 2) is True
        gate.set()

    controller = threading.Thread(target=control)
    controller.start()
    with _collected_run() as run:
        results = scheduler.run(_graph(*((f"t{i}", []) for i in range(8))))
    controller.join(timeout=10.0)
    assert set(results.values()) == {"a", "b"}, "the new worker must be leased"
    assert run.slots == {"a": 1, "b": 2}
    assert run.jobs == 3
