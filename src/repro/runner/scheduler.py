"""Bounded-concurrency asyncio scheduler for shard task graphs.

:class:`GraphScheduler` executes a DAG of :class:`Task` nodes through
one work queue: tasks become *ready* when every dependency has finished,
ready tasks start in deterministic submission order, and at most the
slot budget runs at once.  Because the union of several experiments'
graphs is just one bigger DAG, shards of different experiments
interleave freely — a long sweep no longer serializes the suite behind
it.  The graph runner builds shards-feed-one-merge graphs, but the
scheduler runs any DAG.

Execution is delegated to a caller-supplied ``execute`` callable (run
in a worker thread or handed to a process pool or remote worker by the
caller); merge and render stay in the coordinator, which is what
preserves the byte-identical-artifact invariant across runners.

Concurrency is expressed as named worker *slots*: the single-machine
executors use one ``{"local": jobs}`` pool, while a remote executor
passes one entry per worker (``{"host:port": capacity, ...}``).  The
scheduler leases a slot per executor task, records which worker ran
it, and — when an executor reports the worker itself died
(:class:`WorkerLostError`, as opposed to the task raising) — retires
the worker's slots and retries the task on a surviving worker.
``local`` tasks (merges) run on the event loop without leasing a slot:
coordinator-side work must not idle remote capacity.

The slot table is *elastic* while a run is live: other threads (the
service control plane) may call :meth:`GraphScheduler.add_worker` /
:meth:`~GraphScheduler.retire_worker` / :meth:`~GraphScheduler.drain_worker`
to admit a self-registered worker mid-run (or re-probe its capacity),
retire one that stopped heartbeating, or stop leasing to one without
killing its in-flight shards.  Mutations are marshalled onto the event
loop and applied under the slot condition, so the deterministic pick
rule sees a consistent table.

When tasks from more than one *client* share the graph (the service's
multi-client batches), ready-queue priority round-robins across
clients: each client's tasks keep their submission order, and the n-th
task of every client outranks everyone's (n+1)-th — one tenant's big
sweep cannot starve another's small run.  With a single client the
ranks reduce exactly to submission order.

The first task *failure* (the payload raising) cancels everything not
yet started, lets in-flight tasks drain, and re-raises in the caller as
a :class:`TaskExecutionError` naming the failing task (original
exception chained as ``__cause__``) — a mid-graph crash can neither
hang the scheduler nor silently drop sibling experiments.

The scheduler keeps no profile of its own.  It emits ``WorkerLeased``
for its slot table, ``TaskStarted`` and then ``TaskFinished`` or
``TaskFailed`` for every attempt (failed and retried ones included)
and ``WorkerRetired`` for lost workers; a
:class:`~repro.events.processors.ProfileAggregator` folds those into
the run's :class:`~repro.events.processors.SchedulerProfile`, which
``repro run --profile`` reports.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.events.dispatch import emit
from repro.events.model import (
    TaskFailed,
    TaskFinished,
    TaskStarted,
    WorkerLeased,
    WorkerRetired,
)


@dataclass(frozen=True)
class Task:
    """One node of the task graph.

    Attributes:
        key: Unique, hashable id within the graph.
        payload: Opaque work description passed to the executor.
        deps: Keys of tasks that must finish first.
        label: Human-readable name for profiles and error messages.
        local: Run in the coordinator (event loop) instead of the
            executor — for cheap, order-sensitive work such as merges.
        client: Submitting tenant for multi-client fairness; tasks of
            distinct clients round-robin at the ready queue.  Empty
            (the default everywhere outside the service) keeps plain
            submission order.
    """

    key: Any  # unique hashable id within the graph
    payload: Any
    deps: tuple[Any, ...] = ()
    label: str = ""
    local: bool = False
    client: str = ""


class TaskExecutionError(RuntimeError):
    """A task's payload raised; carries the failing task's identity.

    The original exception is chained as ``__cause__`` and its message
    embedded, so callers matching on the underlying error text keep
    working while the task key/label is no longer lost.
    """

    def __init__(self, key: Any, label: str, worker: str, cause: BaseException):
        where = f" on worker {worker!r}" if worker and worker != "local" else ""
        super().__init__(f"task {label or key!r} (key={key!r}){where} failed: {cause}")
        self.key = key
        self.label = label
        self.worker = worker


class WorkerLostError(RuntimeError):
    """The *worker* executing a task died (crash, connection loss) —
    distinct from the task's payload raising.  The scheduler retires the
    worker's slots and retries the task on a surviving worker."""

    def __init__(self, worker: str, message: str):
        super().__init__(f"worker {worker!r} lost: {message}")
        self.worker = worker


def check_acyclic(tasks: Sequence[Task]) -> list[Any]:
    """Validate the graph and return keys in a deterministic topological
    order (Kahn's algorithm, submission order as the tie-break).

    Raises :class:`ConfigurationError` on duplicate keys, dangling
    dependencies, or cycles.
    """
    order = [task.key for task in tasks]
    if len(set(order)) != len(order):
        raise ConfigurationError("task graph has duplicate task keys")
    by_key = {task.key: task for task in tasks}
    for task in tasks:
        for dep in task.deps:
            if dep not in by_key:
                raise ConfigurationError(
                    f"task {task.label or task.key!r} depends on unknown "
                    f"task {dep!r}"
                )
    indegree = {task.key: len(set(task.deps)) for task in tasks}
    dependents: dict[Any, list[Any]] = {task.key: [] for task in tasks}
    for task in tasks:
        for dep in set(task.deps):
            dependents[dep].append(task.key)
    ready = [key for key in order if indegree[key] == 0]
    sorted_keys: list[Any] = []
    while ready:
        key = ready.pop(0)
        sorted_keys.append(key)
        for dependent in dependents[key]:
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
    if len(sorted_keys) != len(tasks):
        cyclic = sorted(str(key) for key, degree in indegree.items() if degree > 0)
        raise ConfigurationError(
            f"task graph has a dependency cycle through: {', '.join(cyclic)}"
        )
    return sorted_keys


class GraphScheduler:
    """Executes a task DAG with bounded concurrency on an asyncio loop."""

    def __init__(
        self,
        jobs: int | None = None,
        execute: Callable[[Task, dict[Any, Any], str], Any] | None = None,
        slots: Mapping[str, int] | None = None,
    ) -> None:
        """``execute(task, deps, worker)`` runs a task's payload on the
        leased ``worker`` given its dependencies' results (keyed by task
        key).  It must be thread-safe: non-local tasks call it from
        worker threads via ``asyncio.to_thread`` (and it may itself hand
        off to a process pool or a remote worker); ``local`` tasks call
        it on the event loop thread with ``worker=""``.

        Concurrency comes from ``slots`` (worker name -> capacity) when
        given, else from ``jobs`` as a single ``{"local": jobs}`` pool.
        """
        if execute is None:
            raise ConfigurationError("GraphScheduler requires an execute callable")
        if slots is not None:
            if not slots or any(count < 1 for count in slots.values()):
                raise ConfigurationError(
                    "scheduler slots must name at least one worker with a "
                    f"positive capacity, got {dict(slots)!r}"
                )
            self.slots = dict(slots)
        else:
            self.slots = {"local": max(1, jobs if jobs is not None else 1)}
        self._execute = execute
        # Elastic-control publication point: while a run is live, other
        # threads submit slot-table mutations through these.
        self._control_lock = threading.Lock()
        self._loop: asyncio.AbstractEventLoop | None = None  # guarded-by: _control_lock
        self._control: (
            Callable[[str, str, int], Awaitable[None]] | None
        ) = None  # guarded-by: _control_lock

    # -- elastic slot control (thread-safe, service control plane) -------

    def add_worker(self, worker: str, capacity: int) -> bool:
        """Admit ``worker`` with ``capacity`` slots mid-run (or update
        its capacity after a re-probe).  A previously dead or drained
        worker of the same name comes back leasable with fresh slots.
        Returns False when no run is live (callers fold the worker into
        the next run's snapshot instead)."""
        return self._submit_control("add", worker, max(1, capacity))

    def retire_worker(self, worker: str) -> bool:
        """Stop leasing ``worker`` and treat it as dead (heartbeat
        timeout, deregistration).  In-flight tasks on it fail over via
        the normal :class:`WorkerLostError` path when their connection
        drops.  Returns False when no run is live."""
        return self._submit_control("retire", worker, 0)

    def drain_worker(self, worker: str) -> bool:
        """Stop leasing ``worker`` new tasks without killing in-flight
        shards; the worker still counts as live, so the run waits for
        its running tasks like any other.  Returns False when no run is
        live."""
        return self._submit_control("drain", worker, 0)

    def _submit_control(self, action: str, worker: str, capacity: int) -> bool:
        """Marshal one slot-table mutation onto the live run's event
        loop and wait for it to apply.  Mutations go through the run's
        ``control`` coroutine (under the slot condition), never by
        touching the table from this thread."""
        with self._control_lock:
            loop, control = self._loop, self._control
        if loop is None or control is None or not loop.is_running():
            return False
        try:
            future = asyncio.run_coroutine_threadsafe(
                control(action, worker, capacity), loop
            )
        except RuntimeError:  # loop closed between the check and the call
            return False
        future.result(timeout=30.0)
        return True

    def _task_ranks(self, tasks: Sequence[Task]) -> dict[Any, tuple[int, int]]:
        """Dispatch priority per task: lower tuples run first.

        The rank is ``(client ordinal, submission index)``.  The ordinal
        interleaves concurrent clients: each client's tasks are numbered
        0, 1, 2, … in submission order, so every client's n-th task
        outranks every client's (n+1)-th.  With one distinct client
        (the non-service case) every ordinal is 0 and the rank is plain
        submission order.
        """
        if len({task.client for task in tasks}) <= 1:
            return {task.key: (0, index) for index, task in enumerate(tasks)}
        counts: dict[str, int] = {}
        ranks: dict[Any, tuple[int, int]] = {}
        for index, task in enumerate(tasks):
            ordinal = counts.get(task.client, 0)
            counts[task.client] = ordinal + 1
            ranks[task.key] = (ordinal, index)
        return ranks

    def run(self, tasks: Sequence[Task]) -> dict[Any, Any]:
        """Execute the whole graph; returns ``{task key: result}``.

        Raises :class:`TaskExecutionError` (first failure, original
        exception chained) after cancelling all tasks that had not
        started.
        """
        check_acyclic(tasks)
        return asyncio.run(self._run_async(list(tasks)))

    async def _run_async(self, tasks: list[Task]) -> dict[Any, Any]:
        results: dict[Any, Any] = {}
        by_key = {task.key: task for task in tasks}
        indegree = {task.key: len(set(task.deps)) for task in tasks}
        dependents: dict[Any, list[Any]] = {task.key: [] for task in tasks}
        for task in tasks:
            for dep in set(task.deps):
                dependents[dep].append(task.key)

        # Slot pool: a task leases one slot of one live worker.  The
        # pick rule is deterministic — most free slots first, earlier
        # configuration order as the tie-break — so identical runs
        # spread identically.
        in_use = {worker: 0 for worker in self.slots}  # guarded-by: slot_free
        worker_order = {  # guarded-by: slot_free
            worker: index for index, worker in enumerate(self.slots)
        }
        dead: set[str] = set()  # guarded-by: slot_free
        drained: set[str] = set()  # guarded-by: slot_free
        slot_free = asyncio.Condition()
        failure: list[BaseException] = []
        cancelled = asyncio.Event()
        pending: set[asyncio.Task] = set()
        # Dispatch priority (see _task_ranks).  Enforced two ways: ready
        # tasks are spawned in rank order, and contended slots go to the
        # best-ranked waiter rather than the first arrival.
        ranks = self._task_ranks(tasks)
        waiting: set[tuple[int, int, int]] = set()  # guarded-by: slot_free
        ticket = itertools.count()
        started_wall = time.perf_counter()

        async def acquire_slot(task_rank: tuple[int, int]) -> str | None:
            """Lease a slot of a live worker; ``None`` once all workers
            are dead (the caller turns that into a task failure).

            Among waiters, the best (lowest) rank wins each freed slot:
            every waiter registers in ``waiting`` and only proceeds when
            it is the minimum, so rank order holds under contention,
            not just at spawn time.
            """
            entry = (*task_rank, next(ticket))
            async with slot_free:
                waiting.add(entry)
                try:
                    while True:
                        live = [w for w in self.slots if w not in dead]
                        if not live:
                            return None
                        free = [
                            w
                            for w in live
                            if w not in drained and in_use[w] < self.slots[w]
                        ]
                        if free and min(waiting) == entry:
                            chosen = max(
                                free,
                                key=lambda w: (
                                    self.slots[w] - in_use[w],
                                    -worker_order[w],
                                ),
                            )
                            in_use[chosen] += 1
                            return chosen
                        await slot_free.wait()
                finally:
                    waiting.discard(entry)
                    # Wake the next-best waiter: removing the minimum
                    # entry is itself a scheduling event.
                    slot_free.notify_all()

        async def release_slot(worker: str) -> None:
            async with slot_free:
                in_use[worker] -= 1
                slot_free.notify_all()

        async def retire_lost(worker: str) -> None:
            async with slot_free:
                already = worker in dead
                dead.add(worker)
                slot_free.notify_all()
            if not already:
                emit(WorkerRetired(worker=worker))

        async def control(action: str, worker: str, capacity: int) -> None:
            """Apply one externally submitted slot-table mutation (see
            add_worker / retire_worker / drain_worker)."""
            async with slot_free:
                if action == "add":
                    changed = (
                        self.slots.get(worker) != capacity or worker in dead
                    )
                    self.slots[worker] = capacity
                    in_use.setdefault(worker, 0)
                    worker_order.setdefault(worker, len(worker_order))
                    dead.discard(worker)
                    drained.discard(worker)
                elif action == "retire":
                    changed = worker in self.slots and worker not in dead
                    dead.add(worker)
                else:  # drain
                    changed = False
                    drained.add(worker)
                slot_free.notify_all()
            if changed and action == "add":
                emit(WorkerLeased(worker=worker, capacity=capacity))
            elif changed and action == "retire":
                emit(WorkerRetired(worker=worker))

        def record(
            task: Task,
            worker: str,
            started: float,
            failed: bool,
            retrying: bool = False,
        ) -> None:
            # Always on the event loop thread, so task events reach the
            # dispatcher in the order the attempts ended.
            seconds = time.perf_counter() - started
            label = task.label or str(task.key)
            offset = started - started_wall
            if failed:
                emit(
                    TaskFailed(
                        key=task.key,
                        label=label,
                        worker=worker,
                        local=task.local,
                        started=offset,
                        seconds=seconds,
                        retrying=retrying,
                    )
                )
            else:
                emit(
                    TaskFinished(
                        key=task.key,
                        label=label,
                        worker=worker,
                        local=task.local,
                        started=offset,
                        seconds=seconds,
                    )
                )

        def fail(task: Task, worker: str, error: BaseException) -> None:
            if not failure:
                wrapped = TaskExecutionError(
                    key=task.key,
                    label=task.label or str(task.key),
                    worker=worker,
                    cause=error,
                )
                wrapped.__cause__ = error
                failure.append(wrapped)
            cancelled.set()

        def run_local(task: Task) -> None:
            """Local tasks (merges) execute on the event loop and never
            occupy an executor slot — holding a remote worker's slot
            during coordinator-side work would idle real capacity."""
            deps = {dep: results[dep] for dep in task.deps}
            started = time.perf_counter()
            emit(
                TaskStarted(
                    key=task.key,
                    label=task.label or str(task.key),
                    worker="",
                    local=True,
                    started=started - started_wall,
                )
            )
            try:
                result = self._execute(task, deps, "")
            except BaseException as error:  # re-raised
                record(task, "", started, failed=True)
                fail(task, "", error)
                return
            record(task, "", started, failed=False)
            results[task.key] = result
            schedule_dependents(task.key)

        async def run_task(task: Task) -> None:
            if task.local:
                if not cancelled.is_set():
                    run_local(task)
                return
            while True:
                worker = await acquire_slot(ranks[task.key])
                if worker is None:
                    # Safe lock-free read: mutations happen only on this
                    # event-loop thread, with no await between here and
                    # acquire_slot observing every worker dead.
                    lost = sorted(dead)  # repro-lint: disable=lock-discipline
                    fail(
                        task,
                        "",
                        WorkerLostError(
                            "*", f"no live workers remain (lost: {lost})"
                        ),
                    )
                    return
                if cancelled.is_set():
                    await release_slot(worker)
                    return
                deps = {dep: results[dep] for dep in task.deps}
                started = time.perf_counter()
                emit(
                    TaskStarted(
                        key=task.key,
                        label=task.label or str(task.key),
                        worker=worker,
                        local=False,
                        started=started - started_wall,
                    )
                )
                try:
                    result = await asyncio.to_thread(self._execute, task, deps, worker)
                except WorkerLostError as error:
                    # The worker died, not the task: retire the worker
                    # and retry on a survivor (the attempt is still
                    # reported as failed — its slot time was real).
                    record(task, worker, started, failed=True, retrying=True)
                    await retire_lost(error.worker or worker)
                    await release_slot(worker)
                    if cancelled.is_set():
                        return
                    continue
                except BaseException as error:  # re-raised
                    record(task, worker, started, failed=True)
                    await release_slot(worker)
                    fail(task, worker, error)
                    return
                record(task, worker, started, failed=False)
                results[task.key] = result
                # Dependents spawn *before* the slot frees: a newly
                # unblocked task that outranks the queued waiters must
                # be in the waiting set when the freed slot is handed
                # out, or a lower-rank waiter would win it by arrival
                # order.
                schedule_dependents(task.key)
                await release_slot(worker)
                return

        def spawn(key: Any) -> None:
            aio_task = asyncio.ensure_future(run_task(by_key[key]))
            pending.add(aio_task)
            aio_task.add_done_callback(pending.discard)

        def schedule_dependents(done_key: Any) -> None:
            if cancelled.is_set():
                return
            ready = []
            for dependent in dependents[done_key]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
            for dependent in sorted(ready, key=lambda key: ranks[key]):
                spawn(dependent)

        # Publish the control channel: from here until the run drains,
        # other threads can mutate the slot table through `control`.
        with self._control_lock:
            self._loop = asyncio.get_running_loop()
            self._control = control
        try:
            for worker, capacity in self.slots.items():
                emit(WorkerLeased(worker=worker, capacity=capacity))
            initially_ready = [
                task.key for task in tasks if indegree[task.key] == 0
            ]
            for key in sorted(initially_ready, key=lambda key: ranks[key]):
                spawn(key)

            while pending:
                await asyncio.wait(
                    set(pending), return_when=asyncio.FIRST_COMPLETED
                )
        finally:
            with self._control_lock:
                self._loop = None
                self._control = None
        if failure:
            raise failure[0]
        missing = [task.key for task in tasks if task.key not in results]
        if missing:  # unreachable unless the graph mutated mid-run
            raise RuntimeError(f"scheduler dropped task(s): {missing!r}")
        return results
