"""Shard-graph execution: one scheduler interleaving every experiment.

:class:`AsyncShardRunner` decomposes each :class:`RunRequest` into a
shard-level task graph — its shards feeding one coordinator-side merge,
or a single task for a plain experiment — and executes the *union* of
all requested experiments' graphs through one
:class:`~repro.runner.scheduler.GraphScheduler`.  Shards of different
experiments interleave, and the executor's slots bound total
concurrency.  A shard gets the traces and ADMs it shares with other
shards through the content-keyed artifact cache
(:mod:`repro.runner.common`): whichever shard asks first computes and
stores an artifact, and the rest read it.

Where work units run is the runner's one :class:`Executor`:

* :class:`ThreadExecutor` — work units run on worker threads.  Python's
  GIL serializes pure-Python compute, but cache I/O and NumPy kernels
  overlap, and there is no pickling or process-spawn cost.
* :class:`~repro.runner.pool.ProcessExecutor` — work units are
  forwarded to a local process pool for real multi-core scaling; the
  members share the coordinator's disk tier, so an artifact one member
  stored the others load instead of recomputing.
* :class:`~repro.runner.remote.RemoteExecutor` — work units are
  serialized (via :mod:`repro.core.serialization`) and shipped to
  ``repro worker`` processes, possibly on other hosts; the scheduler
  leases per-worker slots, and a worker crash mid-shard retries the
  shard on a survivor.  Workers share artifacts through a common disk
  cache dir (see
  :meth:`~repro.runner.cache.ArtifactCache.write_sync_beacon`).

Pool members and remote workers capture each task's events
(:func:`~repro.events.dispatch.capture_events`) and send them home with
its result; the runner re-emits them, so a run's one event stream
covers every executor.  That stream is the run's only record: the
runner keeps no profile, and it emits ``RunFinished`` even when the
run fails.  Callers that run it outside a
:class:`~repro.api.Session` fold the stream with
:func:`repro.events.collect_events`.

Merging and rendering always happen in the coordinator, in shard
declaration order, which keeps the output byte-identical to
:class:`~repro.runner.serial.SerialRunner` no matter which executor ran
the work or how the scheduler interleaved it.
"""

from __future__ import annotations

import os
import time
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Protocol, Sequence

from repro.events.dispatch import capture_events, emit
from repro.events.model import Event, RunFinished, RunStarted
from repro.runner.base import (
    BaseRunner,
    RunOutcome,
    RunRequest,
    RunnerCapabilities,
)
from repro.runner.cache import get_cache, set_cache
from repro.runner.registry import Experiment, get_experiment, load_all
from repro.runner.scheduler import GraphScheduler, Task, check_acyclic


@dataclass(frozen=True)
class GraphSummary:
    """Shape of one request's task graph (for ``--dry-run``)."""

    name: str
    shards: int
    tasks: int


def _execute_payload(payload: tuple) -> tuple[Any, float]:
    """Run one work unit; returns ``(value, compute seconds)``.

    Every executor ends here: on a coordinator thread, a pool member,
    or a ``repro worker``.  ``payload`` is
    ``(op, experiment name, params, extra)`` with op ``"plain"`` (extra
    unused) or ``"shard"`` (extra is the shard dict).
    """
    op, name, params, extra = payload
    load_all()
    exp = get_experiment(name)
    started = time.perf_counter()
    if op == "plain":
        value = exp.execute(params)
    elif op == "shard":
        value = exp.execute_shard(params, extra)
    else:  # pragma: no cover - defends against graph-builder bugs
        raise ValueError(f"unknown task op {op!r}")
    return value, time.perf_counter() - started


def _execute_shipping(
    payload: tuple, spill: bool
) -> tuple[Any, str | None, float, list[Event]]:
    """Run one work unit in a worker process, capturing its events.

    Returns ``(value, spill token, compute seconds, events)``.  With
    ``spill`` set, a value above the cache's spill threshold is written
    to the shared disk tier and travels home as a token (the value is
    then ``None``); any spill hiccup (full disk, no disk tier) keeps it
    inline.  The spill write is inside the capture, so its ``CachePut``
    comes home too.
    """
    token = None
    with capture_events() as events:
        value, seconds = _execute_payload(payload)
        if spill:
            with suppress(Exception):
                token = get_cache().maybe_spill(value)
    if token is not None:
        value = None
    return value, token, seconds, events


class Executor(Protocol):
    """Where a graph run's work units execute.

    ``slots`` maps worker name to capacity while the executor is open;
    :meth:`run` executes one payload on one of those workers and returns
    ``(value, compute seconds, events)``, the events being the ones the
    payload emitted in another process, which the runner re-emits
    (``[]`` when the work ran in the coordinator's, where they reached
    its dispatcher directly).
    """

    name: str
    slots: dict[str, int]

    @property
    def is_open(self) -> bool: ...

    def open(self) -> None: ...

    def close(self) -> None: ...

    def run(self, worker: str, payload: tuple) -> tuple[Any, float, list[Event]]: ...


class ThreadExecutor:
    """Runs work units on the coordinator's threads against its own
    cache.  Nothing to start or stop, so it is always open."""

    name = "thread"
    is_open = True

    def __init__(self, jobs: int = 1) -> None:
        self.slots = {"local": max(1, jobs)}

    def open(self) -> None:
        pass

    def close(self) -> None:
        pass

    def run(self, worker: str, payload: tuple) -> tuple[Any, float, list[Event]]:
        value, seconds = _execute_payload(payload)
        return value, seconds, []


class AsyncShardRunner(BaseRunner):
    """Runs experiments as one interleaved shard-level task graph."""

    def __init__(
        self,
        jobs: int | None = None,
        cache=None,
        executor: Executor | None = None,
        on_scheduler: Any = None,
    ) -> None:
        """``jobs`` is the concurrency bound the run reports (default:
        the CPU count) and sizes the default :class:`ThreadExecutor`.
        ``executor`` (see :func:`repro.runner.build_runner`) is opened
        for each run with live tasks and closed after it — unless it is
        already open, in which case the caller owns it: the service
        control plane lends its long-lived remote executor this way.
        ``on_scheduler`` (optional callable) receives each run's live
        :class:`GraphScheduler` just before dispatch, which is how the
        control plane attaches elastic slot-table control.
        """
        super().__init__(cache)
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.executor: Executor = (
            executor if executor is not None else ThreadExecutor(self.jobs)
        )
        self.on_scheduler = on_scheduler

    @property
    def capabilities(self) -> RunnerCapabilities:
        return RunnerCapabilities(name=f"async-graph[{self.executor.name}]")

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------

    def build_graph(
        self, requests: Sequence[RunRequest | str]
    ) -> tuple[list[Task], list[GraphSummary]]:
        """The union task graph for ``requests`` (validated acyclic).

        Pure planning — nothing is executed and the cache is never
        consulted, so ``repro run --all --dry-run`` can call this to
        prove every registered experiment decomposes cleanly.  A sharded
        request contributes its shards and one merge that depends on
        all of them; a plain request contributes one task.
        """
        tasks: list[Task] = []
        summaries: list[GraphSummary] = []
        for index, request in enumerate(self._coerce(requests)):
            exp = get_experiment(request.experiment)
            before = len(tasks)
            shards = self._request_tasks(tasks, index, exp, request)
            summaries.append(
                GraphSummary(name=exp.name, shards=shards, tasks=len(tasks) - before)
            )
        check_acyclic(tasks)
        return tasks, summaries

    @staticmethod
    def _request_tasks(
        tasks: list[Task], index: int, exp: Experiment, request: RunRequest
    ) -> int:
        """Append one request's tasks; returns its shard count."""
        params = request.params
        if not exp.shardable:
            tasks.append(
                Task(
                    key=(index, "run"),
                    payload=("plain", exp.name, params, None),
                    label=f"{exp.name}/run",
                    client=request.client,
                )
            )
            return 0

        shards = exp.shard_params(params)
        shard_keys = []
        for shard_index, shard in enumerate(shards):
            key = (index, "shard", shard_index)
            tasks.append(
                Task(
                    key=key,
                    payload=("shard", exp.name, params, shard),
                    label=f"{exp.name}/shard{shard_index}",
                    client=request.client,
                )
            )
            shard_keys.append(key)
        tasks.append(
            Task(
                key=(index, "merge"),
                payload=("merge", exp.name, params, shards),
                deps=tuple(shard_keys),
                label=f"{exp.name}/merge",
                local=True,
                client=request.client,
            )
        )
        return len(shards)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, requests: Sequence[RunRequest | str]) -> list[RunOutcome]:
        previous = get_cache()
        set_cache(self.cache)
        try:
            return self._run_all(requests)
        finally:
            set_cache(previous)

    def _run_all(self, requests: Sequence[RunRequest | str]) -> list[RunOutcome]:
        coerced = self._coerce(requests)
        emit(
            RunStarted(
                experiments=tuple(request.experiment for request in coerced),
                runner=self.capabilities.name,
                jobs=self.jobs,
            )
        )
        started = time.perf_counter()
        try:
            return self._run_requests(coerced)
        finally:
            emit(RunFinished(wall_seconds=time.perf_counter() - started))

    def _run_requests(self, coerced: list[RunRequest]) -> list[RunOutcome]:
        outcomes: list[RunOutcome | None] = [None] * len(coerced)
        live: list[tuple[int, RunRequest, Experiment]] = []
        for index, request in enumerate(coerced):
            exp = get_experiment(request.experiment)
            cached = self._cached_outcome(exp, request)
            if cached is not None:
                outcomes[index] = cached
            else:
                live.append((index, request, exp))

        if live:
            tasks, _ = self.build_graph([request for _, request, _ in live])
            # build_graph keys tasks by position within `live`; map back
            # to the original request index for outcome placement.
            results = self._dispatch(tasks)
            for position, (index, request, exp) in enumerate(live):
                outcomes[index] = self._collect(exp, request, position, results)
        return [outcome for outcome in outcomes if outcome is not None]

    def _dispatch(self, tasks: list[Task]) -> dict:
        """Execute the graph on this runner's executor; returns the
        scheduler results."""
        executor = self.executor
        owned = not executor.is_open
        if owned:
            executor.open()
        try:
            scheduler = GraphScheduler(
                slots=dict(executor.slots),
                execute=self._execute_task,
            )
            if self.on_scheduler is not None:
                self.on_scheduler(scheduler)
            try:
                return scheduler.run(tasks)
            finally:
                if self.on_scheduler is not None:
                    self.on_scheduler(None)
        finally:
            if owned:
                executor.close()

    def _execute_task(self, task: Task, deps: dict, worker: str) -> tuple[Any, float]:
        """Scheduler callback: run one task's payload.

        Called on a worker thread for shard and plain tasks, which
        the executor runs on ``worker``, and on the event loop for merge
        tasks (``local=True``) — merges never leave the coordinator,
        which preserves byte-identical rendering.
        """
        if task.payload[0] == "merge":
            _, name, params, shards = task.payload
            exp = get_experiment(name)
            assert exp.merge is not None
            # A merge's deps are exactly its shard keys, (position,
            # "shard", index); sorting restores declaration order.
            ordered = sorted(deps)
            parts = [deps[key][0] for key in ordered]
            started = time.perf_counter()
            value = exp.merge(params, shards, parts)
            # Merge outcomes carry the *compute* seconds of their
            # shards, as if they had run one after another.
            shard_seconds = sum(deps[key][1] for key in ordered)
            return value, shard_seconds + time.perf_counter() - started
        value, seconds, events = self.executor.run(worker, task.payload)
        for event in events:
            emit(event)
        return value, seconds

    def _collect(
        self,
        exp: Experiment,
        request: RunRequest,
        position: int,
        results: dict,
    ) -> RunOutcome:
        """Turn one request's scheduler results into a RunOutcome."""
        if exp.shardable:
            value, seconds = results[(position, "merge")]
            shards = len(exp.shard_params(request.params))
        else:
            value, seconds = results[(position, "run")]
            shards = 1
        return self._finish(exp, request, value, seconds=seconds, shards=shards)
