"""In-process, one-at-a-time experiment execution."""

from __future__ import annotations

import time
from typing import Sequence

from repro.events.dispatch import emit
from repro.events.model import (
    RunFinished,
    RunStarted,
    TaskFailed,
    TaskFinished,
    TaskStarted,
    WorkerLeased,
)
from repro.runner.base import BaseRunner, RunOutcome, RunRequest, RunnerCapabilities
from repro.runner.cache import get_cache, set_cache
from repro.runner.registry import get_experiment


class SerialRunner(BaseRunner):
    """Runs experiments sequentially in the current process.

    The reference runner: shards of a sharded experiment execute in
    declaration order, which is the order every other runner must
    reproduce when merging.

    Serial runs emit through the same event pipeline as the graph
    runners — one ``{name}/run`` task per non-replayed request on a
    single-slot ``local`` worker, ``TaskFailed`` when it raises, and
    ``RunFinished`` whether or not the run succeeds — so ``--profile``
    and persisted trails have the same shape on every backend.
    """

    @property
    def capabilities(self) -> RunnerCapabilities:
        return RunnerCapabilities(name="serial")

    def run(self, requests: Sequence[RunRequest | str]) -> list[RunOutcome]:
        # Install this runner's cache for the duration so the trace/ADM
        # tiers the experiment internals reach globally agree with the
        # result tier (no-op when the runner uses the global cache).
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
                jobs=1,
            )
        )
        emit(WorkerLeased(worker="local", capacity=1))
        wall_started = time.perf_counter()
        outcomes = []
        try:
            for index, request in enumerate(coerced):
                exp = get_experiment(request.experiment)
                cached = self._cached_outcome(exp, request)
                if cached is not None:
                    # A result-tier replay runs nothing; its cache
                    # traffic was already emitted by the cache itself.
                    outcomes.append(cached)
                    continue
                started = time.perf_counter()
                task = TaskStarted(
                    key=(index, "run"),
                    label=f"{exp.name}/run",
                    worker="local",
                    local=False,
                    started=started - wall_started,
                )
                emit(task)
                try:
                    value = exp.execute(request.params)
                except BaseException:
                    seconds = time.perf_counter() - started
                    emit(TaskFailed(**vars(task), seconds=seconds))
                    raise
                seconds = time.perf_counter() - started
                emit(TaskFinished(**vars(task), seconds=seconds))
                outcomes.append(
                    self._finish(
                        exp,
                        request,
                        value,
                        seconds=seconds,
                        shards=(
                            len(exp.shard_params(request.params))
                            if exp.shardable
                            else 1
                        ),
                    )
                )
        finally:
            emit(RunFinished(wall_seconds=time.perf_counter() - wall_started))
        return outcomes
