"""Process-pool executor: run a graph's work units on local processes.

Pool members share the coordinator's disk cache directory (writes are
atomic rename, so concurrent writers are safe); each keeps its own
memory tier.  Under the default ``fork`` start method members inherit
the coordinator's configured cache; the initializer re-applies the
configuration so ``spawn`` platforms behave the same.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.events.model import Event
from repro.runner.async_graph import _execute_shipping
from repro.runner.cache import configure_cache, get_cache


def _init_worker(disk_dir: str | None, memory: bool) -> None:
    """Match a pool member's cache configuration to the coordinator's."""
    current = get_cache()
    current_dir = str(current.disk_dir) if current.disk_dir else None
    if current_dir != disk_dir or current.memory_enabled != memory:
        configure_cache(memory=memory, disk_dir=disk_dir)


class ProcessExecutor:
    """Runs work units on ``jobs`` local worker processes.

    The pool is configured from the cache active when it opens (the
    runner's, during a run).  A member shares the coordinator's disk dir
    (see :func:`_init_worker`), so a large result travels as a spill
    token instead of being pickled through the result pipe.  Each task
    runs inside an event capture and its events come home in the result
    tuple: a forked member inherits the coordinator's dispatcher, and
    must never write to the trail file it also inherited.
    """

    name = "process"
    shares_memory = False

    def __init__(self, jobs: int = 1) -> None:
        self.slots = {"local": max(1, jobs)}
        self._pool: ProcessPoolExecutor | None = None

    @property
    def is_open(self) -> bool:
        return self._pool is not None

    def open(self) -> None:
        cache = get_cache()
        self._pool = ProcessPoolExecutor(
            max_workers=self.slots["local"],
            initializer=_init_worker,
            initargs=(
                str(cache.disk_dir) if cache.disk_dir else None,
                cache.memory_enabled,
            ),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(self, worker: str, payload: tuple) -> tuple[Any, float, list[Event]]:
        assert self._pool is not None, "open() the executor first"
        value, token, seconds, events = self._pool.submit(
            _execute_shipping, payload, True
        ).result()
        if token is not None:
            value = get_cache().take_spill(token)
        return value, seconds, events
