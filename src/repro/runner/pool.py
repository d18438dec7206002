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

from repro.runner.async_graph import _execute_payload_with_stats
from repro.runner.cache import configure_cache, get_cache


def _init_worker(disk_dir: str | None, memory: bool) -> None:
    """Match a pool member's cache configuration to the coordinator's."""
    current = get_cache()
    current_dir = str(current.disk_dir) if current.disk_dir else None
    if current_dir != disk_dir or current.memory_enabled != memory:
        configure_cache(memory=memory, disk_dir=disk_dir)


def _execute_payload_shipping(payload: tuple) -> tuple[Any, str | None, float, dict]:
    """As :func:`~repro.runner.async_graph._execute_payload_with_stats`,
    but a result above the cache's spill threshold is written to the
    shared disk tier and returned as ``(None, token, ...)`` — a pool
    member shares the coordinator's disk dir (see :func:`_init_worker`),
    so large arrays travel as a file name instead of being pickled
    through the pool's result pipe."""
    value, seconds, delta = _execute_payload_with_stats(payload)
    try:
        token = get_cache().maybe_spill(value)
    except Exception:
        token = None
    if token is not None:
        return None, token, seconds, delta
    return value, None, seconds, delta


class ProcessExecutor:
    """Runs work units on ``jobs`` local worker processes.

    The pool is configured from the cache active when it opens (the
    runner's, during a run), and its members' cache traffic comes home
    with each result as a stats delta.
    """

    name = "process"
    shares_memory = False

    def __init__(self, jobs: int = 1) -> None:
        self.slots = {"local": max(1, jobs)}
        self.connects: dict[str, int] = {}
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

    def run(self, worker: str, payload: tuple) -> tuple[Any, float, dict]:
        assert self._pool is not None, "open() the executor first"
        value, token, seconds, delta = self._pool.submit(
            _execute_payload_shipping, payload
        ).result()
        if token is not None:
            value = get_cache().take_spill(token)
        return value, seconds, delta
