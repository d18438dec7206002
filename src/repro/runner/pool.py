"""Process pools: run work units on local processes.

Two owners open the same pool: :class:`ProcessExecutor`, the
coordinator's process backend (``Session(jobs=N)``, ``repro run
--jobs N``), and a ``repro worker --jobs N`` with more than one slot
(:class:`~repro.runner.remote.WorkerServer`), whose N slots are N
members.

Pool members share the owner's disk cache directory (writes are atomic
rename, so concurrent writers are safe); each keeps its own memory
tier.  Under the default ``fork`` start method members inherit the
owner's configured cache; the initializer re-applies the configuration
so ``spawn`` platforms behave the same.  A member ignores SIGINT, since
a Ctrl-C reaches the whole foreground process group and the owner
decides what an interrupt means, and it exits as soon as its owner
process is gone, however the owner died.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
from concurrent.futures import ProcessPoolExecutor
from multiprocessing.connection import wait
from typing import Any

from repro.events.model import Event
from repro.runner.async_graph import _execute_shipping
from repro.runner.cache import configure_cache, get_cache


def _init_worker(disk_dir: str | None, memory: bool) -> None:
    """Set up a pool member: ignore Ctrl-C, exit with the owner, and
    match the owner's cache configuration."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with, args=(parent.sentinel,), daemon=True
        ).start()
    current = get_cache()
    current_dir = str(current.disk_dir) if current.disk_dir else None
    if current_dir != disk_dir or current.memory_enabled != memory:
        configure_cache(memory=memory, disk_dir=disk_dir)


def _exit_with(parent_sentinel: int) -> None:
    """Block until the owner process is gone, then end this member at
    once (a SIGKILLed owner runs no shutdown that could stop it)."""
    wait([parent_sentinel])
    os._exit(1)


def open_pool(jobs: int) -> ProcessPoolExecutor:
    """A ``jobs``-member pool configured from the active cache."""
    cache = get_cache()
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_init_worker,
        initargs=(
            str(cache.disk_dir) if cache.disk_dir else None,
            cache.memory_enabled,
        ),
    )


def run_in_pool(
    pool: ProcessPoolExecutor, payload: tuple, spill: bool
) -> tuple[Any, str | None, float, list[Event]]:
    """Run one payload on a member: ``(value, spill token, compute
    seconds, events)`` as :func:`~repro.runner.async_graph.
    _execute_shipping` returns them, the token not yet redeemed.
    Raises ``BrokenProcessPool`` when a member died."""
    return pool.submit(_execute_shipping, payload, spill).result()


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

    def __init__(self, jobs: int = 1) -> None:
        self.slots = {"local": max(1, jobs)}
        self._pool: ProcessPoolExecutor | None = None

    @property
    def is_open(self) -> bool:
        return self._pool is not None

    def open(self) -> None:
        self._pool = open_pool(self.slots["local"])

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def run(self, worker: str, payload: tuple) -> tuple[Any, float, list[Event]]:
        assert self._pool is not None, "open() the executor first"
        value, token, seconds, events = run_in_pool(self._pool, payload, True)
        if token is not None:
            value = get_cache().take_spill(token)
        return value, seconds, events
