"""The one funnel every telemetry producer emits through.

A :class:`EventDispatcher` assigns each event a process-wide-unique
sequence number and fans it out to its processors under one lock, so
every processor observes the same total order — that shared order is
what makes a JSONL trail replay into aggregates *equal* to the live
run's (float sums are order-sensitive).

Producers never hold a dispatcher reference: they call :func:`emit`,
which routes to the innermost dispatcher installed with
:func:`use_dispatcher` and is a cheap no-op when none is.  The stack is
process-global rather than thread-local on purpose — the scheduler's
worker threads and the cache (called from any thread) must see the
dispatcher the coordinator installed, the same reach-through convention
as :func:`repro.runner.cache.set_cache`.

:func:`capture_events` is the one per-thread exception: inside it,
:func:`emit` appends to a list instead of dispatching.  Process-pool
and remote workers run each task inside a capture and send the list
home with the result, where the coordinator re-emits it, so worker
telemetry reaches the run's processors through the same funnel.  It is
per thread because a remote worker runs several tasks at once.

The kernel-timing entry points (:func:`kernel_timer`,
:func:`record_kernel`) live here too: kernels report as
:class:`~repro.events.model.KernelTimed` events scoped to the current
run, replacing the retired ``repro.perf`` module-global registry
(shimmed through PR 9, deleted in PR 10).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.events.model import Event, KernelTimed

# Canonical kernel names, so reports line up across subsystems.
GEOMETRY = "geometry"
SCHEDULE_DP = "schedule_dp"
SCHEDULE_DP_BATCH = "schedule_dp_batch"
REWARD_TABLES = "reward_tables"
SIMULATION = "simulation"
ATTACK_EXECUTE = "attack_execute"


class EventProcessor:
    """Base class for event consumers attached to a dispatcher.

    ``handle`` is called under the dispatcher's lock, so processors are
    single-threaded with respect to each other and see every event in
    sequence order; keep it cheap.  Exceptions propagate to the emitter
    — a broken processor should fail the run loudly, not silently drop
    telemetry.
    """

    def handle(self, event: Event, seq: int, ts: float) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources once the run is over."""


class EventDispatcher:
    """Sequences events and fans them out to processors."""

    def __init__(self, processors: Iterable[EventProcessor] = ()) -> None:
        self._processors = tuple(processors)
        self._lock = threading.Lock()
        self._seq = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def emit(self, event: Event) -> None:
        with self._lock:
            if self._closed:
                return
            seq = self._seq
            self._seq += 1
            ts = time.time()
            for processor in self._processors:
                processor.handle(event, seq, ts)

    def close(self) -> None:
        """Close every processor exactly once; later emits are dropped."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for processor in self._processors:
            processor.close()


# Innermost-wins dispatcher stack (see module docstring for why this is
# process-global, not thread-local).  Appends/removals take the lock;
# the hot-path read in `emit` relies on list indexing being atomic.
_stack: list[EventDispatcher] = []  # guarded-by: _stack_lock
_stack_lock = threading.Lock()


def current_dispatcher() -> EventDispatcher | None:
    """The innermost installed dispatcher, or ``None``."""
    try:
        # Safe lock-free read on the emit hot path: list indexing is
        # atomic under the GIL and a stale dispatcher is acceptable.
        return _stack[-1]  # repro-lint: disable=lock-discipline
    except IndexError:
        return None


@contextmanager
def use_dispatcher(dispatcher: EventDispatcher) -> Iterator[EventDispatcher]:
    """Install ``dispatcher`` as the :func:`emit` target for the block."""
    with _stack_lock:
        _stack.append(dispatcher)
    try:
        yield dispatcher
    finally:
        with _stack_lock:
            # remove() not pop(): a nested block that outlives its
            # parent (misuse, but survivable) must not unhook the wrong
            # dispatcher.
            try:
                _stack.remove(dispatcher)
            except ValueError:
                pass


# The innermost capture list of each thread (see capture_events).
_captured = threading.local()


@contextmanager
def capture_events() -> Iterator[list[Event]]:
    """Collect this thread's events in a list instead of dispatching
    them; the block's list is yielded and complete on exit."""
    previous = getattr(_captured, "events", None)
    events: list[Event] = []
    _captured.events = events
    try:
        yield events
    finally:
        _captured.events = previous


def emit(event: Event) -> None:
    """Send one event to this thread's capture, else to the current
    dispatcher (no-op without either)."""
    captured = getattr(_captured, "events", None)
    if captured is not None:
        captured.append(event)
        return
    dispatcher = current_dispatcher()
    if dispatcher is not None:
        dispatcher.emit(event)


def record_kernel(name: str, seconds: float) -> None:
    """Report one kernel invocation's wall time to the current run."""
    emit(KernelTimed(kernel=name, seconds=seconds))


@contextmanager
def kernel_timer(name: str) -> Iterator[None]:
    """Time a ``with`` block as one invocation of kernel ``name``."""
    started = time.perf_counter()
    try:
        yield
    finally:
        record_kernel(name, time.perf_counter() - started)
