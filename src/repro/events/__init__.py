"""``repro.events`` — the structured telemetry stream.

Typed events (:mod:`repro.events.model`), one dispatcher funnel with
pluggable processors (:mod:`repro.events.dispatch`), and the built-in
aggregator / JSONL writer / profile renderer
(:mod:`repro.events.processors`).

Producers — the scheduler, the runners, the remote executor, the cache,
the kernels — call :func:`emit`; it routes to whatever dispatcher the
current run installed via :func:`use_dispatcher` and no-ops otherwise,
so library code is unconditionally instrumented at near-zero cost.

For tests and ad-hoc inspection::

    from repro.events import collect_events

    with collect_events() as aggregator:
        runner.run(["fig3"])
    aggregator.task_events, aggregator.utilization, aggregator.cache_stats
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.events.dispatch import (
    ATTACK_EXECUTE,
    GEOMETRY,
    REWARD_TABLES,
    SCHEDULE_DP,
    SCHEDULE_DP_BATCH,
    SIMULATION,
    EventDispatcher,
    EventProcessor,
    capture_events,
    current_dispatcher,
    emit,
    kernel_timer,
    record_kernel,
    use_dispatcher,
)
from repro.events.model import (
    EVENT_KINDS,
    EVENT_WIRE_VERSION,
    CacheCorrupt,
    CacheHit,
    CacheMiss,
    CachePut,
    Event,
    HeartbeatMissed,
    JobDequeued,
    JobQueued,
    KernelStat,
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
    event_from_wire,
    event_to_wire,
)
from repro.events.processors import (
    JsonlEventWriter,
    ProfileAggregator,
    read_events_jsonl,
    render_profile,
    replay_events,
)


@contextmanager
def collect_events(
    processors: list[EventProcessor] | None = None,
) -> Iterator[ProfileAggregator]:
    """Install a fresh dispatcher for the block; yields its aggregator."""
    aggregator = ProfileAggregator()
    dispatcher = EventDispatcher(processors=[aggregator, *(processors or [])])
    try:
        with use_dispatcher(dispatcher):
            yield aggregator
    finally:
        dispatcher.close()


__all__ = [
    "ATTACK_EXECUTE",
    "EVENT_KINDS",
    "EVENT_WIRE_VERSION",
    "GEOMETRY",
    "REWARD_TABLES",
    "SCHEDULE_DP",
    "SCHEDULE_DP_BATCH",
    "SIMULATION",
    "CacheCorrupt",
    "CacheHit",
    "CacheMiss",
    "CachePut",
    "Event",
    "EventDispatcher",
    "EventProcessor",
    "HeartbeatMissed",
    "JobDequeued",
    "JobQueued",
    "JsonlEventWriter",
    "KernelStat",
    "KernelTimed",
    "ProfileAggregator",
    "RunFinished",
    "RunStarted",
    "TaskFailed",
    "TaskFinished",
    "TaskStarted",
    "WorkerConnected",
    "WorkerLeased",
    "WorkerLost",
    "WorkerRegistered",
    "WorkerRetired",
    "capture_events",
    "collect_events",
    "current_dispatcher",
    "emit",
    "event_from_wire",
    "event_to_wire",
    "kernel_timer",
    "read_events_jsonl",
    "record_kernel",
    "render_profile",
    "replay_events",
    "use_dispatcher",
]
