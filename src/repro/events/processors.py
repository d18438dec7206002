"""Built-in event processors: aggregation, JSONL persistence, rendering.

:class:`ProfileAggregator` folds the event stream into the run's slot
table, its task events (one per task attempt, failed ones included, in
dispatch order) with their busy time, the run's cache stats, and
per-kernel rollups.  It is the only record of a run: the scheduler,
the executors and the cache keep no tallies of their own, ``--profile``
is a pure renderer over the aggregate, and ``repro runs show`` folds a
stored run's trail to print its slot table and cache figures,
identically for every runner and executor (pool and remote workers
send their events home).  Runners
emit ``RunFinished`` even when a run fails, so a failed run's
aggregate still holds its tasks and wall time.

:class:`JsonlEventWriter` persists the stream as an append-only JSONL
audit trail next to the run manifests; :func:`read_events_jsonl` reads
one back (tolerating a torn final line from a crashed run), and
:func:`replay_events` pushes recorded events through a fresh processor
— the replay-equals-live property is what makes a persisted trail as
good a record of a run as its live aggregate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.events.dispatch import EventProcessor
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
    event_to_wire,
)


_CACHE_EVENT_NAMES: dict[type, str] = {
    CacheHit: "hits",
    CacheMiss: "misses",
    CachePut: "puts",
    CacheCorrupt: "corrupt",
}


@dataclass
class ProfileAggregator(EventProcessor):
    """Reconstructs run telemetry from the event stream.

    Task events append, and their seconds sum, in dispatch order, which
    a JSONL trail preserves, so a replayed trail folds to an aggregate
    equal to the live run's, field for field, float sums included.
    """

    run_started: RunStarted | None = None
    run_finished: RunFinished | None = None
    # Worker name -> concurrent slot count leased to the run.
    slots: dict[str, int] = field(default_factory=dict)
    # Worker name -> task connections dialed (remote executor only).
    # With persistent per-slot connections this stays at ~capacity per
    # worker; a count tracking the task count means reconnect churn.
    worker_connects: dict[str, int] = field(default_factory=dict)
    lost_workers: list[WorkerLost] = field(default_factory=list)
    retired_workers: list[str] = field(default_factory=list)
    # One event per task attempt; a TaskFailed is a failed attempt.
    task_events: list[TaskFinished | TaskFailed] = field(default_factory=list)
    started_tasks: int = 0
    busy_seconds: float = 0.0
    wall_seconds: float = 0.0
    # Event counts, overall and per tier: "hits", "adm.hits", …
    # "corrupt" counts disk entries that failed to decode (also
    # counted as misses): a storage-health signal a miss is not.
    cache_stats: dict[str, int] = field(default_factory=dict)
    # Bytes written per tier (CachePut.nbytes), kept apart from
    # cache_stats so the latter holds event counts only.
    cache_put_bytes: dict[str, int] = field(default_factory=dict)
    kernels: dict[str, KernelStat] = field(default_factory=dict)
    # Service control-plane telemetry (zero outside `repro serve`).
    registered_workers: dict[str, int] = field(default_factory=dict)
    heartbeats_missed: list[str] = field(default_factory=list)
    jobs_queued: int = 0
    jobs_dequeued: int = 0
    events_seen: int = 0

    # -- EventProcessor -------------------------------------------------

    def handle(self, event: Event, seq: int, ts: float) -> None:
        self.events_seen += 1
        if isinstance(event, (TaskFinished, TaskFailed)):
            self.task_events.append(event)
            self.busy_seconds += event.seconds
        elif isinstance(event, TaskStarted):
            self.started_tasks += 1
        elif isinstance(event, (CacheHit, CacheMiss, CachePut, CacheCorrupt)):
            name = _CACHE_EVENT_NAMES[type(event)]
            for key in (name, f"{event.tier}.{name}"):
                self.cache_stats[key] = self.cache_stats.get(key, 0) + event.count
            if isinstance(event, CachePut) and event.nbytes:
                self.cache_put_bytes[event.tier] = (
                    self.cache_put_bytes.get(event.tier, 0) + event.nbytes
                )
        elif isinstance(event, KernelTimed):
            stat = self.kernels.get(event.kernel)
            if stat is None:
                stat = self.kernels[event.kernel] = KernelStat()
            stat.calls += 1
            stat.seconds += event.seconds
        elif isinstance(event, WorkerLeased):
            self.slots[event.worker] = event.capacity
        elif isinstance(event, WorkerConnected):
            self.worker_connects[event.worker] = (
                self.worker_connects.get(event.worker, 0) + 1
            )
        elif isinstance(event, WorkerLost):
            self.lost_workers.append(event)
        elif isinstance(event, WorkerRetired):
            self.retired_workers.append(event.worker)
        elif isinstance(event, WorkerRegistered):
            self.registered_workers[event.worker] = event.capacity
        elif isinstance(event, HeartbeatMissed):
            self.heartbeats_missed.append(event.worker)
        elif isinstance(event, JobQueued):
            self.jobs_queued += 1
        elif isinstance(event, JobDequeued):
            self.jobs_dequeued += 1
        elif isinstance(event, RunStarted):
            self.run_started = event
        elif isinstance(event, RunFinished):
            self.run_finished = event
            self.wall_seconds = event.wall_seconds

    # -- derived aggregates ---------------------------------------------

    @property
    def jobs(self) -> int:
        """Total slot budget: the leased slots, else the runner's
        declared bound (a run that leased none)."""
        if self.slots:
            return sum(self.slots.values())
        return self.run_started.jobs if self.run_started is not None else 0

    @property
    def utilization(self) -> float:
        """Mean fraction of the slot budget kept busy (0..1)."""
        if self.wall_seconds <= 0.0 or self.jobs <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (self.wall_seconds * self.jobs))

    def worker_busy(self) -> dict[str, float]:
        """Seconds each worker spent executing (failed attempts count:
        a crashed shard still occupied the slot)."""
        busy = {worker: 0.0 for worker in self.slots}
        for event in self.task_events:
            if event.local or not event.worker:
                continue
            busy[event.worker] = busy.get(event.worker, 0.0) + event.seconds
        return busy

    def worker_utilization(self) -> dict[str, float]:
        """Per-worker mean fraction of its slots kept busy (0..1)."""
        busy = self.worker_busy()
        if self.wall_seconds <= 0.0:
            return {worker: 0.0 for worker in busy}
        return {
            worker: min(
                1.0,
                seconds / (self.wall_seconds * max(1, self.slots.get(worker, 1))),
            )
            for worker, seconds in busy.items()
        }

    def hit_rate(self, tier: str | None = None) -> float:
        """Cache hit rate overall, or for one tier (``"adm"``, …)."""
        prefix = f"{tier}." if tier else ""
        hits = self.cache_stats.get(f"{prefix}hits", 0)
        misses = self.cache_stats.get(f"{prefix}misses", 0)
        total = hits + misses
        return hits / total if total else 0.0


class JsonlEventWriter(EventProcessor):
    """Appends every event to a JSONL audit trail as it happens.

    The first line is a header record (``"kind": "TrailHeader"``, which
    readers skip as an unknown event kind) carrying run provenance; each
    following line is one :func:`event_to_wire` envelope.  Lines are
    written per event, not buffered until close, so a crashed run still
    leaves a usable (possibly torn-tailed) trail.
    """

    def __init__(self, path: str | Path, header: dict[str, Any] | None = None):
        # Lazy for the same reason as event_to_wire: this module loads
        # before repro.core finishes when imported via kernel call sites.
        from repro.core.serialization import encode_wire_value

        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = self.path.open("w", encoding="utf-8")
        record = {
            "kind": "TrailHeader",
            "format_version": EVENT_WIRE_VERSION,
            **encode_wire_value(dict(header or {})),
        }
        self._file.write(json.dumps(record, sort_keys=True) + "\n")

    def handle(self, event: Event, seq: int, ts: float) -> None:
        self._file.write(
            json.dumps(event_to_wire(event, seq, ts), sort_keys=True) + "\n"
        )

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()


def read_events_jsonl(path: str | Path) -> list[Event]:
    """Decode one audit trail back into events, in dispatch order.

    Header lines, unknown kinds (trails from newer code), and torn
    lines (a crashed writer's final partial write) are skipped rather
    than failing the read — one bad line must not hide a whole run.
    """
    from repro.events.model import event_from_wire

    events: list[Event] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # torn tail from a crashed run
            if not isinstance(payload, dict):
                continue
            if payload.get("kind") not in EVENT_KINDS:
                continue  # header line or a kind we do not know
            events.append(event_from_wire(payload))
    return events


def replay_events(events: list[Event]) -> ProfileAggregator:
    """Push recorded events through a fresh aggregator."""
    aggregator = ProfileAggregator()
    for index, event in enumerate(events):
        aggregator.handle(event, index, 0.0)
    return aggregator


def render_profile(aggregator: ProfileAggregator, runner_name: str) -> str:
    """The ``--profile`` report, rendered purely from the aggregate.

    One formatting path for every runner: the per-task table, the
    wall/busy/utilization and cache summary, the per-worker breakdown
    when the run had a multi-worker slot pool, and the kernel rollup.
    """
    from repro.core.report import format_table

    sections: list[str] = []
    rows = [
        [
            event.label + (" [failed]" if isinstance(event, TaskFailed) else ""),
            f"{event.started:.2f}",
            f"{event.seconds:.2f}",
            "coordinator" if event.local else (event.worker or "worker"),
        ]
        for event in sorted(aggregator.task_events, key=lambda e: e.started)
    ]
    sections.append(
        format_table(
            f"Scheduler profile ({runner_name}, {aggregator.jobs} job(s))",
            ["task", "start (s)", "seconds", "where"],
            rows,
        )
    )
    summary = [
        ["wall seconds", f"{aggregator.wall_seconds:.2f}"],
        ["busy seconds", f"{aggregator.busy_seconds:.2f}"],
        ["utilization", f"{100.0 * aggregator.utilization:.0f}%"],
        ["cache hit rate (all)", f"{100.0 * aggregator.hit_rate():.0f}%"],
    ]
    if len(aggregator.slots) > 1 or "local" not in aggregator.slots:
        # Multi-worker (remote) run: break utilization down per worker.
        busy = aggregator.worker_busy()
        for worker, utilization in sorted(aggregator.worker_utilization().items()):
            detail = (
                f"{busy.get(worker, 0.0):.2f}s busy, "
                f"{100.0 * utilization:.0f}% of "
                f"{aggregator.slots.get(worker, 1)} slot(s)"
            )
            if aggregator.worker_connects:
                # Persistent-connection telemetry: ~capacity dials per
                # worker is healthy; ~task-count dials is churn.
                detail += (
                    f", {aggregator.worker_connects.get(worker, 0)} "
                    "task connection(s)"
                )
            summary.append([f"worker {worker}", detail])
    for tier in ("trace", "adm", "analysis", "rewards", "result", "spill"):
        hits = aggregator.cache_stats.get(f"{tier}.hits", 0)
        misses = aggregator.cache_stats.get(f"{tier}.misses", 0)
        if hits or misses:
            detail = f"{hits} hit(s), {misses} miss(es)"
            nbytes = aggregator.cache_put_bytes.get(tier, 0)
            if nbytes:
                detail += f", {nbytes} byte(s) written"
            summary.append([f"cache {tier} tier", detail])
    summary.append(
        ["cache corrupt entries", str(aggregator.cache_stats.get("corrupt", 0))]
    )
    sections.append(format_table("Run profile", ["metric", "value"], summary))
    if aggregator.kernels:
        sections.append(
            format_table(
                "Kernel profile",
                ["kernel", "calls", "seconds"],
                [
                    [name, stat.calls, f"{stat.seconds:.3f}"]
                    for name, stat in sorted(aggregator.kernels.items())
                ],
            )
        )
    return "\n".join(sections)
