"""Typed telemetry events and their wire encoding.

One frozen dataclass per thing the execution stack can report:
scheduler task lifecycle (:class:`TaskStarted` / :class:`TaskFinished`
/ :class:`TaskFailed`), worker lifecycle (:class:`WorkerLeased` /
:class:`WorkerConnected` / :class:`WorkerLost` / :class:`WorkerRetired`),
cache traffic (:class:`CacheHit` / :class:`CacheMiss` /
:class:`CachePut` / :class:`CacheCorrupt`), kernel timing
(:class:`KernelTimed`), run bracketing (:class:`RunStarted` /
:class:`RunFinished`), and the service control plane
(:class:`WorkerRegistered` / :class:`HeartbeatMissed` /
:class:`JobQueued` / :class:`JobDequeued`).

Events are plain data — no behaviour, no references into the runner —
so they can cross the JSONL audit trail and a remote worker's result
frame, and be replayed later into the same aggregates a live run
produces.  They are a run's only record: nothing in the execution
stack keeps a tally of the same facts beside them, and a run manifest
names its batch's trail instead of copying figures out of it.
:func:`event_to_wire` / :func:`event_from_wire` wrap an event's
fields, encoded by the record codec that run manifests and job records
share (:func:`repro.core.serialization.record_to_wire`), in a dispatch
envelope, so non-JSON field values like tuple task keys
(``(0, "shard", 3)``) survive the round-trip *exactly*; the decoder's
kind table, :data:`EVENT_KINDS`, is every subclass of :class:`Event`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

# Bump when event field semantics change; readers skip lines whose
# kinds they do not know, so additive changes do not need a bump.
EVENT_WIRE_VERSION = 1


@dataclass(frozen=True)
class Event:
    """Base class for all telemetry events (pure data, no behaviour)."""


@dataclass(frozen=True)
class RunStarted(Event):
    """A runner began executing a batch of requests."""

    experiments: tuple[str, ...]
    runner: str
    jobs: int


@dataclass(frozen=True)
class RunFinished(Event):
    """The batch ended, successfully or not; its wall time.  (Busy time
    is the sum of the task events' seconds.)"""

    wall_seconds: float


@dataclass(frozen=True)
class TaskStarted(Event):
    """One graph task began executing on a worker (or the coordinator
    for ``local`` merge tasks).  ``started`` is seconds since the run's
    wall clock started."""

    key: Any
    label: str
    worker: str
    local: bool
    started: float


@dataclass(frozen=True)
class TaskFinished(Event):
    """One task completed."""

    key: Any
    label: str
    worker: str
    local: bool
    started: float
    seconds: float


@dataclass(frozen=True)
class TaskFailed(Event):
    """One task attempt failed.  ``retrying`` distinguishes a worker
    loss (the scheduler retries on a survivor) from the payload itself
    raising (the run is failing)."""

    key: Any
    label: str
    worker: str
    local: bool
    started: float
    seconds: float
    retrying: bool = False


@dataclass(frozen=True)
class WorkerLeased(Event):
    """A worker entered the run's slot pool with ``capacity`` slots."""

    worker: str
    capacity: int


@dataclass(frozen=True)
class WorkerConnected(Event):
    """One task connection was dialed to a remote worker (pooled
    persistent connections make this ~capacity per worker; a count
    tracking the task count means reconnect churn)."""

    worker: str


@dataclass(frozen=True)
class WorkerLost(Event):
    """Transport to a worker failed mid-task (process died, host gone)."""

    worker: str
    reason: str


@dataclass(frozen=True)
class WorkerRetired(Event):
    """The scheduler removed a lost worker's slots from the pool."""

    worker: str


@dataclass(frozen=True)
class WorkerRegistered(Event):
    """A worker joined the control plane's registry (service mode):
    it announced its task address and probed capacity and passed the
    protocol/fingerprint/beacon handshake."""

    worker: str
    capacity: int


@dataclass(frozen=True)
class HeartbeatMissed(Event):
    """A registered worker went silent past the heartbeat timeout and
    is being retired from the registry (its running shards retry on
    survivors, exactly like a mid-task :class:`WorkerLost`)."""

    worker: str
    silent_seconds: float


@dataclass(frozen=True)
class JobQueued(Event):
    """A client submitted a job to the service's durable queue."""

    job_id: str
    client: str
    experiment: str


@dataclass(frozen=True)
class JobDequeued(Event):
    """The service dispatch loop took a queued job into a batch."""

    job_id: str


@dataclass(frozen=True)
class CacheHit(Event):
    tier: str
    count: int = 1


@dataclass(frozen=True)
class CacheMiss(Event):
    tier: str
    count: int = 1


@dataclass(frozen=True)
class CachePut(Event):
    tier: str
    count: int = 1
    # Encoded size of the persisted entry; 0 for memory-only tiers.
    # Additive field: old trails simply decode with the default.
    nbytes: int = 0


@dataclass(frozen=True)
class CacheCorrupt(Event):
    """A persisted cache entry failed to decode (deleted on sight)."""

    tier: str
    count: int = 1


@dataclass(frozen=True)
class KernelTimed(Event):
    """One invocation of a hot-path kernel (geometry, schedule DP, …)."""

    kernel: str
    seconds: float


@dataclass
class KernelStat:
    """Accumulated cost of one kernel (aggregator-side rollup)."""

    calls: int = 0
    seconds: float = 0.0


# ``__subclasses__()`` lists direct subclasses only, in definition order:
# an event kind subclasses Event directly and is defined above this line.
EVENT_KINDS: dict[str, type[Event]] = {
    cls.__name__: cls for cls in Event.__subclasses__()
}


def event_to_wire(event: Event, seq: int = 0, ts: float = 0.0) -> dict:
    """A JSON-ready encoding of one event plus its dispatch envelope."""
    # Imported lazily: kernel call sites (attack/hvac) import this
    # module at import time, before repro.core finishes initialising.
    from repro.core.serialization import record_to_wire

    data = record_to_wire(event)
    return {"seq": seq, "ts": ts, "kind": type(event).__name__, "data": data}


def event_from_wire(payload: dict) -> Event:
    """Invert :func:`event_to_wire` (envelope fields are dropped).

    Unknown *fields* of a known kind are ignored so trails written by a
    newer producer, or by an older one that still carried a field since
    removed, replay; an unknown *kind* raises — callers that scan whole
    trails filter on :data:`EVENT_KINDS` first.
    """
    from repro.core.serialization import record_from_wire

    kind = payload.get("kind")
    cls = EVENT_KINDS.get(str(kind))
    if cls is None:
        raise ConfigurationError(f"unknown event kind {kind!r}")
    return record_from_wire(cls, payload.get("data") or {})
