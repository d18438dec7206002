"""Durable job queue for the ``repro serve`` control plane.

A *job* is one client submission — a single run or a whole sweep — that
outlives the HTTP request that created it.  Every state transition is
persisted as one JSON file under ``<run store>/jobs/`` with the same
atomic tmp-then-rename discipline :class:`repro.api.store.RunStore`
uses, so the queue survives a control-plane crash: ``repro serve
--resume`` lists the directory, finds everything not in a terminal
state, and re-enqueues it.

A record is encoded field by field through the record codec
(:func:`repro.core.serialization.record_to_wire`), as run manifests
and events are: a job read back is equal to the one written, tuples
and numpy scalars in its parameters included, and the HTTP job view
is the same encoding without the format version.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

# The run store names the queue directory (its prune reads the
# records); the plane imports the name from here.
from repro.api.store import JOBS_SUBDIR as JOBS_SUBDIR
from repro.core.serialization import record_from_wire, record_to_wire
from repro.errors import ConfigurationError
from repro.runner.cache import atomic_write

_JOB_VERSION = 1

# Job lifecycle.  queued -> running -> done | failed; queued jobs may
# also be cancelled; running jobs found at startup go back to queued
# (--resume) or to cancelled (fresh start).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

# A job bounced back to the queue by worker loss retries at most this
# many times before it is declared failed.
MAX_ATTEMPTS = 5


@dataclass(frozen=True)
class JobRecord:
    """One persisted control-plane job.

    ``kind`` is ``"run"`` (one request) or ``"sweep"`` (``grid``
    expands through :func:`repro.api.session.expand_grid`, every point
    tagged with the job id as its sweep group).  ``isolate`` marks a
    job requeued after a payload failure in a shared batch: it must run
    in a batch of its own so the failure attaches to the right job.
    """

    job_id: str
    client: str
    experiment: str
    kind: str = "run"
    days: int | None = None
    params: dict[str, Any] = field(default_factory=dict)
    grid: dict[str, Any] | None = None
    state: str = QUEUED
    submitted: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    attempts: int = 0
    isolate: bool = False
    error: str = ""
    run_ids: list[str] = field(default_factory=list)
    events_path: str = ""

    def __post_init__(self) -> None:
        if self.state not in STATES:
            raise ConfigurationError(f"unknown job state {self.state!r}")


def job_to_wire(record: JobRecord) -> dict:
    """A JSON-ready encoding of a job: its format version plus every
    field through the record codec."""
    return {"format_version": _JOB_VERSION, **record_to_wire(record)}


def job_from_wire(payload: dict) -> JobRecord:
    """Invert :func:`job_to_wire`; validates the format version (the
    record validates its state)."""
    version = payload.get("format_version")
    if version != _JOB_VERSION:
        raise ConfigurationError(f"unsupported job format version {version!r}")
    return record_from_wire(JobRecord, payload)


class JobStore:
    """Directory of job records: ``<root>/<job_id>.json``.

    Writes are atomic (tmp + rename) so a concurrent listing never sees
    a torn record; unreadable entries are skipped by :meth:`list`
    rather than failing the whole queue.  The store itself is just
    persistence — cross-record transactions (claim the queue, cancel
    exactly-once) are the caller's lock to hold.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @staticmethod
    def new_job_id(experiment: str, submitted: float) -> str:
        """A unique, chronologically sortable job id."""
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(submitted))
        return f"job-{experiment}-{stamp}-{uuid.uuid4().hex[:6]}"

    def save(self, record: JobRecord) -> JobRecord:
        atomic_write(
            self.root / f"{record.job_id}.json",
            json.dumps(job_to_wire(record), sort_keys=True).encode(),
        )
        return record

    def get(self, job_id: str) -> JobRecord:
        path = self.root / f"{job_id}.json"
        try:
            return job_from_wire(json.loads(path.read_text()))
        except FileNotFoundError:
            raise ConfigurationError(
                f"no job {job_id!r} in {self.root}"
            ) from None
        except (OSError, ValueError) as error:
            raise ConfigurationError(
                f"job record {path.name} is unreadable: {error}"
            ) from error

    def list(self, state: str | None = None) -> list[JobRecord]:
        """Every readable job, submission order (stable: time then id)."""
        records = []
        if not self.root.is_dir():
            return records
        for entry in self.root.glob("*.json"):
            try:
                record = job_from_wire(json.loads(entry.read_text()))
            except (OSError, ValueError, ConfigurationError):
                continue  # torn/foreign file; surfaced by `get`, not here
            if state is not None and record.state != state:
                continue
            records.append(record)
        records.sort(key=lambda r: (r.submitted, r.job_id))
        return records

    def transition(self, record: JobRecord, state: str, **changes: Any) -> JobRecord:
        """Persist a state change, stamping the transition time."""
        now = time.time()
        if state == RUNNING:
            changes.setdefault("started", now)
        elif state in TERMINAL_STATES:
            changes.setdefault("finished", now)
        updated = replace(record, state=state, **changes)
        return self.save(updated)
