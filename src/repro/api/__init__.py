"""``repro.api`` — the programmatic front door to the experiment stack.

Everything the runners can do is reachable through one object::

    from repro.api import Session

    session = Session(cache_dir="/tmp/repro-cache", jobs=4)
    outcome = session.submit("fig3", days=7)          # one run
    sweep = session.sweep("fig4", grid={...})          # many, one batch
    history = session.runs()                           # persisted manifests

The ``repro`` CLI is a thin client over this package; services,
notebooks, and benchmark harnesses should import it directly instead
of shelling out.  See :mod:`repro.api.session` for execution,
:mod:`repro.api.store` for the persistent run store, and
:mod:`repro.events` for the typed telemetry stream every run emits
(``session.last_events`` holds the aggregate; ``session.events(run)``
replays a persisted JSONL trail; ``session.subscribe(processor)``
attaches a live :class:`~repro.events.dispatch.EventProcessor`).
"""

from repro.api.client import ServiceClient, ServiceError
from repro.api.session import Session, SweepResult, expand_grid
from repro.api.store import (
    RunDiff,
    RunManifest,
    RunStore,
    manifest_from_wire,
    manifest_to_wire,
)
from repro.events.dispatch import EventProcessor
from repro.events.model import Event
from repro.events.processors import ProfileAggregator, read_events_jsonl
from repro.runner.base import (
    CachePolicy,
    RunnerPolicy,
    RunOutcome,
    RunRequest,
)

__all__ = [
    "CachePolicy",
    "Event",
    "EventProcessor",
    "ProfileAggregator",
    "RunDiff",
    "RunManifest",
    "RunOutcome",
    "RunRequest",
    "RunStore",
    "RunnerPolicy",
    "ServiceClient",
    "ServiceError",
    "Session",
    "SweepResult",
    "expand_grid",
    "manifest_from_wire",
    "manifest_to_wire",
    "read_events_jsonl",
]
