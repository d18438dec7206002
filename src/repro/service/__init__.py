"""``repro.service`` — the persistent control plane behind ``repro serve``.

A long-lived coordinator (:class:`ControlPlane`) wraps a
:class:`repro.api.Session` behind an HTTP/JSON front door with a
durable job queue, self-registering elastic workers
(:class:`WorkerAgent` on the worker side), and multi-client fairness
through the union shard DAG.  See :mod:`repro.service.server` for the
architecture; :class:`repro.api.client.ServiceClient` is the typed
client the ``repro submit|jobs|drain`` verbs use.
"""

from repro.service.agent import WorkerAgent
from repro.service.jobs import JobRecord, JobStore
from repro.service.registry import WorkerInfo, WorkerRegistry
from repro.service.server import ControlPlane, HTTPError

__all__ = [
    "ControlPlane",
    "HTTPError",
    "JobRecord",
    "JobStore",
    "WorkerAgent",
    "WorkerInfo",
    "WorkerRegistry",
]
