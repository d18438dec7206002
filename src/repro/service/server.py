"""The ``repro serve`` control plane: one process, many clients.

:class:`ControlPlane` is a long-lived coordinator wrapping a
:class:`repro.api.Session` behind a stdlib HTTP/JSON front door:

* **Jobs** — clients ``POST /jobs`` a run or a sweep; the job is
  validated against the experiment registry immediately (a bad
  submission is a 400, not a late failure), persisted through the
  :class:`~repro.service.jobs.JobStore`, and executed by the dispatch
  loop.  Jobs survive a crash: ``repro serve --resume`` re-enqueues
  everything not in a terminal state.
* **Workers** — ``repro worker --join host:port`` self-registers
  (protocol version, code fingerprint, capacity), heartbeats, and is
  retired by the monitor thread when it goes silent; a retired worker
  re-registers after backoff and gets fresh leases.  ``POST
  /workers/drain`` stops offering a worker new shards without killing
  the ones in flight.
* **Fairness** — the dispatch loop drains the *whole* queue into one
  batch: every job's requests enter a single union shard DAG, each
  tagged with its submitting client, and the graph scheduler
  round-robins ready tasks across clients (submission order within a
  client), so one tenant's wide sweep cannot starve another's single
  figure.

Execution goes through the session's normal path — same event trail,
same run manifests, same merge-in-coordinator rule — so a job's
artifact is byte-identical to ``repro run`` of the same request.

Failure policy: a batch that dies because *workers* died is requeued
wholesale (bounded by :data:`~repro.service.jobs.MAX_ATTEMPTS`); a
batch that dies because a *payload* raised is split — each member job
is requeued isolated (a batch of one) so the failure lands on the job
that owns it instead of poisoning its neighbours.  Either way each job
links the failed batch's event trail, so ``GET /jobs/<id>/events``
explains a failed job as it does a finished one.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.api.session import Session, expand_grid
from repro.api.store import RunStore
from repro.core.serialization import record_to_wire
from repro.errors import ConfigurationError, ReproError
from repro.events.dispatch import emit
from repro.events.model import (
    HeartbeatMissed,
    JobDequeued,
    JobQueued,
    WorkerRegistered,
    WorkerRetired,
    event_to_wire,
)
from repro.events.processors import read_events_jsonl
from repro.runner.async_graph import AsyncShardRunner
from repro.runner.base import RunRequest
from repro.runner.cache import code_fingerprint
from repro.runner.remote import PROTOCOL_VERSION, RemoteExecutor, parse_address
from repro.runner.scheduler import (
    GraphScheduler,
    TaskExecutionError,
    WorkerLostError,
)
from repro.service import jobs as jobstates
from repro.service.jobs import JOBS_SUBDIR, MAX_ATTEMPTS, JobRecord, JobStore
from repro.service.registry import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    WorkerRegistry,
)


class HTTPError(ReproError):
    """An HTTP-mapped service error (the handler turns it into JSON)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shim: route, decode, delegate to the plane, encode."""

    protocol_version = "HTTP/1.1"
    server: "_PlaneHTTPServer"

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the control plane is not a stdout logger

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        try:
            body = self._read_body() if method == "POST" else {}
            status, reply = self.server.plane.handle_http(
                method, self.path, body
            )
        except HTTPError as error:
            status, reply = error.status, {"error": str(error)}
        except ConfigurationError as error:
            status, reply = 400, {"error": str(error)}
        except Exception as error:  # never kill the handler thread
            status, reply = 500, {"error": f"{type(error).__name__}: {error}"}
        payload = json.dumps(reply).encode()
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (OSError, ValueError):
            pass  # client hung up; nothing to salvage

    def _read_body(self) -> dict:
        declared = self.headers.get("Content-Length") or "0"
        if not declared.isdecimal():
            self.close_connection = True  # the body's extent is unknown
            raise HTTPError(
                400, f"Content-Length must be a byte count, got {declared!r}"
            )
        length = int(declared)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw.decode())
        except (ValueError, UnicodeDecodeError) as error:
            raise HTTPError(400, f"request body is not JSON: {error}") from error
        if not isinstance(body, dict):
            raise HTTPError(400, "request body must be a JSON object")
        return body


class _PlaneHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    plane: "ControlPlane"


class ControlPlane:
    """The long-lived ``repro serve`` coordinator (see module docstring).

    ``listen`` is ``host:port`` (port 0 binds a free port; read the
    result from :attr:`address` after :meth:`start`).  ``resume``
    re-enqueues jobs found queued or running on disk; without it they
    are cancelled as ``not resumed``.  ``session`` injects a
    pre-configured :class:`Session` (tests); it must persist runs —
    the job queue lives inside its run store.
    """

    def __init__(
        self,
        listen: str = "127.0.0.1:0",
        *,
        cache_dir: str | None = None,
        resume: bool = False,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        poll_interval: float = 0.5,
        session: Session | None = None,
    ) -> None:
        self._listen = parse_address(listen)
        self.session = session if session is not None else Session(
            cache_dir=cache_dir, origin="service"
        )
        if self.session.store is None:
            raise ConfigurationError(
                "repro serve needs a run store for its durable job "
                "queue; run with a cache dir (not --no-cache)"
            )
        self.store: RunStore = self.session.store
        self.registry = WorkerRegistry(heartbeat_timeout=heartbeat_timeout)
        # Opened empty at start; registrations probe workers into it.
        self.executor = RemoteExecutor(cache=self.session.cache)
        self._resume = resume
        self._poll = poll_interval
        self._jobs_lock = threading.Lock()
        self._jobs = JobStore(self.store.root / JOBS_SUBDIR)  # guarded-by: _jobs_lock
        # The listings (GET /jobs, GET /info) read the same records
        # without the lock: records are written atomically and
        # JobStore.list skips torn ones, so a scan of a long history
        # never stalls a submit, a cancel, a job view or a claim.
        self._history = JobStore(self.store.root / JOBS_SUBDIR)
        # The queued jobs' ids: a claim reads those records alone, not
        # the store's whole history.
        self._queued: set[str] = set()  # guarded-by: _jobs_lock
        self._sched_lock = threading.Lock()
        self._scheduler: GraphScheduler | None = None  # guarded-by: _sched_lock
        self._stop = threading.Event()
        self._wake = threading.Condition()
        self._httpd: _PlaneHTTPServer | None = None
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> str:
        assert self._httpd is not None, "control plane not started"
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> str:
        """Bind, recover the persisted queue, start the service threads
        (HTTP front door, dispatch loop, heartbeat monitor); returns
        the bound ``host:port``."""
        self.executor.open()
        self._recover_jobs()
        httpd = _PlaneHTTPServer(self._listen, _Handler)
        httpd.plane = self
        self._httpd = httpd
        for name, target in (
            ("repro-serve-http", httpd.serve_forever),
            ("repro-serve-dispatch", self._dispatch_loop),
            ("repro-serve-monitor", self._monitor_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self.address

    def stop(self, timeout: float = 30.0) -> None:
        """Stop serving.  Job records are deliberately left as they are
        on disk — a job caught mid-run stays ``running`` so a later
        ``--resume`` re-enqueues it, exactly like a crash would."""
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        self.executor.close()

    def _recover_jobs(self) -> None:
        with self._jobs_lock:
            for record in self._jobs.list():
                if record.state not in (jobstates.QUEUED, jobstates.RUNNING):
                    continue
                if self._resume:
                    self._jobs.transition(
                        record, jobstates.QUEUED, started=0.0
                    )
                    self._queued.add(record.job_id)
                else:
                    self._jobs.transition(
                        record,
                        jobstates.CANCELLED,
                        error="not resumed (serve restarted without --resume)",
                    )

    # ------------------------------------------------------------------
    # HTTP routing
    # ------------------------------------------------------------------

    def handle_http(
        self, method: str, path: str, body: dict
    ) -> tuple[int, dict]:
        parts = [part for part in path.split("?")[0].split("/") if part]
        if method == "GET":
            if parts == ["healthz"]:
                return 200, {"ok": True}
            if parts == ["info"]:
                return 200, self._info()
            if parts == ["workers"]:
                return 200, {
                    "workers": [asdict(i) for i in self.registry.snapshot()]
                }
            if parts == ["jobs"]:
                records = self._history.list()
                return 200, {"jobs": [self._job_view(r) for r in records]}
            if len(parts) == 2 and parts[0] == "jobs":
                return 200, {"job": self._job_view(self._get_job(parts[1]))}
            if len(parts) == 3 and parts[0] == "jobs":
                if parts[2] == "events":
                    return 200, self._job_events(parts[1])
                if parts[2] == "result":
                    return 200, self._job_result(parts[1])
        elif method == "POST":
            if parts == ["jobs"]:
                return 200, {"job": self._job_view(self.submit(body))}
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                return 200, {"job": self._job_view(self.cancel(parts[1]))}
            if len(parts) == 2 and parts[0] == "workers":
                if parts[1] == "register":
                    return 200, self.register_worker(body)
                if parts[1] == "heartbeat":
                    return 200, {
                        "known": self.registry.heartbeat(
                            self._body_address(body)
                        )
                    }
                if parts[1] == "deregister":
                    return 200, {
                        "removed": self.deregister_worker(
                            self._body_address(body)
                        )
                    }
                if parts[1] == "drain":
                    return 200, {
                        "draining": self.drain_worker(self._body_address(body))
                    }
        raise HTTPError(404, f"no route {method} {path}")

    @staticmethod
    def _body_address(body: dict) -> str:
        address = str(body.get("address") or "")
        parse_address(address)
        return address

    def _info(self) -> dict:
        jobs: dict[str, int] = {}
        for record in self._history.list():
            jobs[record.state] = jobs.get(record.state, 0) + 1
        return {
            "protocol": PROTOCOL_VERSION,
            "fingerprint": code_fingerprint(),
            "beacon": self.executor.beacon,
            "store": str(self.store.root),
            "workers": len(self.registry.snapshot()),
            "jobs": jobs,
        }

    # ------------------------------------------------------------------
    # Jobs API
    # ------------------------------------------------------------------

    def submit(self, body: dict) -> JobRecord:
        """Validate and enqueue one submission (run or sweep); ``days``
        must be null or a JSON integer that is not a bool."""
        experiment = str(body.get("experiment") or "")
        if not experiment:
            raise HTTPError(400, "submission names no experiment")
        days = body.get("days")
        if days is not None and (
            isinstance(days, bool) or not isinstance(days, int)
        ):
            raise HTTPError(400, f"days must be an integer, got {days!r}")
        params = body.get("params") or {}
        grid = body.get("grid") or None
        client = str(body.get("client") or "anonymous")
        if not isinstance(params, dict):
            raise HTTPError(400, "params must be a JSON object")
        if grid is not None and not isinstance(grid, dict):
            raise HTTPError(400, "grid must be a JSON object")
        now = time.time()
        record = JobRecord(
            job_id=JobStore.new_job_id(experiment, now),
            client=client,
            experiment=experiment,
            kind="sweep" if grid is not None else "run",
            days=days,
            params=dict(params),
            grid=dict(grid) if grid is not None else None,
            submitted=now,
        )
        # Fail loudly at the front door: unknown experiment, unknown
        # parameter, empty grid axis — all cheaper to report now than
        # after the job sat in the queue.
        self._job_requests(record)
        with self._jobs_lock:
            self._jobs.save(record)
            self._queued.add(record.job_id)
        emit(
            JobQueued(
                job_id=record.job_id, client=client, experiment=experiment
            )
        )
        with self._wake:
            self._wake.notify_all()
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel a queued job (running shards are not interruptible —
        the union DAG is executing them on behalf of the whole batch)."""
        with self._jobs_lock:
            record = self._jobs.get(job_id)
            if record.state != jobstates.QUEUED:
                raise HTTPError(
                    409,
                    f"job {job_id} is {record.state}; only queued jobs "
                    "can be cancelled",
                )
            self._queued.discard(job_id)
            return self._jobs.transition(
                record, jobstates.CANCELLED, error="cancelled by client"
            )

    def _get_job(self, job_id: str) -> JobRecord:
        with self._jobs_lock:
            try:
                return self._jobs.get(job_id)
            except ConfigurationError as error:
                raise HTTPError(404, str(error)) from error

    @staticmethod
    def _job_view(record: JobRecord) -> dict:
        return record_to_wire(record)

    def _job_events(self, job_id: str) -> dict:
        record = self._get_job(job_id)
        if not record.events_path:
            raise HTTPError(
                404, f"job {job_id} has no event trail (not finished?)"
            )
        events = read_events_jsonl(self.store.root / record.events_path)
        return {"events": [event_to_wire(event) for event in events]}

    def _job_result(self, job_id: str) -> dict:
        record = self._get_job(job_id)
        if record.state != jobstates.DONE:
            raise HTTPError(
                409, f"job {job_id} is {record.state}, not done"
            )
        runs = []
        for run_id in record.run_ids:
            manifest = self.store.get(run_id)
            runs.append(
                {
                    "run_id": run_id,
                    "experiment": manifest.experiment,
                    "params": {
                        name: repr(value)
                        for name, value in sorted(manifest.params.items())
                    },
                    "rendered": self.store.rendered(manifest),
                }
            )
        return {"job_id": job_id, "runs": runs}

    # ------------------------------------------------------------------
    # Workers API
    # ------------------------------------------------------------------

    def register_worker(self, body: dict) -> dict:
        address = self._body_address(body)
        protocol = body.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise HTTPError(
                409,
                f"protocol mismatch: control plane speaks "
                f"{PROTOCOL_VERSION}, worker announced {protocol!r}",
            )
        fingerprint = str(body.get("fingerprint") or "")
        if fingerprint != code_fingerprint():
            raise HTTPError(
                409,
                f"worker {address} runs different repro sources "
                f"(fingerprint {fingerprint!r}); deploy matching code",
            )
        # The probe goes through the task wire protocol: it proves the
        # announced address actually answers, re-checks the fingerprint
        # end-to-end, and verifies the shared-cache beacon.
        try:
            capacity = self.executor.probe(address)
        except (WorkerLostError, ConfigurationError) as error:
            raise HTTPError(
                409, f"cannot lease worker {address}: {error}"
            ) from error
        rejoined = self.registry.register(
            address,
            capacity=capacity,
            pid=int(body.get("pid") or 0),
            fingerprint=fingerprint,
        )
        emit(WorkerRegistered(worker=address, capacity=capacity))
        scheduler = self._live_scheduler()
        if scheduler is not None:
            scheduler.add_worker(address, capacity)
        with self._wake:
            self._wake.notify_all()
        return {"registered": True, "capacity": capacity, "rejoined": rejoined}

    def deregister_worker(self, address: str) -> bool:
        removed = self.registry.remove(address)
        self.executor.release(address)
        if removed:
            scheduler = self._live_scheduler()
            if scheduler is not None:
                scheduler.retire_worker(address)
            else:
                emit(WorkerRetired(worker=address))
        return removed

    def drain_worker(self, address: str) -> bool:
        """Stop leasing new shards to a worker; in-flight shards finish
        and the worker stays registered (heartbeating) until told to
        shut down or deregister."""
        draining = self.registry.drain(address)
        if not draining:
            raise HTTPError(404, f"no registered worker {address}")
        scheduler = self._live_scheduler()
        if scheduler is not None:
            scheduler.drain_worker(address)
        return True

    def _live_scheduler(self) -> GraphScheduler | None:
        with self._sched_lock:
            return self._scheduler

    def _set_scheduler(self, scheduler: GraphScheduler | None) -> None:
        with self._sched_lock:
            self._scheduler = scheduler

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batch = self._next_batch()
            if not batch:
                return  # stopping
            try:
                self._run_batch(batch)
            except Exception as error:  # defensive: loop must survive
                self._finish_failed(batch, f"internal dispatch error: {error}")

    def _next_batch(self) -> list[JobRecord]:
        """Block until there is work *and* somewhere to run it."""
        with self._wake:
            while not self._stop.is_set():
                if self.registry.leasable():
                    batch = self._claim_queued()
                    if batch:
                        return batch
                self._wake.wait(timeout=self._poll)
        return []

    def _claim_queued(self) -> list[JobRecord]:
        """Move the next batch from queued to running.

        Isolated jobs (requeued after a shared-batch payload failure)
        run one at a time; otherwise the whole queue becomes one batch —
        that union is what the fairness interleaving schedules across.
        Jobs are taken in submission order (time, then id), and only the
        queued jobs' records are read.
        """
        with self._jobs_lock:
            queued: list[JobRecord] = []
            for job_id in list(self._queued):
                try:
                    queued.append(self._jobs.get(job_id))
                except ConfigurationError:
                    self._queued.discard(job_id)  # unreadable, as `list` skips it
            queued.sort(key=lambda r: (r.submitted, r.job_id))
            isolated = [record for record in queued if record.isolate]
            take = [isolated[0]] if isolated else queued
            self._queued.difference_update(record.job_id for record in take)
            return [
                self._jobs.transition(
                    record, jobstates.RUNNING, attempts=record.attempts + 1
                )
                for record in take
            ]

    def _job_requests(self, record: JobRecord) -> list[RunRequest]:
        """The typed requests one job expands to (validates on the way)."""
        if record.kind == "sweep":
            points = expand_grid(record.grid or {})
            return [
                RunRequest.build(
                    record.experiment,
                    days=record.days,
                    overrides={**record.params, **point},
                    sweep=record.job_id,
                    client=record.client,
                )
                for point in points
            ]
        return [
            RunRequest.build(
                record.experiment,
                days=record.days,
                overrides=dict(record.params),
                client=record.client,
            )
        ]

    def _sync_slots(self) -> dict[str, int]:
        """Reconcile the executor's slot table with the registry's
        leasable set: probe joiners, release leavers.  Returns the
        resulting table ({} means nothing can run right now)."""
        leasable = self.registry.leasable()
        for address in list(self.executor.slots):
            if address not in leasable:
                self.executor.release(address)
        for address in leasable:
            if address in self.executor.slots:
                continue
            try:
                self.executor.probe(address)
            except (WorkerLostError, ConfigurationError):
                # Unreachable despite heartbeats (or a freshly broken
                # cache share): drop it; it may re-register later.
                self.registry.remove(address)
        return dict(self.executor.slots)

    def _run_batch(self, batch: list[JobRecord]) -> None:
        slots = self._sync_slots()
        if not slots:
            self._requeue(batch, reason="no leasable workers")
            # Back off: the queue is intact, a worker will wake us.
            self._stop.wait(self._poll)
            return
        requests: list[RunRequest] = []
        spans: list[tuple[JobRecord, int, int]] = []
        failed_early: list[tuple[JobRecord, str]] = []
        for record in batch:
            try:
                expanded = self._job_requests(record)
            except ConfigurationError as error:
                failed_early.append((record, str(error)))
                continue
            spans.append((record, len(requests), len(requests) + len(expanded)))
            requests.extend(expanded)
        for record, message in failed_early:
            self._finish_failed([record], message)
        if not requests:
            return

        def attach(scheduler: GraphScheduler | None) -> None:
            self._set_scheduler(scheduler)
            if scheduler is not None:
                # The dispatcher is live from here on: the dequeue
                # events land in this batch's trail.
                for record, _, _ in spans:
                    emit(JobDequeued(job_id=record.job_id))

        # The executor is already open, so the runner borrows it: pooled
        # connections and the sync beacon outlive the batch.
        runner = AsyncShardRunner(
            jobs=sum(slots.values()),
            cache=self.session.cache,
            executor=self.executor,
            on_scheduler=attach,
        )
        try:
            # Outcomes are not kept: everything a client reads back
            # (rendered text, run ids, event trail) comes from the run
            # store the session just wrote.
            self.session.run_with(runner, requests)
        except Exception as error:
            # The failed batch's trail explains the failure, so every
            # job it moves on links it (a later attempt relinks).
            trail = self.session.last_events_path
            link: dict[str, Any] = {}
            if trail is not None:
                link["events_path"] = str(trail.relative_to(self.store.root))
            records = [record for record, _, _ in spans]
            if not isinstance(error, TaskExecutionError):
                self._finish_failed(records, str(error), **link)
            elif isinstance(error.__cause__, WorkerLostError):
                self._requeue(records, reason=str(error), **link)
            elif len(records) > 1:
                # A payload failure in a shared batch: rerun each job
                # alone so the failure attaches to the job that owns it.
                self._requeue(records, reason=str(error), isolate=True, **link)
            else:
                self._finish_failed(records, str(error), **link)
            return
        manifests = self.session.last_manifests
        with self._jobs_lock:
            for record, start, end in spans:
                run_ids = [m.run_id for m in manifests[start:end]]
                events_path = (
                    manifests[start].events_path if end > start else ""
                )
                current = self._jobs.get(record.job_id)
                self._jobs.transition(
                    current,
                    jobstates.DONE,
                    run_ids=run_ids,
                    events_path=events_path,
                    error="",
                )

    def _requeue(
        self,
        records: list[JobRecord],
        *,
        reason: str,
        isolate: bool = False,
        **changes: Any,
    ) -> None:
        """Requeue ``records`` (or fail those out of attempts), applying
        ``changes`` (a failed batch's ``events_path``) to each."""
        with self._jobs_lock:
            for record in records:
                current = self._jobs.get(record.job_id)
                if current.attempts >= MAX_ATTEMPTS:
                    self._jobs.transition(
                        current,
                        jobstates.FAILED,
                        error=(
                            f"gave up after {current.attempts} attempts: "
                            f"{reason}"
                        ),
                        **changes,
                    )
                else:
                    self._jobs.transition(
                        current,
                        jobstates.QUEUED,
                        isolate=isolate or current.isolate,
                        error=reason,
                        **changes,
                    )
                    self._queued.add(current.job_id)
        with self._wake:
            self._wake.notify_all()

    def _finish_failed(
        self, records: list[JobRecord], message: str, **changes: Any
    ) -> None:
        with self._jobs_lock:
            for record in records:
                current = self._jobs.get(record.job_id)
                self._jobs.transition(
                    current, jobstates.FAILED, error=message, **changes
                )

    # ------------------------------------------------------------------
    # Heartbeat monitor
    # ------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self._poll):
            now = time.time()
            for info in self.registry.collect_stale(now):
                emit(
                    HeartbeatMissed(
                        worker=info.address,
                        silent_seconds=now - info.last_seen,
                    )
                )
                self.executor.release(info.address)
                scheduler = self._live_scheduler()
                if scheduler is not None:
                    scheduler.retire_worker(info.address)
                else:
                    emit(WorkerRetired(worker=info.address))
