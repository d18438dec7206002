"""The ``repro serve`` control plane: jobs, elastic workers, fairness.

Everything runs in-process (in-thread HTTP server, in-thread
``WorkerServer``\\ s sharing the test's registry and cache) so worker
churn, drain, and crash-resume scenarios are exact and fast; one
subprocess test pins the ``repro worker`` SIGTERM contract.
"""

import http.client
import json
import multiprocessing
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.client import ServiceClient, ServiceError
from repro.api.session import Session
from repro.errors import ConfigurationError
from repro.events.model import TaskFailed, TaskFinished, WorkerLost
from repro.events.processors import replay_events
from repro.runner import SerialRunner, RunRequest
from repro.runner.cache import code_fingerprint, configure_cache, get_cache, set_cache
from repro.runner.registry import Experiment, Param, register, unregister
from repro.runner.remote import PROTOCOL_VERSION, RemoteExecutor, WorkerServer
from repro.runner.scheduler import GraphScheduler, Task, WorkerLostError
from repro.service.agent import WorkerAgent
from repro.service.jobs import (
    JOBS_SUBDIR,
    JobRecord,
    JobStore,
    job_from_wire,
    job_to_wire,
)
from repro.service.registry import WorkerRegistry
from repro.service.server import ControlPlane


@pytest.fixture()
def fresh_cache(tmp_path):
    previous = get_cache()
    cache = configure_cache(memory=True, disk_dir=tmp_path / "cache")
    yield cache
    set_cache(previous)


@pytest.fixture()
def sum_exp():
    """A fast sharded experiment: sums scaled shard indices."""

    def _shards(params):
        return [{"part": index} for index in range(4)]

    def _run_shard(scale, part, delay=0.0, fail_part=-1):
        if part == fail_part:
            raise RuntimeError(f"svc-sum shard {part} exploded")
        if delay:
            time.sleep(delay)
        return part * scale

    def _merge(params, shards, parts):
        return {"total": sum(parts), "parts": list(parts)}

    exp = register(
        Experiment(
            name="svc-sum",
            artifact="synthetic svc-sum",
            title="service fixture",
            render=lambda value: f"total={value['total']} parts={value['parts']}",
            shards=_shards,
            run_shard=_run_shard,
            merge=_merge,
            params=(Param("scale", 1), Param("delay", 0.0), Param("fail_part", -1)),
            cacheable=False,
        )
    )
    yield exp
    unregister(exp.name)


def _make_plane(tmp_path, **kwargs):
    session = Session(cache_dir=str(tmp_path / "cache"), origin="service")
    kwargs.setdefault("poll_interval", 0.1)
    plane = ControlPlane(session=session, **kwargs)
    plane.start()
    return plane


def _joined_worker(plane, *, capacity=1, interval=0.5):
    server = WorkerServer(capacity=capacity)
    server.start_background()
    agent = WorkerAgent(plane.address, server, heartbeat_interval=interval)
    agent.start()
    assert agent.wait_registered(timeout=10.0)
    return server, agent


# ----------------------------------------------------------------------
# Job store
# ----------------------------------------------------------------------


def test_job_record_wire_round_trip(tmp_path):
    record = JobRecord(
        job_id="job-x-1",
        client="alice",
        experiment="fig4",
        kind="sweep",
        days=3,
        params={"seed": 7, "weights": (0.5, 1.5)},
        grid={"min_pts_values": [[2], [2, 4]]},
        state="queued",
        submitted=123.0,
        attempts=2,
        isolate=True,
        error="transient",
        run_ids=["r1", "r2"],
        events_path="events/t.jsonl",
    )
    assert job_from_wire(job_to_wire(record)) == record
    store = JobStore(tmp_path / "jobs")
    store.save(record)
    assert store.get("job-x-1") == record
    with pytest.raises(ConfigurationError, match="no job"):
        store.get("job-missing")


# A job record exactly as the store wrote it before records went through
# the record codec (same keys, same encoding).
_OLD_JOB_JSON = (
    '{"attempts": 1, "client": "alice", "days": 3, "error": "", '
    '"events_path": "events/fig4-20261019-160313-cccccc.jsonl", '
    '"experiment": "fig4", "finished": 1792425195.75, "format_version": 1, '
    '"grid": {"min_pts_values": [[2], [2, 4]]}, "isolate": false, '
    '"job_id": "job-fig4-20261019-160312-0a1b2c", "kind": "sweep", '
    '"params": {"seed": 7, "weights": {"__tuple__": [0.5, 1.5]}}, '
    '"run_ids": ["fig4-20261019-160313-aaaaaa", "fig4-20261019-160314-bbbbbb"], '
    '"started": 1792425193.25, "state": "done", "submitted": 1792425192.5}'
)


def test_old_job_record_reads_back_and_keeps_its_bytes(tmp_path):
    record = job_from_wire(json.loads(_OLD_JOB_JSON))
    assert record == JobRecord(
        job_id="job-fig4-20261019-160312-0a1b2c",
        client="alice",
        experiment="fig4",
        kind="sweep",
        days=3,
        params={"seed": 7, "weights": (0.5, 1.5)},
        grid={"min_pts_values": [[2], [2, 4]]},
        state="done",
        submitted=1792425192.5,
        started=1792425193.25,
        finished=1792425195.75,
        attempts=1,
        error="",
        run_ids=["fig4-20261019-160313-aaaaaa", "fig4-20261019-160314-bbbbbb"],
        events_path="events/fig4-20261019-160313-cccccc.jsonl",
    )
    store = JobStore(tmp_path / "jobs")
    store.save(record)
    on_disk = (tmp_path / "jobs" / f"{record.job_id}.json").read_text()
    assert on_disk == _OLD_JOB_JSON
    # The HTTP view is the same encoding without the format version.
    view = ControlPlane._job_view(record)
    assert view == {
        key: value
        for key, value in json.loads(_OLD_JOB_JSON).items()
        if key != "format_version"
    }


def test_job_record_states_are_checked_and_pickles_refused(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown job state"):
        JobRecord(job_id="j", client="c", experiment="fig3", state="lost")
    wire = json.loads(_OLD_JOB_JSON)
    wire["state"] = "lost"
    with pytest.raises(ConfigurationError, match="unknown job state"):
        job_from_wire(wire)
    store = JobStore(tmp_path / "jobs")
    kept = store.save(JobRecord(job_id="j", client="c", experiment="fig3"))
    # An older release pickled values the wire codec could not carry; a
    # record holding one is skipped like a torn one.
    pickled = json.loads(_OLD_JOB_JSON)
    pickled["params"]["weights"] = {"__pickle__": "gASVCQAAAAAAAACPlChLAksEkC4="}
    (tmp_path / "jobs" / "pickled.json").write_text(json.dumps(pickled))
    assert store.list() == [kept]
    with pytest.raises(ConfigurationError, match="pickled"):
        store.get("pickled")


def test_job_store_lists_in_submission_order_skipping_torn(tmp_path):
    store = JobStore(tmp_path / "jobs")
    for index, when in enumerate([30.0, 10.0, 20.0]):
        store.save(
            JobRecord(
                job_id=f"job-{index}",
                client="c",
                experiment="fig3",
                submitted=when,
            )
        )
    (tmp_path / "jobs" / "torn.json").write_text("{not json")
    assert [r.job_id for r in store.list()] == ["job-1", "job-2", "job-0"]
    assert [r.job_id for r in store.list(state="queued")] == [
        "job-1",
        "job-2",
        "job-0",
    ]


def test_job_transitions_stamp_times(tmp_path):
    store = JobStore(tmp_path / "jobs")
    record = store.save(
        JobRecord(job_id="j", client="c", experiment="fig3", submitted=1.0)
    )
    running = store.transition(record, "running", attempts=1)
    assert running.started > 0 and running.attempts == 1
    done = store.transition(running, "done", run_ids=["r"])
    assert done.finished >= running.started
    assert store.get("j").state == "done"


# ----------------------------------------------------------------------
# Worker registry
# ----------------------------------------------------------------------


def test_registry_membership_lifecycle():
    registry = WorkerRegistry(heartbeat_timeout=5.0)
    assert registry.register("h:1", capacity=2, now=100.0) is False
    assert registry.register("h:1", capacity=3, now=101.0) is True  # rejoin
    assert registry.heartbeat("h:1", now=102.0) is True
    assert registry.heartbeat("h:9", now=102.0) is False
    assert registry.leasable() == {"h:1": 3}
    assert registry.drain("h:1") is True
    assert registry.leasable() == {}  # draining: no new leases
    assert [i.draining for i in registry.snapshot()] == [True]
    # A rejoin (worker restarted) clears the drain.
    registry.register("h:1", capacity=3, now=103.0)
    assert registry.leasable() == {"h:1": 3}


def test_registry_reaps_silent_workers():
    registry = WorkerRegistry(heartbeat_timeout=2.0)
    registry.register("a:1", capacity=1, now=100.0)
    registry.register("b:2", capacity=1, now=100.0)
    registry.heartbeat("b:2", now=101.5)
    stale = registry.collect_stale(now=102.5)
    assert [i.address for i in stale] == ["a:1"]
    assert registry.leasable() == {"b:2": 1}
    # Reaped workers may come back.
    assert registry.register("a:1", capacity=1, now=103.0) is False


# ----------------------------------------------------------------------
# Fairness ranks
# ----------------------------------------------------------------------


def _client_tasks(spec):
    """``[(client, key), ...]`` -> independent tasks in that order."""
    return [
        Task(key=key, payload=None, client=client, label=str(key))
        for client, key in spec
    ]


def test_single_client_ranks_stay_fifo():
    scheduler = GraphScheduler(execute=lambda *a: None, slots={"local": 2})
    tasks = _client_tasks([("", "a"), ("", "b"), ("", "c")])
    ranks = scheduler._task_ranks(tasks)
    assert sorted(ranks, key=ranks.__getitem__) == ["a", "b", "c"]
    assert all(rank[0] == 0.0 for rank in ranks.values())


def test_multi_client_ranks_round_robin():
    scheduler = GraphScheduler(execute=lambda *a: None, slots={"local": 2})
    # alice submitted three tasks before bob's two: without fairness
    # bob would wait behind all of alice's work.
    tasks = _client_tasks(
        [
            ("alice", "a1"),
            ("alice", "a2"),
            ("alice", "a3"),
            ("bob", "b1"),
            ("bob", "b2"),
        ]
    )
    ranks = scheduler._task_ranks(tasks)
    order = sorted(ranks, key=ranks.__getitem__)
    assert order == ["a1", "b1", "a2", "b2", "a3"]


# ----------------------------------------------------------------------
# End-to-end service
# ----------------------------------------------------------------------


def test_service_job_byte_identical_to_serial(fresh_cache, tmp_path, sum_exp):
    plane = _make_plane(tmp_path)
    server = agent = None
    try:
        client = ServiceClient(plane.address)
        assert client.health()
        info = client.info()
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["fingerprint"] == code_fingerprint()
        server, agent = _joined_worker(plane)
        job = client.submit(sum_exp.name, params={"scale": 3}, client="alice")
        final = client.wait(job["job_id"], timeout=60.0)
        assert final["state"] == "done", final["error"]
        runs = client.result(job["job_id"])
        serial = SerialRunner(cache=fresh_cache).run(
            [RunRequest.build(sum_exp.name, overrides={"scale": 3})]
        )[0]
        assert runs[0]["rendered"] == serial.rendered
        # The trail carries the control-plane lifecycle events.
        events = client.events(job["job_id"])
        kinds = {type(event).__name__ for event in events}
        assert "JobDequeued" in kinds and "TaskFinished" in kinds
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        plane.stop()


def test_job_trail_folds_to_its_batch_profile(fresh_cache, tmp_path, sum_exp):
    """Each job's trail replays to the live aggregate of the batch that
    ran it: the slots leased at its start and the dials it made — none
    on the second batch, which reuses the first one's pooled
    connections."""
    plane = _make_plane(tmp_path)
    server = agent = None
    try:
        client = ServiceClient(plane.address)
        server, agent = _joined_worker(plane, capacity=2)
        for scale in (1, 2):
            job = client.submit(sum_exp.name, params={"scale": scale})
            final = client.wait(job["job_id"], timeout=60.0)
            assert final["state"] == "done", final["error"]
            live = plane.session.last_events
            assert replay_events(client.events(job["job_id"])) == live
            assert live.slots == {server.address: 2}
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        plane.stop()


def test_sweep_job_runs_every_point_tagged(fresh_cache, tmp_path, sum_exp):
    plane = _make_plane(tmp_path)
    server = agent = None
    try:
        client = ServiceClient(plane.address)
        server, agent = _joined_worker(plane, capacity=2)
        job = client.submit(
            sum_exp.name, grid={"scale": [1, 2, 3]}, client="alice"
        )
        final = client.wait(job["job_id"], timeout=60.0)
        assert final["state"] == "done", final["error"]
        assert len(final["run_ids"]) == 3
        rendered = [run["rendered"] for run in client.result(job["job_id"])]
        assert rendered == [
            f"total={6 * scale} parts={[0, scale, 2 * scale, 3 * scale]}"
            for scale in (1, 2, 3)
        ]
        manifests = plane.session.runs(sweep=job["job_id"])
        assert len(manifests) == 3  # the job id is the sweep group
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        plane.stop()


def test_submit_validates_at_the_front_door(fresh_cache, tmp_path):
    plane = _make_plane(tmp_path)
    try:
        client = ServiceClient(plane.address)
        with pytest.raises(ServiceError) as info:
            client.submit("no-such-experiment")
        assert info.value.status == 400
        with pytest.raises(ServiceError) as info:
            client.submit("fig3", params={"bogus_param": 1})
        assert info.value.status == 400
        with pytest.raises(ServiceError) as info:
            client.submit("fig10", days=3)
        assert info.value.status == 400
        assert "cannot train on 0 of 3 days" in str(info.value)
        # days must be null or a JSON integer (not a bool), and >= 1.
        for days in ("three", [3], 2.5, True, 0, -1):
            with pytest.raises(ServiceError) as info:
                client.submit("fig3", days=days)
            assert info.value.status == 400, days
        # Content-Length must be a byte count: no 500, and no read that
        # waits for the client to hang up.
        for length in ("abc", "-1", "1.5"):
            status, reply = _post_raw(plane.address, length)
            assert status == 400, (length, reply)
            assert "Content-Length" in reply["error"]
        assert client.jobs() == []  # nothing bad was enqueued
        assert JobStore(plane.session.store.root / JOBS_SUBDIR).list() == []
    finally:
        plane.stop()


def _post_raw(address, content_length):
    """POST a valid fig3 submission to /jobs under a hand-written
    ``Content-Length`` header; returns (status, decoded reply)."""
    host, port = address.rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=10.0)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", content_length)
        connection.endheaders(b'{"experiment": "fig3"}')
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read() or b"{}")
    finally:
        connection.close()


def test_failed_job_links_the_trail_that_explains_it(
    fresh_cache, tmp_path, sum_exp
):
    plane = _make_plane(tmp_path)
    server = agent = None
    try:
        client = ServiceClient(plane.address)
        server, agent = _joined_worker(plane)
        job = client.submit(sum_exp.name, params={"fail_part": 2})
        final = client.wait(job["job_id"], timeout=60.0)
        assert final["state"] == "failed"
        assert "exploded" in final["error"]
        failed = [e for e in client.events(job["job_id"]) if isinstance(e, TaskFailed)]
        assert [e.label for e in failed] == [f"{sum_exp.name}/shard2"]
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        plane.stop()


def test_failing_and_healthy_jobs_sharing_a_batch_each_keep_a_trail(
    fresh_cache, tmp_path, sum_exp
):
    """Submitted before any worker joins, both jobs run in one batch.
    The failure splits it: the healthy job still ends done, the failing
    one ends failed, and each links a trail."""
    plane = _make_plane(tmp_path)
    server = agent = None
    try:
        client = ServiceClient(plane.address)
        bad = client.submit(sum_exp.name, params={"fail_part": 1})
        good = client.submit(sum_exp.name, params={"scale": 2})
        server, agent = _joined_worker(plane)
        bad_final = client.wait(bad["job_id"], timeout=60.0)
        good_final = client.wait(good["job_id"], timeout=60.0)
        assert good_final["state"] == "done", good_final["error"]
        assert bad_final["state"] == "failed"
        assert bad_final["attempts"] == good_final["attempts"] == 2, (
            "both jobs must have shared the first batch"
        )
        bad_trail = client.events(bad["job_id"])
        assert any(isinstance(e, TaskFailed) for e in bad_trail)
        good_trail = client.events(good["job_id"])
        assert any(isinstance(e, TaskFinished) for e in good_trail)
        assert not any(isinstance(e, TaskFailed) for e in good_trail)
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        plane.stop()


def test_cancel_only_queued_jobs(fresh_cache, tmp_path, sum_exp):
    plane = _make_plane(tmp_path)  # no workers: jobs stay queued
    try:
        client = ServiceClient(plane.address)
        job = client.submit(sum_exp.name)
        cancelled = client.cancel(job["job_id"])
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError) as info:
            client.cancel(job["job_id"])
        assert info.value.status == 409
    finally:
        plane.stop()


def test_claim_reads_only_the_queued_records(
    fresh_cache, tmp_path, sum_exp, monkeypatch
):
    """With a long job history on disk, a claim decodes the queued
    records alone, takes them in submission order, leaves cancelled
    jobs behind, and claims a requeued isolated job by itself."""
    import repro.service.jobs as job_module

    plane = _make_plane(tmp_path)  # no workers: nothing claims but us
    try:
        store = JobStore(plane.session.store.root / JOBS_SUBDIR)
        for index in range(1000):
            store.save(
                JobRecord(
                    job_id=f"job-old-{index:04d}",
                    client="alice",
                    experiment=sum_exp.name,
                    state="done",
                    submitted=float(index),
                )
            )
        client = ServiceClient(plane.address)
        ids = [client.submit(sum_exp.name)["job_id"] for _ in range(3)]
        client.cancel(ids[1])
        decoded: list[str] = []
        real = job_module.job_from_wire

        def counting(payload):
            decoded.append(payload["job_id"])
            return real(payload)

        monkeypatch.setattr(job_module, "job_from_wire", counting)
        claimed = plane._claim_queued()
        assert [record.job_id for record in claimed] == [ids[0], ids[2]]
        assert all(record.state == "running" for record in claimed)
        assert sorted(decoded) == sorted([ids[0], ids[2]])
        assert plane._claim_queued() == []
        plane._requeue(claimed[1:], reason="payload failure", isolate=True)
        later = client.submit(sum_exp.name)["job_id"]
        (isolated,) = plane._claim_queued()
        assert (isolated.job_id, isolated.isolate) == (ids[2], True)
        assert [record.job_id for record in plane._claim_queued()] == [later]
        assert not any(job_id.startswith("job-old-") for job_id in decoded)
    finally:
        plane.stop()


def test_job_listings_hold_no_lock_the_queue_needs(
    fresh_cache, tmp_path, sum_exp, monkeypatch
):
    """GET /jobs and GET /info read the job history without the job
    lock: while both are held mid-scan, a submit and a job view
    complete, and the listings then return."""
    plane = _make_plane(tmp_path)  # no workers: nothing claims
    release = threading.Event()
    try:
        client = ServiceClient(plane.address)
        first = client.submit(sum_exp.name)["job_id"]
        scanning = threading.Semaphore(0)
        real = JobStore.list

        def held(self, state=None):
            scanning.release()
            release.wait(30.0)
            return real(self, state)

        monkeypatch.setattr(JobStore, "list", held)
        listed: dict[str, object] = {}
        listings = [
            threading.Thread(target=lambda: listed.update(jobs=client.jobs())),
            threading.Thread(target=lambda: listed.update(info=client.info())),
        ]
        for thread in listings:
            thread.start()
        assert scanning.acquire(timeout=10.0) and scanning.acquire(timeout=10.0)
        queued: dict[str, object] = {}

        def queue_work():
            queued["second"] = client.submit(sum_exp.name)["job_id"]
            queued["view"] = client.job(first)

        worker = threading.Thread(target=queue_work)
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive(), "a submit waited for a listing's scan"
        assert queued["view"]["state"] == "queued"
        release.set()
        for thread in listings:
            thread.join(10.0)
        assert {job["job_id"] for job in listed["jobs"]} >= {first}
        assert listed["info"]["jobs"]["queued"] >= 1
    finally:
        release.set()
        plane.stop()


# ----------------------------------------------------------------------
# Worker churn
# ----------------------------------------------------------------------


def test_heartbeat_timeout_retires_silent_worker(fresh_cache, tmp_path):
    plane = _make_plane(tmp_path, heartbeat_timeout=0.5)
    server = WorkerServer()
    server.start_background()
    try:
        client = ServiceClient(plane.address)
        # Register directly, with no agent heartbeating behind it.
        client.register_worker(
            address=server.address,
            protocol=PROTOCOL_VERSION,
            fingerprint=code_fingerprint(),
            capacity=1,
        )
        assert [w["address"] for w in client.workers()] == [server.address]
        deadline = time.monotonic() + 10.0
        while client.workers() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert client.workers() == []  # reaped as silent
        assert server.address not in plane.executor.slots
    finally:
        server.close()
        plane.stop()


class _CrashingWorker:
    """Handshakes fine, then drops the connection on any task — a host
    dying mid-shard, as seen from the control plane."""

    def __init__(self):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self._sock.settimeout(0.2)
        self.address = "127.0.0.1:%d" % self._sock.getsockname()[1]
        self.tasks_dropped = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            with conn:
                stream = conn.makefile("rwb")
                try:
                    hello = json.loads(stream.readline())
                    reply = {
                        "type": "hello",
                        "protocol": PROTOCOL_VERSION,
                        "fingerprint": code_fingerprint(),
                        "capacity": 1,
                        "shared_cache": True if hello.get("beacon") else None,
                    }
                    stream.write(json.dumps(reply).encode() + b"\n")
                    stream.flush()
                    message = json.loads(stream.readline())
                    if message.get("type") == "task":
                        self.tasks_dropped += 1
                except (ValueError, OSError):
                    pass
                finally:
                    try:
                        conn.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass

    def close(self):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sock.close()


def test_crashed_worker_shard_retries_on_survivor(
    fresh_cache, tmp_path, sum_exp
):
    plane = _make_plane(tmp_path, heartbeat_timeout=30.0)
    crasher = _CrashingWorker()
    server = agent = None
    try:
        client = ServiceClient(plane.address)
        client.register_worker(
            address=crasher.address,
            protocol=PROTOCOL_VERSION,
            fingerprint=code_fingerprint(),
            capacity=1,
        )
        server, agent = _joined_worker(plane)
        job = client.submit(sum_exp.name, params={"delay": 0.05})
        final = client.wait(job["job_id"], timeout=60.0)
        assert final["state"] == "done", final["error"]
        assert crasher.tasks_dropped >= 1
        events = client.events(job["job_id"])
        lost = [e for e in events if isinstance(e, WorkerLost)]
        assert any(e.worker == crasher.address for e in lost)
        # Every shard that produced the result ran on the survivor.
        finished = [
            e for e in events if isinstance(e, TaskFinished) and not e.local
        ]
        assert finished and all(e.worker == server.address for e in finished)
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        crasher.close()
        plane.stop()


def test_reaped_worker_rejoins_for_fresh_leases(fresh_cache, tmp_path, sum_exp):
    plane = _make_plane(tmp_path, heartbeat_timeout=30.0)
    server = agent = None
    try:
        client = ServiceClient(plane.address)
        server, agent = _joined_worker(plane, interval=0.3)
        first = client.workers()[0]["registered"]
        # Simulate a monitor reap (as a network blip would cause): the
        # agent's next heartbeat learns it is unknown and re-registers.
        plane.registry.remove(server.address)
        plane.executor.release(server.address)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            workers = client.workers()
            if workers and workers[0]["registered"] > first:
                break
            time.sleep(0.1)
        workers = client.workers()
        assert workers and workers[0]["registered"] > first
        # ... and the fresh lease carries real work.
        job = client.submit(sum_exp.name)
        assert client.wait(job["job_id"], timeout=60.0)["state"] == "done"
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        plane.stop()


def test_drained_worker_gets_no_new_leases(fresh_cache, tmp_path, sum_exp):
    plane = _make_plane(tmp_path, heartbeat_timeout=30.0)
    server_a = agent_a = server_b = agent_b = None
    try:
        client = ServiceClient(plane.address)
        server_a, agent_a = _joined_worker(plane)
        server_b, agent_b = _joined_worker(plane)
        assert client.drain(server_a.address) is True
        drained = {w["address"]: w["draining"] for w in client.workers()}
        assert drained == {server_a.address: True, server_b.address: False}
        job = client.submit(sum_exp.name)
        final = client.wait(job["job_id"], timeout=60.0)
        assert final["state"] == "done", final["error"]
        finished = [
            e
            for e in client.events(job["job_id"])
            if isinstance(e, TaskFinished) and not e.local
        ]
        assert finished
        assert all(e.worker == server_b.address for e in finished)
    finally:
        for agent in (agent_a, agent_b):
            if agent is not None:
                agent.stop()
        for server in (server_a, server_b):
            if server is not None:
                server.close()
        plane.stop()


# ----------------------------------------------------------------------
# Crash / resume
# ----------------------------------------------------------------------


def test_resume_reenqueues_unfinished_jobs(fresh_cache, tmp_path, sum_exp):
    plane = _make_plane(tmp_path)  # no workers: submissions stay queued
    client = ServiceClient(plane.address)
    queued = client.submit(sum_exp.name, params={"scale": 2})
    # A job the old plane died mid-run on: running on disk, no outcome.
    jobs = JobStore(plane.session.store.root / JOBS_SUBDIR)
    crashed = JobRecord(
        job_id="job-crashed-0001",
        client="bob",
        experiment=sum_exp.name,
        params={"scale": 3},
        state="running",
        submitted=time.time(),
        started=time.time(),
        attempts=1,
    )
    jobs.save(crashed)
    plane.stop()  # states stay as they are, exactly like a kill would

    revived = _make_plane(tmp_path, resume=True, heartbeat_timeout=30.0)
    server = agent = None
    try:
        client = ServiceClient(revived.address)
        states = {j["job_id"]: j["state"] for j in client.jobs()}
        assert states[queued["job_id"]] == "queued"
        assert states[crashed.job_id] == "queued"  # re-enqueued
        server, agent = _joined_worker(revived)
        for job_id, scale in ((queued["job_id"], 2), (crashed.job_id, 3)):
            final = client.wait(job_id, timeout=60.0)
            assert final["state"] == "done", final["error"]
            serial = SerialRunner(cache=fresh_cache).run(
                [RunRequest.build(sum_exp.name, overrides={"scale": scale})]
            )[0]
            assert client.result(job_id)[0]["rendered"] == serial.rendered
    finally:
        if agent is not None:
            agent.stop()
        if server is not None:
            server.close()
        revived.stop()


def test_fresh_start_without_resume_cancels_stale_jobs(
    fresh_cache, tmp_path, sum_exp
):
    plane = _make_plane(tmp_path)
    client = ServiceClient(plane.address)
    job = client.submit(sum_exp.name)
    plane.stop()
    fresh = _make_plane(tmp_path)  # no --resume
    try:
        view = ServiceClient(fresh.address).job(job["job_id"])
        assert view["state"] == "cancelled"
        assert "not resumed" in view["error"]
    finally:
        fresh.stop()


# ----------------------------------------------------------------------
# Graceful worker shutdown
# ----------------------------------------------------------------------


def test_graceful_shutdown_delivers_inflight_result(fresh_cache, sum_exp):
    _assert_graceful_shutdown_delivers_inflight_result(fresh_cache, sum_exp, 1)


def test_pooled_graceful_shutdown_delivers_inflight_result(fresh_cache, sum_exp):
    """At two slots the in-flight task runs in a pool member: its result
    is still delivered, and no member outlives the server."""
    _assert_graceful_shutdown_delivers_inflight_result(fresh_cache, sum_exp, 2)


def _assert_graceful_shutdown_delivers_inflight_result(cache, exp, capacity):
    known = {child.pid for child in multiprocessing.active_children()}
    server = WorkerServer(capacity=capacity)
    server.start_background()
    members = {child.pid for child in multiprocessing.active_children()} - known
    assert len(members) == (capacity if capacity > 1 else 0)
    remote = RemoteExecutor([server.address], cache=cache)
    remote.open()
    try:
        params = {"scale": 2, "delay": 0.4}
        results = []

        def _run():
            results.append(
                remote.run(
                    server.address,
                    ("shard", exp.name, params, {"part": 3}),
                )
            )

        thread = threading.Thread(target=_run)
        thread.start()
        time.sleep(0.15)  # the task is in flight now
        server.begin_graceful_shutdown()
        thread.join(timeout=10.0)
        assert results and results[0][0] == 6  # delivered, not cut
        assert server.wait_drained(timeout=5.0)
        # Post-drain connections get a clean EOF, not new leases.
        with pytest.raises(WorkerLostError):
            remote.run(server.address, ("shard", exp.name, params, {"part": 0}))
    finally:
        remote.close()
        server.close()
    assert not members & {
        child.pid for child in multiprocessing.active_children()
    }, "no pool member may outlive the server"


def test_worker_cli_sigterm_exits_zero(tmp_path):
    import repro

    src_root = str(Path(repro.__file__).parent.parent)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen",
         "127.0.0.1:0", "--no-cache"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": src_root, "PATH": "/usr/bin:/bin"},
    )
    try:
        line = process.stdout.readline()
        assert line.startswith("REPRO-WORKER-LISTEN ")
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30.0) == 0
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10.0)
        process.stdout.close()
        process.stderr.close()


def test_pooled_worker_cli_sigterm_exits_zero(process_table):
    """A two-slot ``repro worker`` forks two members; on SIGTERM it still
    exits 0, and neither member is left running."""
    import repro

    src_root = str(Path(repro.__file__).parent.parent)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen",
         "127.0.0.1:0", "--no-cache", "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": src_root, "PATH": "/usr/bin:/bin"},
    )
    members: list[int] = []
    try:
        line = process.stdout.readline()
        assert line.startswith("REPRO-WORKER-LISTEN ")
        members = process_table.children(process.pid)
        assert len(members) == 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30.0) == 0
        assert process_table.survivors(members, timeout=0.0) == []
    finally:
        if process.poll() is None:
            process.kill()
        process.wait(timeout=10.0)
        process_table.survivors(members, timeout=0.0)
        process.stdout.close()
        process.stderr.close()
