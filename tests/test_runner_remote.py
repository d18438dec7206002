"""Remote execution backend: wire codec, worker protocol, failure paths.

In-process :class:`WorkerServer` threads share the test's registry and
cache, so synthetic experiments and crash scenarios are exact; one
end-to-end test (and the slow tagged-subset equality test) goes through
real ``repro worker`` subprocesses via ``workers="local:N"``.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro.core.serialization import (
    decode_wire_value,
    encode_wire_value,
    task_payload_from_wire,
    task_payload_to_wire,
)
from repro.errors import ConfigurationError
from repro.events import CachePut, collect_events, replay_events
from repro.runner import (
    AsyncShardRunner,
    RemoteExecutor,
    RemoteTaskError,
    RunRequest,
    SerialRunner,
    WorkerServer,
    all_experiments,
    cache_disabled,
    experiments_by_tag,
    get_cache,
    set_cache,
)
from repro.runner.cache import ArtifactCache, code_fingerprint, configure_cache
from repro.runner.registry import Experiment, register, unregister
from repro.runner.remote import PROTOCOL_VERSION, parse_address
from repro.runner.scheduler import TaskExecutionError, WorkerLostError


@pytest.fixture()
def fresh_cache(tmp_path):
    previous = get_cache()
    cache = configure_cache(memory=True, disk_dir=tmp_path / "cache")
    yield cache
    set_cache(previous)


@pytest.fixture()
def worker_pair():
    """Two in-process workers serving the test's registry and cache."""
    servers = [WorkerServer(), WorkerServer()]
    addresses = [server.start_background() for server in servers]
    yield addresses
    for server in servers:
        server.close()


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------


def test_wire_codec_round_trips_exactly():
    values = [
        None,
        True,
        0,
        -7,
        3.25,
        0.1,  # repr round-trip, not decimal
        "text",
        b"\x00\xffbytes",
        [1, [2, "three"], None],
        (1, 2, ("nested", b"x")),
        {"key": [1.5, (2, 3)], "other": {"deep": None}},
        np.int64(4),
        np.float64(0.25),  # float subclass: must NOT decay to builtin
        bytearray(b"mut"),
        np.arange(6).reshape(2, 3),
    ]
    for value in values:
        decoded = decode_wire_value(
            json.loads(json.dumps(encode_wire_value(value)))
        )
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(decoded, value)
        else:
            assert decoded == value
            assert type(decoded) is type(value)


def test_wire_codec_distinguishes_tuple_from_list():
    assert decode_wire_value(encode_wire_value((1, 2))) == (1, 2)
    assert decode_wire_value(encode_wire_value([1, 2])) == [1, 2]


def test_task_payload_versioned():
    payload = ("shard", "fig3", {"n_days": 3, "seed": 1}, {"house": "A"})
    assert task_payload_from_wire(task_payload_to_wire(payload)) == payload
    with pytest.raises(ConfigurationError, match="format version"):
        task_payload_from_wire({"format_version": 999})


def test_every_registered_payload_survives_the_wire():
    """Each experiment's resolved params and shard dicts must round-trip
    exactly — a payload the codec mangles would make a remote shard
    compute something else."""
    for exp in all_experiments():
        params = exp.resolve(days=5)
        shards = exp.shard_params(params) if exp.shardable else [None]
        for shard in shards:
            op = "shard" if exp.shardable else "plain"
            payload = (op, exp.name, params, shard)
            assert task_payload_from_wire(task_payload_to_wire(payload)) == payload


def test_parse_address():
    assert parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
    for bad in ("nohost", "host:", ":80", "host:port"):
        with pytest.raises(ConfigurationError, match="host:port"):
            parse_address(bad)


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------


def test_worker_executes_payload(fresh_cache, worker_pair):
    executor = RemoteExecutor(worker_pair, cache=fresh_cache)
    with executor:
        assert executor.slots == {address: 1 for address in worker_pair}
        payload = ("shard", "fig3", {"n_days": 2, "seed": 5}, {"house": "A"})
        value, seconds, events = executor.run(worker_pair[0], payload)
        assert value.house == "A"
        assert seconds > 0
        trace_puts = [
            e for e in events if isinstance(e, CachePut) and e.tier == "trace"
        ]
        assert len(trace_puts) >= 1, "telemetry must ship back"


def test_worker_ping_and_remote_error(fresh_cache, worker_pair):
    with RemoteExecutor(worker_pair, cache=fresh_cache) as executor:
        assert executor.ping(worker_pair[0])
        payload = ("shard", "no-such-exp", {}, {})
        with pytest.raises(RemoteTaskError, match="no-such-exp"):
            executor.run(worker_pair[0], payload)


def test_handshake_rejects_protocol_mismatch(worker_pair):
    host, port = parse_address(worker_pair[0])
    with socket.create_connection((host, port), timeout=5.0) as sock:
        stream = sock.makefile("rwb")
        stream.write(
            json.dumps({"type": "hello", "protocol": PROTOCOL_VERSION + 1}).encode()
            + b"\n"
        )
        stream.flush()
        reply = json.loads(stream.readline())
    assert reply["type"] == "error"
    assert "protocol mismatch" in reply["error"]["message"]


def test_shared_cache_dir_mismatch_is_rejected(tmp_path, fresh_cache):
    """A worker looking at different storage than the coordinator must
    be refused: its shards could never read what other workers stored."""
    elsewhere = ArtifactCache(memory=True, disk_dir=tmp_path / "other")
    server = WorkerServer(cache=elsewhere)
    address = server.start_background()
    try:
        with pytest.raises(ConfigurationError, match="cache"):
            RemoteExecutor([address], cache=fresh_cache).open()
    finally:
        server.close()


def test_unreachable_worker_is_reported():
    # Bind-then-close guarantees a dead port.
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead = "127.0.0.1:%d" % probe.getsockname()[1]
    probe.close()
    with pytest.raises(WorkerLostError, match="connect failed"):
        with cache_disabled():
            RemoteExecutor([dead], cache=get_cache()).open()


def test_task_connections_are_persistent(fresh_cache, worker_pair):
    """Per-slot connections are dialed once and reused: many payloads
    to one worker must not reconnect per task (ROADMAP open item)."""
    with collect_events() as run:
        with RemoteExecutor(worker_pair, cache=fresh_cache) as executor:
            address = worker_pair[0]
            payload = ("shard", "fig3", {"n_days": 2, "seed": 5}, {"house": "A"})
            for _ in range(4):
                executor.run(address, payload)
    assert run.worker_connects == {address: 1}, (
        "4 tasks over one worker should cost exactly one dial"
    )


def test_remote_task_error_keeps_the_connection(fresh_cache, worker_pair):
    """A payload raising on the worker is a *task* failure: the worker
    handler's loop is still serving, so the connection is pooled and
    the next task reuses it."""
    with collect_events() as run:
        with RemoteExecutor(worker_pair, cache=fresh_cache) as executor:
            address = worker_pair[0]
            with pytest.raises(RemoteTaskError):
                executor.run(address, ("shard", "no-such-exp", {}, {}))
            value, _, _ = executor.run(
                address, ("shard", "fig3", {"n_days": 2, "seed": 5}, {"house": "A"})
            )
    assert value.house == "A"
    assert run.worker_connects == {address: 1}


def test_large_result_spills_through_shared_cache(tmp_path, worker_pair):
    """Above the spill threshold the worker writes the result to the
    shared cache's spill tier and only a token crosses the socket; the
    coordinator redeems (and unlinks) it transparently."""
    previous = get_cache()
    cache = configure_cache(
        memory=True, disk_dir=tmp_path / "cache", spill_threshold=1
    )
    try:
        with collect_events() as coordinator:
            with RemoteExecutor(worker_pair, cache=cache) as executor:
                payload = ("shard", "fig3", {"n_days": 2, "seed": 5}, {"house": "A"})
                value, _, events = executor.run(worker_pair[0], payload)
        assert value.house == "A"
        worker = replay_events(events).cache_stats
        assert worker["spill.puts"] >= 1, "worker must have spilled"
        assert any(
            isinstance(e, CachePut) and e.tier == "spill" and e.nbytes > 0
            for e in events
        ), "the worker's spill put must come home with the result"
        assert coordinator.cache_stats["spill.hits"] >= 1, (
            "coordinator must have redeemed"
        )
        spill_dir = tmp_path / "cache" / "spill"
        assert not list(spill_dir.glob("*.raf")), "take_spill must unlink"
    finally:
        set_cache(previous)


def test_spill_disabled_without_shared_disk(worker_pair):
    """A memory-only cache has no spill side channel: results ship
    inline on the socket and no spill telemetry fires."""
    previous = get_cache()
    cache = configure_cache(memory=True, spill_threshold=1)
    try:
        with collect_events() as coordinator:
            with RemoteExecutor(worker_pair, cache=cache) as executor:
                payload = ("shard", "fig3", {"n_days": 2, "seed": 5}, {"house": "A"})
                value, _, events = executor.run(worker_pair[0], payload)
        assert value.house == "A"
        assert replay_events(events).cache_stats.get("spill.puts", 0) == 0
        assert coordinator.cache_stats.get("spill.hits", 0) == 0
    finally:
        set_cache(previous)


# ----------------------------------------------------------------------
# End-to-end through the scheduler
# ----------------------------------------------------------------------


def test_remote_matches_serial_byte_for_byte(fresh_cache, worker_pair):
    requests = [
        ("fig3", {"n_days": 3, "seed": 1}),
        ("fig6", {"n_days": 4, "seed": 3}),
    ]
    with cache_disabled():
        serial = SerialRunner().run(
            [RunRequest(name, dict(params)) for name, params in requests]
        )
    runner = AsyncShardRunner(executor=RemoteExecutor(worker_pair))
    with collect_events() as run:
        remote = runner.run(
            [RunRequest(name, dict(params)) for name, params in requests]
        )
    assert [o.name for o in remote] == [o.name for o in serial]
    for s, r in zip(serial, remote):
        assert r.rendered == s.rendered, f"{s.name} diverged under remote"
    profile = run.scheduler_profile()
    workers = {record.worker for record in profile.tasks if not record.local}
    assert workers <= set(worker_pair) and workers, "tasks must name workers"
    assert profile.slots == {address: 1 for address in worker_pair}
    # Persistent-connection telemetry: every dial shows in the profile,
    # and no worker dialed more than once per slot it served.
    connects = profile.worker_connects
    assert set(connects) <= set(worker_pair) and connects
    for address, count in connects.items():
        assert count <= profile.slots[address], (
            f"worker {address} reconnected per task ({count} dials)"
        )


def test_streaming_fleet_matches_serial_across_backends(tmp_path, worker_pair):
    """The chunked streaming fleet experiments render byte-identically
    under serial, async-thread, and remote execution — and per-run
    across different chunk widths (the shard window is a scheduling
    knob, not a model parameter)."""
    requests = [
        (
            "fleet",
            {"n_homes": 5, "n_zones": 4, "n_days": 2, "seed": 2023, "chunk": 2},
        ),
        (
            "fleet_attack",
            {
                "n_homes": 2,
                "n_zones": 4,
                "n_days": 2,
                "training_days": 1,
                "seed": 2023,
                "chunk": 1,
                "backend": "kmeans",
            },
        ),
    ]
    with cache_disabled():
        serial = SerialRunner().run(
            [RunRequest(name, dict(params)) for name, params in requests]
        )
        rechunked = SerialRunner().run(
            [
                RunRequest(name, dict(params, chunk=3))
                for name, params in requests
            ]
        )
    previous = get_cache()
    try:
        configure_cache(memory=True, disk_dir=tmp_path / "async-cache")
        threaded = AsyncShardRunner(jobs=2).run(
            [RunRequest(name, dict(params)) for name, params in requests]
        )
        configure_cache(memory=True, disk_dir=tmp_path / "remote-cache")
        remote = AsyncShardRunner(executor=RemoteExecutor(worker_pair)).run(
            [RunRequest(name, dict(params)) for name, params in requests]
        )
    finally:
        set_cache(previous)
    for s, c, t, r in zip(serial, rechunked, threaded, remote):
        assert c.rendered == s.rendered, f"{s.name} diverged across chunk widths"
        assert t.rendered == s.rendered, f"{s.name} diverged under threads"
        assert r.rendered == s.rendered, f"{s.name} diverged under remote"


@pytest.mark.slow
def test_remote_tagged_subset_matches_serial_via_subprocess_workers(fresh_cache):
    """The satellite equality check: a tagged experiment subset through
    real `repro worker` subprocesses (`local:2`) renders byte-identically
    to SerialRunner."""
    names = [exp.name for exp in experiments_by_tag("cost")]
    assert names, "the 'cost' tag must select a subset"
    requests = [RunRequest.for_days(name, days=5) for name in names]
    with cache_disabled():
        serial = SerialRunner().run(
            [RunRequest(r.experiment, dict(r.params)) for r in requests]
        )
    runner = AsyncShardRunner(executor=RemoteExecutor("local:2"))
    remote = runner.run(
        [RunRequest(r.experiment, dict(r.params)) for r in requests]
    )
    for s, r in zip(serial, remote):
        assert r.rendered == s.rendered, f"{s.name} diverged under remote"


# ----------------------------------------------------------------------
# Failure paths
# ----------------------------------------------------------------------


class _FlakyWorker:
    """Completes the handshake, then drops the connection on any task —
    what a worker host dying mid-shard looks like to the coordinator."""

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
                        # Drop the connection mid-task (a dead process's
                        # fds are closed by the OS; shutdown() is how a
                        # live fixture forces the same FIN past the
                        # still-open makefile stream).
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


def test_worker_crash_mid_shard_retries_on_survivor(fresh_cache):
    flaky = _FlakyWorker()
    solid = WorkerServer()
    solid_address = solid.start_background()
    try:
        runner = AsyncShardRunner(
            executor=RemoteExecutor([flaky.address, solid_address])
        )
        with collect_events() as run:
            outcome = runner.run_one("fig3", params={"n_days": 2, "seed": 9})
        assert outcome.rendered  # the run survived the crash
        profile = run.scheduler_profile()
        lost = [record for record in profile.tasks if record.failed]
        assert flaky.tasks_dropped >= 1, "the flaky worker must see a task"
        assert lost and all(r.worker == flaky.address for r in lost)
        # Everything that completed ran on the survivor.
        done = [r for r in profile.tasks if not r.failed and not r.local]
        assert done and all(r.worker == solid_address for r in done)
    finally:
        flaky.close()
        solid.close()


def test_all_workers_crashing_fails_with_shard_identity(fresh_cache):
    flaky = _FlakyWorker()
    try:
        runner = AsyncShardRunner(executor=RemoteExecutor([flaky.address]))
        with pytest.raises(TaskExecutionError, match="fig3") as info:
            runner.run_one("fig3", params={"n_days": 2, "seed": 9})
        assert "no live workers" in str(info.value)
        assert info.value.key is not None
    finally:
        flaky.close()


def test_cancellation_drains_inflight_remote_tasks(fresh_cache, worker_pair):
    """A failing shard cancels the rest of the graph while in-flight
    remote shards drain; the error carries the failing task identity."""
    barrier = threading.Event()

    def _shards(params):
        return [{"part": index} for index in range(4)]

    def _run_shard(part):
        if part == 0:
            barrier.wait(timeout=10.0)
            raise RuntimeError("remote shard failure")
        barrier.set()
        return part

    def _merge(params, shards, parts):  # pragma: no cover - cancelled
        raise AssertionError("merge must not run after a shard failure")

    exp = register(
        Experiment(
            name="explode-remote",
            artifact="synthetic explode-remote",
            title="remote failure fixture",
            render=str,
            shards=_shards,
            run_shard=_run_shard,
            merge=_merge,
            cacheable=False,
            deterministic=False,
        )
    )
    try:
        runner = AsyncShardRunner(executor=RemoteExecutor(worker_pair))
        with collect_events() as run:
            with pytest.raises(
                TaskExecutionError, match="remote shard failure"
            ) as info:
                runner.run([RunRequest(exp.name, {})])
        assert "explode-remote" in info.value.label
        profile = run.scheduler_profile()
        assert any(record.failed for record in profile.tasks)
        merges = [r for r in profile.tasks if r.local]
        assert not merges, "merge must not have run"
    finally:
        unregister(exp.name)


def test_invalid_worker_specs_rejected():
    with cache_disabled():
        with pytest.raises(ConfigurationError, match="local:N"):
            RemoteExecutor("local:zero", cache=get_cache()).open()
        with pytest.raises(ConfigurationError, match="no worker addresses"):
            RemoteExecutor("", cache=get_cache()).open()
