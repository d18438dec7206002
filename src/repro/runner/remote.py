"""Remote execution backend: ship shard tasks to ``repro worker``s.

The shard-graph scheduler bounds all work by the slots it is given; on
one machine those are threads or process-pool members.  This module
crosses the machine boundary: a *worker* is a ``repro worker --listen
host:port --cache-dir <shared>`` process serving the task-payload wire
protocol (newline-delimited JSON frames, payloads encoded by
:mod:`repro.core.serialization`), and :class:`RemoteExecutor` is the
coordinator side that probes workers, leases them to the
:class:`~repro.runner.scheduler.GraphScheduler` as named slots, and
runs tasks over **persistent per-slot connections**: the worker handler
serves a multi-task loop, so a connection is dialed once (with its
handshake), checked out for one task at a time, and reused for the rest
of the run — at most ``capacity`` connections per worker, instead of
one TCP dial + handshake per task.  Every dial emits
:class:`~repro.events.model.WorkerConnected`, which the run's profile
counts per worker (``worker_connects``), so reconnect churn is visible
telemetry.

Correctness is anchored by three handshake checks on every connection:

* **protocol version** — a worker speaking a different frame layout is
  rejected instead of mis-decoding payloads;
* **code fingerprint** — coordinator and worker must run behaviourally
  identical ``repro`` sources (:func:`~repro.runner.cache.
  code_fingerprint`), otherwise a shard computed remotely could differ
  from the serial oracle;
* **shared cache dir** — when the coordinator has a disk tier it drops
  a sync beacon and the worker must see the same file, proving the
  worker reads and writes the coordinator's disk tier and spill
  directory: a trace or ADM one shard stored is there for every other
  worker, and a spilled result token resolves on the coordinator.

Failure semantics: a task exception on the worker comes back typed and
re-raises in the coordinator as :class:`RemoteTaskError` (the scheduler
wraps it with the task identity); a *transport* failure — the worker
process died, the host vanished — raises
:class:`~repro.runner.scheduler.WorkerLostError`, which the scheduler
answers by retiring the worker's slots and retrying the task on a
survivor.  Merge and render never leave the coordinator, so remote runs
stay byte-identical to :class:`~repro.runner.serial.SerialRunner`.

``--workers local:N`` (see :func:`spawn_local_workers`) runs the same
protocol against worker subprocesses on this machine, so CI and laptops
exercise the exact code path a cluster would.

The wire format embeds pickles for non-JSON values; like
:mod:`multiprocessing`, it is for trusted coordinator↔worker links
only — do not expose a worker port to untrusted networks.
"""

from __future__ import annotations

import collections
import json
import os
import socket
import socketserver
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Sequence

from repro.core.serialization import (
    decode_wire_value,
    encode_wire_value,
    task_payload_from_wire,
    task_payload_to_wire,
)
from repro.errors import ConfigurationError, ReproError
from repro.events.dispatch import emit
from repro.events.model import (
    Event,
    WorkerConnected,
    WorkerLost,
    event_from_wire,
    event_to_wire,
)
from repro.runner.async_graph import _execute_shipping
from repro.runner.cache import ArtifactCache, code_fingerprint, get_cache
from repro.runner.scheduler import WorkerLostError

# Version 2: a result frame carries the events its task emitted.
PROTOCOL_VERSION = 2

# How long a coordinator waits for a worker to answer a handshake /
# accept a connection.  Task execution itself is unbounded — shards
# legitimately run for minutes.
CONNECT_TIMEOUT = 10.0

# How long a spawned local worker gets to bind and announce its port
# (interpreter start + imports + cache setup, possibly on slow shared
# storage).
SPAWN_TIMEOUT = 30.0


class RemoteTaskError(ReproError):
    """A task's payload raised on a remote worker.

    The remote exception type and message are embedded (and the remote
    traceback kept on :attr:`remote_traceback`) so coordinator-side
    handling can match on the original error text.
    """

    def __init__(self, worker: str, exc_type: str, message: str, tb: str = ""):
        super().__init__(f"{exc_type} on worker {worker!r}: {message}")
        self.worker = worker
        self.exc_type = exc_type
        self.remote_message = message
        self.remote_traceback = tb


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _send(stream: BinaryIO, message: dict) -> None:
    stream.write(json.dumps(message, separators=(",", ":")).encode() + b"\n")
    stream.flush()


def _recv(stream: BinaryIO) -> dict | None:
    """One frame, or ``None`` on EOF.  Raises on malformed frames."""
    line = stream.readline()
    if not line:
        return None
    message = json.loads(line.decode())
    if not isinstance(message, dict) or "type" not in message:
        raise ValueError(f"malformed frame: {message!r}")
    return message


def parse_address(spec: str) -> tuple[str, int]:
    """``"host:port"`` → ``(host, port)``."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ConfigurationError(f"worker address must be host:port, got {spec!r}")
    return host, int(port)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


class _WorkerHandler(socketserver.StreamRequestHandler):
    """One coordinator connection: hello handshake, then a task loop."""

    def handle(self) -> None:  # socketserver hook
        assert isinstance(self.server, _WorkerTCPServer)
        owner = self.server.owner
        token = owner._register_connection(self.connection)
        try:
            self._serve(owner, token)
        finally:
            owner._unregister_connection(token)

    def _serve(self, owner: "WorkerServer", token: int) -> None:
        try:
            hello = _recv(self.rfile)
        except (ValueError, UnicodeDecodeError):
            return
        if hello is None or hello.get("type") != "hello":
            return
        if hello.get("protocol") != PROTOCOL_VERSION:
            _send(
                self.wfile,
                {
                    "type": "error",
                    "error": {
                        "type": "ConfigurationError",
                        "message": (
                            f"protocol mismatch: worker speaks "
                            f"{PROTOCOL_VERSION}, coordinator sent "
                            f"{hello.get('protocol')!r}"
                        ),
                    },
                },
            )
            return
        beacon = hello.get("beacon")
        _send(
            self.wfile,
            {
                "type": "hello",
                "protocol": PROTOCOL_VERSION,
                "fingerprint": code_fingerprint(),
                "capacity": owner.capacity,
                "pid": os.getpid(),
                "shared_cache": (
                    owner.cache_for_checks().check_sync_beacon(beacon)
                    if beacon
                    else None
                ),
            },
        )
        while True:
            try:
                message = _recv(self.rfile)
            except (ValueError, UnicodeDecodeError):
                return
            if message is None:
                return
            kind = message.get("type")
            if kind == "ping":
                _send(self.wfile, {"type": "pong"})
            elif kind == "shutdown":
                _send(self.wfile, {"type": "bye"})
                owner.request_shutdown()
                return
            elif kind == "task":
                # Busy until the *result is delivered*: a graceful
                # shutdown must not report drained while the reply is
                # still in flight to the coordinator.
                owner._mark_busy(token, True)
                try:
                    _send(self.wfile, self._run_task(message))
                finally:
                    owner._mark_busy(token, False)
                if owner.is_draining():
                    return  # finish-and-close: no further tasks here
            else:
                _send(
                    self.wfile,
                    {
                        "type": "error",
                        "error": {
                            "type": "ConfigurationError",
                            "message": f"unknown message type {kind!r}",
                        },
                    },
                )

    def _run_task(self, message: dict) -> dict:
        try:
            payload = task_payload_from_wire(message.get("payload") or {})
            # A coordinator with a disk tier marks the task spillable:
            # the beacon handshake already proved both sides see the
            # same storage, so a large result can travel as a token
            # instead of megabytes of JSON.
            value, token, seconds, events = _execute_shipping(
                payload, bool(message.get("spill_ok"))
            )
            reply = {
                "type": "result",
                "ok": True,
                "seconds": seconds,
                "events": [event_to_wire(event) for event in events],
            }
            if token is not None:
                reply["spill"] = token
            else:
                reply["value"] = encode_wire_value(value)
            return reply
        except BaseException as error:  # shipped to coordinator
            return {
                "type": "result",
                "ok": False,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback.format_exc(),
                },
            }


class _WorkerTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    owner: "WorkerServer"


class WorkerServer:
    """Serves shard-task payloads over TCP (the ``repro worker`` core).

    ``capacity`` is advertised to coordinators, which lease that many
    concurrent slots; the server itself handles each connection in its
    own thread and trusts the coordinator to respect the lease.
    ``cache`` overrides the cache used for the shared-dir beacon check
    (tests); task execution always goes through the process-global
    cache, which the CLI configures from ``--cache-dir``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        capacity: int = 1,
        cache: ArtifactCache | None = None,
    ) -> None:
        self._host = host
        self._port = port
        self.capacity = max(1, capacity)
        self._cache = cache
        self._server: _WorkerTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._ever_served = False
        # Graceful-shutdown bookkeeping: which coordinator connections
        # exist and which are mid-task right now.
        self._state_lock = threading.Lock()
        self._conn_seq = 0  # guarded-by: _state_lock
        self._conn_socks: dict[int, socket.socket] = {}  # guarded-by: _state_lock
        self._conn_busy: dict[int, bool] = {}  # guarded-by: _state_lock
        self._draining = False  # guarded-by: _state_lock
        self._drained = threading.Event()

    def cache_for_checks(self) -> ArtifactCache:
        return self._cache if self._cache is not None else get_cache()

    @property
    def address(self) -> str:
        assert self._server is not None, "server not started"
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> str:
        """Bind the listening socket; returns the bound ``host:port``."""
        server = _WorkerTCPServer((self._host, self._port), _WorkerHandler)
        server.owner = self
        self._server = server
        return self.address

    def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        self._ever_served = True
        self._server.serve_forever(poll_interval=0.1)

    def start_background(self) -> str:
        """Start and serve from a daemon thread (tests, embedding)."""
        address = self.start()
        self._ever_served = True
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return address

    def request_shutdown(self) -> None:
        """Stop serving (callable from handler threads and signal
        handlers), even before the serve loop has begun: ``shutdown()``
        then blocks in its daemon thread until ``serve_forever`` starts
        — whose first loop iteration sees the request and exits."""
        server = self._server
        if server is not None:
            threading.Thread(target=server.shutdown, daemon=True).start()

    # -- graceful shutdown ----------------------------------------------

    def _register_connection(self, sock: socket.socket) -> int:
        with self._state_lock:
            self._conn_seq += 1
            token = self._conn_seq
            self._conn_socks[token] = sock
            self._conn_busy[token] = False
            draining = self._draining
        if draining:
            # No new work during a drain: shut the read side so the
            # handler sees EOF (a clean close) instead of serving tasks.
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        return token

    def _unregister_connection(self, token: int) -> None:
        with self._state_lock:
            self._conn_socks.pop(token, None)
            self._conn_busy.pop(token, None)
            if self._draining and not any(self._conn_busy.values()):
                self._drained.set()

    def _mark_busy(self, token: int, busy: bool) -> None:
        with self._state_lock:
            if token in self._conn_busy:
                self._conn_busy[token] = busy
            if not busy and self._draining and not any(self._conn_busy.values()):
                self._drained.set()

    def is_draining(self) -> bool:
        with self._state_lock:
            return self._draining

    def begin_graceful_shutdown(self) -> None:
        """Finish in-flight tasks, then stop: no connection is cut
        mid-task.  Idle connections get a clean EOF immediately; each
        busy connection delivers its current result first, then closes.
        Safe to call from a signal handler (the lock is only ever held
        for dictionary updates, never across I/O or task execution).
        Pair with :meth:`wait_drained` before exiting the process."""
        with self._state_lock:
            self._draining = True
            idle = [
                sock
                for token, sock in self._conn_socks.items()
                if not self._conn_busy.get(token)
            ]
            if not any(self._conn_busy.values()):
                self._drained.set()
        for sock in idle:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        self.request_shutdown()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until every in-flight task's result has been delivered
        (only meaningful after :meth:`begin_graceful_shutdown`)."""
        return self._drained.wait(timeout)

    def close(self) -> None:
        if self._server is not None:
            if self._ever_served:
                # shutdown() waits on serve_forever's exit event, which
                # only exists once the serve loop has run.
                self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


@dataclass
class LocalWorkerPool:
    """Worker subprocesses spawned for ``--workers local:N``."""

    processes: list[subprocess.Popen] = field(default_factory=list)
    addresses: list[str] = field(default_factory=list)

    def terminate(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
            for stream in (process.stdout, process.stderr):
                if stream is not None:
                    stream.close()
        self.processes = []


_ANNOUNCE_PREFIX = "REPRO-WORKER-LISTEN "


def spawn_local_workers(
    count: int,
    *,
    cache_dir: str | Path | None,
    capacity: int = 1,
    python: str = sys.executable,
) -> LocalWorkerPool:
    """Spawn ``count`` ``repro worker`` subprocesses on this machine.

    Each binds an OS-assigned port and announces it on stdout; all share
    ``cache_dir`` as their disk tier (``--no-cache`` workers when the
    coordinator itself has no disk tier).  This is the ``local:N`` mode:
    the same wire protocol and worker code a multi-host deployment runs,
    minus the network.
    """
    if count < 1:
        raise ConfigurationError(f"need at least one local worker, got {count}")
    env = os.environ.copy()
    # The subprocess must import the same `repro` this process runs.
    import repro

    src_root = str(Path(repro.__file__).parent.parent)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    command = [python, "-m", "repro", "worker", "--listen", "127.0.0.1:0"]
    command += ["--jobs", str(max(1, capacity))]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    else:
        command += ["--no-cache"]
    pool = LocalWorkerPool()
    try:
        readers = []
        for _ in range(count):
            process = subprocess.Popen(
                command,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            pool.processes.append(process)
            # Both pipes are drained for the worker's lifetime — a
            # worker that logs more than the OS pipe buffer would
            # otherwise block in write() and hang the run — keeping a
            # bounded tail for diagnostics.
            readers.append(
                (_PipeReader(process.stdout), _PipeReader(process.stderr))
            )
        for process, (stdout, stderr) in zip(pool.processes, readers):
            line = stdout.first_line(timeout=SPAWN_TIMEOUT)
            if line is None or not line.startswith(_ANNOUNCE_PREFIX):
                detail = stderr.tail().strip() or (
                    f"({line!r})" if line is not None else "(announce timeout)"
                )
                raise ConfigurationError(f"local worker failed to start: {detail}")
            announced = line[len(_ANNOUNCE_PREFIX) :].strip()
            pool.addresses.append(announced)
    except BaseException:
        pool.terminate()
        raise
    return pool


class _PipeReader:
    """Drains one subprocess pipe from a daemon thread, keeping the
    first line (the announce) and a bounded tail for error messages."""

    def __init__(self, stream: Any, keep_lines: int = 50) -> None:
        self._stream = stream
        self._first: "collections.deque[str]" = collections.deque(maxlen=1)
        self._got_first = threading.Event()
        self._tail: "collections.deque[str]" = collections.deque(maxlen=keep_lines)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        try:
            for line in self._stream:
                if not self._got_first.is_set():
                    self._first.append(line)
                    self._got_first.set()
                self._tail.append(line)
        except (OSError, ValueError):
            pass  # pipe closed by terminate()
        self._got_first.set()  # EOF: unblock first_line() waiters

    def first_line(self, timeout: float) -> str | None:
        if not self._got_first.wait(timeout):
            return None
        return self._first[0] if self._first else None

    def tail(self) -> str:
        return "".join(self._tail)


class _SlotConnection:
    """One persistent coordinator→worker connection.

    Owned by the executor's per-worker free list; checked out by
    exactly one task at a time, so no locking is needed around the
    stream itself.  Any transport error surfaces as
    :class:`WorkerLostError` and the connection is discarded.
    """

    def __init__(self, address: str, sock: socket.socket, stream: BinaryIO):
        self.address = address
        self._sock = sock
        self._stream = stream

    def request(self, message: dict, expect: str) -> dict:
        try:
            _send(self._stream, message)
            while True:
                reply = _recv(self._stream)
                if reply is None:
                    raise WorkerLostError(
                        self.address, "connection closed mid-task"
                    )
                if reply.get("type") == expect:
                    return reply
                if reply.get("type") in ("log", "pong"):
                    continue  # telemetry frames are informational
                raise WorkerLostError(
                    self.address, f"unexpected reply {reply.get('type')!r}"
                )
        except (OSError, ValueError, UnicodeDecodeError) as error:
            raise WorkerLostError(self.address, str(error)) from error

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class RemoteExecutor:
    """Leases remote workers to the :class:`GraphScheduler` as slots.

    Usage::

        with RemoteExecutor("local:2", cache=cache) as remote:
            value, seconds, events = remote.run(address, payload)

    ``workers`` is ``"host:port,host:port"``, ``"local:N"``, or a
    sequence of addresses; :meth:`open` probes every one of them
    (handshake: protocol, code fingerprint, shared cache dir) and fills
    :attr:`slots` with each worker's advertised capacity.  With
    ``workers=None`` the executor opens with an empty table that
    :meth:`probe` and :meth:`release` grow and shrink while it is open —
    the ``repro serve`` control plane admits self-registered workers
    that way.  Task traffic flows over pooled persistent connections
    (one per busy slot); each dial emits ``WorkerConnected``.  Each
    result frame carries the events the task emitted on its worker,
    which :meth:`run` decodes and returns.
    """

    name = "remote"

    def __init__(
        self,
        workers: str | Sequence[str] | None = None,
        *,
        cache: ArtifactCache | None = None,
        connect_timeout: float = CONNECT_TIMEOUT,
    ) -> None:
        self._spec = workers
        self._cache = cache
        self._timeout = connect_timeout
        self.slots: dict[str, int] = {}
        self.is_open = False
        self._pool: LocalWorkerPool | None = None
        # The sync-beacon token workers must see (None when the
        # coordinator has no disk tier to share).
        self.beacon: str | None = None
        self._idle: dict[str, list[_SlotConnection]] = {}
        self._conn_lock = threading.Lock()

    @property
    def cache(self) -> ArtifactCache:
        return self._cache if self._cache is not None else get_cache()

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "RemoteExecutor":
        self.open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def open(self) -> None:
        addresses = [] if self._spec is None else self._resolve_addresses(self._spec)
        self.beacon = self.cache.write_sync_beacon()
        self.is_open = True
        try:
            for address in addresses:
                self.probe(address)
        except BaseException:
            self.close()
            raise

    def _resolve_addresses(self, spec: str | Sequence[str]) -> list[str]:
        if not isinstance(spec, str):
            addresses = [str(item).strip() for item in spec]
        elif spec.startswith("local:"):
            count_text = spec[len("local:") :]
            if not count_text.isdigit() or int(count_text) < 1:
                raise ConfigurationError(
                    f"--workers local:N needs a positive N, got {spec!r}"
                )
            self._pool = spawn_local_workers(
                int(count_text), cache_dir=self.cache.disk_dir
            )
            addresses = list(self._pool.addresses)
        else:
            addresses = [part.strip() for part in spec.split(",") if part.strip()]
        if not addresses:
            raise ConfigurationError(f"no worker addresses in {spec!r}")
        for address in addresses:
            parse_address(address)  # validate early, before any connect
        return addresses

    def close(self) -> None:
        with self._conn_lock:
            idle, self._idle = self._idle, {}
        for connections in idle.values():
            for connection in connections:
                connection.close()
        if self._pool is not None:
            # Only workers this executor spawned are shut down —
            # externally managed workers outlive any one run.
            for address in self._pool.addresses:
                try:
                    self._request(address, {"type": "shutdown"}, expect="bye")
                except (OSError, ValueError, WorkerLostError, ConfigurationError):
                    pass  # already gone; terminate() below still reaps it
            self._pool.terminate()
            self._pool = None
        self.slots = {}
        self.cache.remove_sync_beacon(self.beacon)
        self.beacon = None
        self.is_open = False

    # -- protocol -------------------------------------------------------

    def _connect(
        self, address: str, with_beacon: bool = False
    ) -> tuple[socket.socket, BinaryIO, dict]:
        """Open a connection and run the hello handshake.

        The shared-cache beacon rides only on probe handshakes
        (``with_beacon=True``): checking it costs the worker a stat on
        shared storage, which per-task connections should not repeat.
        """
        host, port = parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=self._timeout)
        except OSError as error:
            raise WorkerLostError(address, f"connect failed: {error}") from error
        stream = sock.makefile("rwb")
        try:
            _send(
                stream,
                {
                    "type": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "fingerprint": code_fingerprint(),
                    "beacon": self.beacon if with_beacon else None,
                },
            )
            reply = _recv(stream)
        except (OSError, ValueError, UnicodeDecodeError) as error:
            sock.close()
            raise WorkerLostError(address, f"handshake failed: {error}") from error
        # Task execution can legitimately take minutes; only the
        # handshake is deadline-bounded.
        sock.settimeout(None)
        if reply is None:
            sock.close()
            raise WorkerLostError(address, "connection closed during handshake")
        if reply.get("type") == "error":
            detail = reply.get("error") or {}
            sock.close()
            raise ConfigurationError(
                f"worker {address} rejected handshake: {detail.get('message')}"
            )
        if reply.get("type") != "hello":
            sock.close()
            raise WorkerLostError(address, f"unexpected handshake reply {reply!r}")
        return sock, stream, reply

    def probe(self, address: str) -> int:
        """Handshake with ``address`` and admit it to the slot table;
        returns its capacity.  Raises :class:`WorkerLostError` when the
        worker is unreachable and :class:`ConfigurationError` on a
        protocol, fingerprint, or shared-cache mismatch."""
        sock, stream, hello = self._connect(address, with_beacon=True)
        try:
            theirs = hello.get("fingerprint")
            if theirs != code_fingerprint():
                raise ConfigurationError(
                    f"worker {address} runs different repro sources "
                    f"(fingerprint {theirs!r} != {code_fingerprint()!r}); "
                    "a remote shard could diverge from the serial oracle — "
                    "deploy matching code to every worker"
                )
            if self.beacon is not None and hello.get("shared_cache") is not True:
                raise ConfigurationError(
                    f"worker {address} does not see the coordinator's cache "
                    f"dir {self.cache.disk_dir} — remote workers must be "
                    "started with the same (shared) --cache-dir"
                )
            capacity = max(1, int(hello.get("capacity") or 1))
        finally:
            sock.close()
        self.slots[address] = capacity
        return capacity

    def release(self, address: str) -> None:
        """Forget a departed worker: drop its slots and close any pooled
        connections to it (idempotent)."""
        self.slots.pop(address, None)
        self._drop_connections(address)

    def _request(self, address: str, message: dict, expect: str) -> dict:
        """One request/response exchange on a fresh connection."""
        sock, stream, _ = self._connect(address)
        connection = _SlotConnection(address, sock, stream)
        try:
            return connection.request(message, expect)
        finally:
            connection.close()

    def ping(self, address: str) -> bool:
        try:
            self._request(address, {"type": "ping"}, expect="pong")
            return True
        except (WorkerLostError, ConfigurationError):
            return False

    # -- persistent task connections ------------------------------------

    def _checkout(self, address: str) -> _SlotConnection:
        """An idle pooled connection to ``address``, or a fresh dial."""
        with self._conn_lock:
            idle = self._idle.get(address)
            if idle:
                return idle.pop()
        sock, stream, _ = self._connect(address)
        # Task dials only: the probe handshake exists per worker by design.
        emit(WorkerConnected(worker=address))
        return _SlotConnection(address, sock, stream)

    def _checkin(self, connection: _SlotConnection) -> None:
        with self._conn_lock:
            self._idle.setdefault(connection.address, []).append(connection)

    def _drop_connections(self, address: str) -> None:
        """Discard every pooled connection to a worker that just died —
        they all share the fate of the process behind them."""
        with self._conn_lock:
            connections = self._idle.pop(address, [])
        for connection in connections:
            connection.close()

    def run(self, address: str, payload: tuple) -> tuple[Any, float, list[Event]]:
        """Execute one task payload on ``address``.

        Returns ``(value, compute seconds, events)``, the events being
        what the payload emitted on the worker.  Raises
        :class:`WorkerLostError` on transport failure (scheduler retries
        elsewhere) and :class:`RemoteTaskError` when the payload itself
        raised on the worker.  The connection is leased from the
        per-worker pool and returned afterwards — a remote *task* error
        leaves the connection healthy (the worker handler's loop is
        already waiting for the next frame), only transport failures
        discard it.
        """
        connection = self._checkout(address)
        try:
            reply = connection.request(
                {
                    "type": "task",
                    "payload": task_payload_to_wire(payload),
                    # Invite the worker to spill oversized results into
                    # the shared disk tier instead of the socket.
                    "spill_ok": self.cache.disk_dir is not None,
                },
                expect="result",
            )
        except WorkerLostError as error:
            emit(WorkerLost(worker=address, reason=str(error)))
            connection.close()
            self._drop_connections(address)
            raise
        except BaseException:
            connection.close()
            raise
        self._checkin(connection)
        if reply.get("ok"):
            if "spill" in reply:
                try:
                    value = self.cache.take_spill(str(reply["spill"]))
                except ConfigurationError as error:
                    # The worker claims it spilled but the payload is
                    # missing or torn on our side of the shared dir —
                    # treat the worker as lost so the scheduler retries
                    # the task on a surviving slot.
                    emit(WorkerLost(worker=address, reason=str(error)))
                    self._drop_connections(address)
                    raise WorkerLostError(address, str(error)) from error
            else:
                value = decode_wire_value(reply.get("value"))
            return (
                value,
                float(reply.get("seconds") or 0.0),
                [event_from_wire(wire) for wire in reply.get("events") or ()],
            )
        detail = reply.get("error") or {}
        raise RemoteTaskError(
            worker=address,
            exc_type=str(detail.get("type") or "Exception"),
            message=str(detail.get("message") or ""),
            tb=str(detail.get("traceback") or ""),
        )
