"""Process-pool members: they survive a Ctrl-C and not their owner.

Both owners of a pool (a ``Session(runner="async", jobs=2)``
coordinator and a ``repro worker --jobs 2``) run here as subprocesses
and are SIGKILLed, so no shutdown code of theirs runs: their members
must notice on their own and exit within seconds.  A SIGINT, which a
Ctrl-C sends to the owner and its members alike, must not stop a
member mid-task.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro
from repro.runner.pool import open_pool, run_in_pool
from repro.runner.registry import Experiment, register, unregister

SRC = str(Path(repro.__file__).parent.parent)
ENV = {"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"}

# A coordinator whose two shards each note their member's PID and
# then sleep, so both members are mid-task when it is killed.
SLEEPING_COORDINATOR = """
import os, sys, time
from pathlib import Path
from repro.api import Session
from repro.runner.registry import Experiment, register

out = Path(sys.argv[1])


def _run_shard(part):
    (out / f"member-{os.getpid()}").touch()
    time.sleep(120)
    return part


register(
    Experiment(
        name="pool-sleeper",
        artifact="synthetic pool-sleeper",
        title="parent-death fixture",
        render=str,
        shards=lambda params: [{"part": 0}, {"part": 1}],
        run_shard=_run_shard,
        merge=lambda params, shards, parts: list(parts),
        cacheable=False,
        deterministic=False,
    )
)
Session(runner="async", jobs=2, cache_dir=str(out / "cache")).run(["pool-sleeper"])
"""


def test_members_exit_when_the_session_coordinator_is_killed(
    tmp_path, process_table
):
    coordinator = subprocess.Popen(
        [sys.executable, "-c", SLEEPING_COORDINATOR, str(tmp_path)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    members: list[int] = []
    try:
        deadline = time.monotonic() + 60.0
        while len(list(tmp_path.glob("member-*"))) < 2:
            assert coordinator.poll() is None, coordinator.stderr.read()
            assert time.monotonic() < deadline, "both members must start a shard"
            time.sleep(0.05)
        members = process_table.children(coordinator.pid)
        assert sorted(
            int(path.name.split("-")[1]) for path in tmp_path.glob("member-*")
        ) == members
        coordinator.kill()
        coordinator.wait(timeout=10.0)
        assert process_table.survivors(members, timeout=5.0) == []
    finally:
        if coordinator.poll() is None:
            coordinator.kill()
            coordinator.wait(timeout=10.0)
        process_table.survivors(members, timeout=0.0)
        coordinator.stderr.close()


def test_members_exit_when_the_worker_is_killed(process_table):
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--listen", "127.0.0.1:0",
         "--jobs", "2", "--no-cache"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=ENV,
    )
    members: list[int] = []
    try:
        assert worker.stdout.readline().startswith("REPRO-WORKER-LISTEN ")
        members = process_table.children(worker.pid)
        assert len(members) == 2, "a two-slot worker forks two members"
        worker.send_signal(signal.SIGKILL)
        worker.wait(timeout=10.0)
        assert process_table.survivors(members, timeout=5.0) == []
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait(timeout=10.0)
        process_table.survivors(members, timeout=0.0)
        worker.stdout.close()
        worker.stderr.close()


def _ignores_sigint(pid: int) -> bool:
    """Whether process ``pid`` has SIGINT in its ignored-signal mask."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("SigIgn:"):
            return bool(int(line.split()[1], 16) & (1 << (signal.SIGINT - 1)))
    return False


def test_members_ignore_ctrl_c_mid_task(tmp_path):
    """Ctrl-C reaches every process of the foreground group; the owner
    decides what it means, so a member finishes its task regardless."""
    started = tmp_path / "started"

    def _run_shard(part):
        started.touch()
        time.sleep(0.5)
        return os.getpid()

    exp = register(
        Experiment(
            name="pool-interrupted",
            artifact="synthetic pool-interrupted",
            title="Ctrl-C fixture",
            render=str,
            shards=lambda params: [{"part": 0}],
            run_shard=_run_shard,
            merge=lambda params, shards, parts: list(parts),
            cacheable=False,
            deterministic=False,
        )
    )
    known = {child.pid for child in multiprocessing.active_children()}
    pool = open_pool(2)
    try:
        results = []
        task = threading.Thread(
            target=lambda: results.append(
                run_in_pool(pool, ("shard", exp.name, {}, {"part": 0}), False)
            )
        )
        task.start()
        deadline = time.monotonic() + 30.0
        while not started.exists():
            assert time.monotonic() < deadline, "the task must start"
            time.sleep(0.01)
        members = {c.pid for c in multiprocessing.active_children()} - known
        assert members
        # The pool forks both members at the first submit; one may still
        # be in its initializer, before it ignores SIGINT.
        for pid in members:
            while not _ignores_sigint(pid):
                assert time.monotonic() < deadline, f"member {pid} must ignore SIGINT"
                time.sleep(0.01)
        for pid in members:
            os.kill(pid, signal.SIGINT)
        task.join(timeout=30.0)
        assert not task.is_alive()
        assert results and results[0][0] in members
        assert members <= {child.pid for child in multiprocessing.active_children()}
    finally:
        pool.shutdown(cancel_futures=True)
        unregister(exp.name)
