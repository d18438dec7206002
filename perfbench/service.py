"""The ``service_mixed`` workload: ``repro serve`` plus one joined worker,
driven by a single-threaded open-loop generator playing two tenants.

Each cycle, tenant ``bulk`` submits an uncached ``fleet_attack`` job
(fresh seed per cycle, so it is never a replay).  Once that job reports
``running``, tenant ``interactive`` submits small jobs on a fixed
schedule (one every ``SMALL_INTERVAL_S``), each replaying a paper
artifact that set-up cached.  Waiting for ``running`` keeps runs steady:
without the gate, timing decides which small jobs share the long job's
batch.  A small job's latency runs from its due time to its record's
``finished``; how late the generator sent it is recorded too.

Everything here is measured from outside the plane: client-side call
timing, the job records' timestamps, and each job's event trail read
through ``ServiceClient.events``.
"""

from __future__ import annotations

import selectors
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BENCH,
    JOBS,
    ROOT,
    SMALL_INTERVAL_S,
    SMALLS_PER_CYCLE,
    WORK,
    child_env,
    service_long_request,
    service_small_requests,
    timed_replay,
    write_json,
)

TERMINAL = ("done", "failed", "cancelled")
STATUS_POLL_S = 0.01  # while waiting for the long job to report running
WAIT_POLL_S = 0.1  # while waiting for jobs to finish
WARM_REPLAYS = 3  # fresh-process replays of the small jobs, after the cycles


def _announce(proc: subprocess.Popen, prefix: str, timeout: float) -> str:
    """Read the child's ``PREFIX host:port`` announce line."""
    deadline = time.monotonic() + timeout
    selector = selectors.DefaultSelector()
    selector.register(proc.stdout, selectors.EVENT_READ)
    try:
        while time.monotonic() < deadline:
            if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                break
            line = proc.stdout.readline()
            if not line:
                break
            if line.startswith(prefix):
                return line.split()[1]
    finally:
        selector.close()
    raise RuntimeError(f"{prefix} not announced within {timeout}s")


class Plane:
    """A ``repro serve`` process and one ``repro worker --join`` process
    sharing a fresh cache dir."""

    def __init__(self, cache_dir: Path, trace_dir: Path | None = None) -> None:
        self.cache_dir = cache_dir
        self.trace_dir = trace_dir
        self.serve: subprocess.Popen | None = None
        self.worker: subprocess.Popen | None = None
        self.address = ""

    def _spawn(self, command: str, args: list[str]) -> subprocess.Popen:
        env = child_env()
        program = ["-m", "repro"]
        if self.trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(self.trace_dir / command)
            program = [str(BENCH / "traced_repro.py")]
        return subprocess.Popen(
            [sys.executable, *program, command, *args, "--cache-dir", str(self.cache_dir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )

    def start(self) -> str:
        self.serve = self._spawn("serve", ["--listen", "127.0.0.1:0"])
        self.address = _announce(self.serve, "REPRO-SERVE-LISTEN", 60)
        self.worker = self._spawn("worker", ["--join", self.address, "--jobs", str(JOBS)])
        _announce(self.worker, "REPRO-WORKER-LISTEN", 60)
        return self.address

    def peak_rss_mb(self) -> float:
        """The plane's peak resident set (VmHWM), read while it runs."""
        assert self.serve is not None
        for line in Path(f"/proc/{self.serve.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        for proc in (self.worker, self.serve):
            if proc is None or proc.poll() is not None:
                continue
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10)
        for proc in (self.worker, self.serve):
            if proc is not None and proc.stdout is not None:
                proc.stdout.close()


class Generator:
    """The single-threaded client: every call is timed."""

    def __init__(self, address: str) -> None:
        from repro.api import ServiceClient

        self.client = ServiceClient(address, timeout=30.0)
        self.submit_rtt: list[float] = []
        self.status_rtt: list[float] = []

    def submit(self, spec: dict, tenant: str) -> dict:
        started = time.perf_counter()
        view = self.client.submit(
            spec["experiment"], days=spec["days"], params=spec["params"], client=tenant
        )
        self.submit_rtt.append(time.perf_counter() - started)
        return view

    def job(self, job_id: str) -> dict:
        started = time.perf_counter()
        view = self.client.job(job_id)
        self.status_rtt.append(time.perf_counter() - started)
        return view

    def wait_all(self, job_ids: list[str], timeout: float = 120.0) -> dict[str, dict]:
        """Wait for every job, polling one job at a time, in order.

        Latencies come from the records' own stamps, so the poll rate
        only decides when the generator moves on.  Polling one job every
        ``WAIT_POLL_S`` keeps the generator's HTTP load, and with it the
        plane's, off the two cores the worker computes on.
        """
        done: dict[str, dict] = {}
        deadline = time.monotonic() + timeout
        for job_id in job_ids:
            while True:
                view = self.job(job_id)
                if view["state"] in TERMINAL:
                    done[job_id] = view
                    break
                if time.monotonic() > deadline:
                    raise RuntimeError("service jobs did not finish in time")
                time.sleep(WAIT_POLL_S)
        return done


def _wait_worker(generator: Generator, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if generator.client.workers():
            return
        time.sleep(0.02)
    raise RuntimeError("worker did not register with the plane")


def setup(
    seed: int, cache_dir: Path, trace_dir: Path | None = None
) -> tuple[Plane, Generator, list[dict], float]:
    """Plane bound, worker registered, small artifacts cached.  Returns
    the running plane, the client, the small jobs' views and set-up s."""
    # Wall clock, because set-up ends at the last small job's record
    # ``finished`` stamp (the plane's clock, on this machine), not when a
    # status poll happened to notice it.
    spawned = time.time()
    plane = Plane(cache_dir, trace_dir)
    try:
        address = plane.start()
        generator = Generator(address)
        _wait_worker(generator)
        views = [generator.submit(spec, "setup") for spec in service_small_requests(seed)]
        finished = generator.wait_all([view["job_id"] for view in views])
    except BaseException:
        plane.stop()
        raise
    setup_s = max(view["finished"] for view in finished.values()) - spawned
    return plane, generator, [finished[view["job_id"]] for view in views], setup_s


def run_cycle(generator: Generator, seed: int, cycle: int) -> dict:
    """One bulk job plus the gated open-loop burst of small jobs."""
    smalls = service_small_requests(seed)
    long_spec = service_long_request(seed, cycle)
    long_view = generator.submit(long_spec, "bulk")
    long_id = long_view["job_id"]
    while True:
        view = generator.job(long_id)
        if view["state"] == "running":
            break
        if view["state"] in TERMINAL:
            raise RuntimeError(f"long job ended {view['state']} before running")
        time.sleep(STATUS_POLL_S)
    gate = time.time()
    small_jobs = []
    for index in range(SMALLS_PER_CYCLE):
        due = gate + index * SMALL_INTERVAL_S
        pause = due - time.time()
        if pause > 0:
            time.sleep(pause)
        sent = time.time()
        spec = smalls[index % len(smalls)]
        view = generator.submit(spec, "interactive")
        small_jobs.append(
            {"job_id": view["job_id"], "due": due, "late": sent - due,
             "ref": index % len(smalls)}
        )
    finished = generator.wait_all([long_id] + [job["job_id"] for job in small_jobs])
    return {"long": finished[long_id], "long_spec": long_spec, "smalls": small_jobs,
            "views": finished}


def service_pass(seed: int, cycles: int, setups: int, trace_dir: Path | None = None) -> dict:
    """Set up ``setups`` times (the last plane is kept), run ``cycles``
    cycles, then — outside the timed region — replay the small jobs
    from fresh processes, read the plane's peak RSS, and fetch every
    job's result (and, with ``trace_dir``, its event trail).  With
    ``trace_dir`` the kept plane and worker run with the tracer."""
    work = Path(tempfile.mkdtemp(prefix="svc-", dir=WORK))
    result: dict = {"setup_s": [], "clock": [time.time(), time.perf_counter()]}
    try:
        for number in range(setups - 1):
            plane, _, _, setup_s = setup(seed, work / f"setup{number}")
            plane.stop()
            result["setup_s"].append(setup_s)
        plane, generator, setup_views, setup_s = setup(seed, work / "cache", trace_dir)
        result["setup_s"].append(setup_s)
        result["setup_views"] = setup_views
        try:
            done = [run_cycle(generator, seed, number) for number in range(cycles)]
            result["cycles"] = done
            result["submit_rtt"] = generator.submit_rtt
            result["status_rtt"] = generator.status_rtt
            result["rss_mb"] = plane.peak_rss_mb()
            requests = work / "small.json"
            write_json(requests, service_small_requests(seed))
            result["warm"] = [
                timed_replay(requests, plane.cache_dir, work / "replay.json")
                for _ in range(WARM_REPLAYS)
            ]
            jobs = list(setup_views)
            for cycle in done:
                jobs.extend(cycle["views"].values())
            result["rendered"] = {
                view["job_id"]: generator.client.result(view["job_id"])[0]["rendered"]
                for view in jobs
                if view["state"] == "done"
            }
            if trace_dir is not None:
                trails: dict[str, list] = {}
                for view in jobs:
                    path = view.get("events_path") or view["job_id"]
                    if path not in trails:
                        trails[path] = generator.client.events(view["job_id"])
                result["trails"] = list(trails.values())
        finally:
            plane.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return result
