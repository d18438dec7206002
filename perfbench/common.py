"""Workload definitions and small helpers shared by the benchmark's scripts.

Every script in this directory runs with the checkout root as its
working directory and imports the program from ``<root>/src``.  Nothing
here imports :mod:`repro` at module level: the harness must be able to
report a missing program tree before it touches it.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
# Scratch space for cache dirs, span files and cached references.  It is
# inside the checkout (the benchmark reads and writes nowhere else) and
# ignored by git.
WORK = ROOT / ".perfbench"

JOBS = 2  # the reference box has nproc = 2: jobs=2, one worker with 2 slots
DAYS = 6
CLI_REPLAYS = 3  # fresh-process warm replays per pass
TIERS = ("trace", "adm", "rewards", "result")  # cache tiers with a hit ratio

# Every deterministic registered experiment.  fig11a/fig11b are left out:
# they are uncacheable, their output is their own timings (so it cannot be
# checked against a reference), and their ~3.3 s would hide warm-replay
# regressions.
PAPER_SUITE = (
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig10",
    "fleet",
    "fleet_attack",
    "sec6",
    "tab3",
    "tab4",
    "tab5",
    "tab6",
    "tab7",
)

FLEET_HOMES = 256
FLEET_PARAMS = {"n_zones": 4, "n_days": 6, "training_days": 2, "chunk": 8}

# service_mixed: the bulk tenant's long job and the interactive tenant's
# small jobs (cheap paper artifacts that set-up caches, so every small
# job is a result-tier replay).
SERVICE_LONG_HOMES = 64
SERVICE_SMALL = ("sec6", "tab3", "fig6", "fleet")
SMALLS_PER_CYCLE = 8
SMALL_INTERVAL_S = 0.25


def digest(text: str) -> str:
    """SHA-256 of a rendered artifact, for the output check."""
    return hashlib.sha256(text.encode()).hexdigest()


def derive_seed(seed: int, label: str) -> int:
    """A deterministic experiment seed for one request of a workload."""
    return zlib.crc32(f"{seed}:{label}".encode()) % 100_000


def request(experiment: str, days: int | None, **params) -> dict:
    return {"experiment": experiment, "days": days, "params": params}


def paper_requests(seed: int) -> list[dict]:
    return [request(name, DAYS, seed=derive_seed(seed, name)) for name in PAPER_SUITE]


def fleet_requests(seed: int) -> list[dict]:
    return [
        request(
            "fleet_attack",
            None,
            n_homes=FLEET_HOMES,
            seed=derive_seed(seed, "fleet_attack"),
            **FLEET_PARAMS,
        )
    ]


def service_small_requests(seed: int) -> list[dict]:
    return [
        request(name, DAYS, seed=derive_seed(seed, f"small:{name}"))
        for name in SERVICE_SMALL
    ]


def service_long_request(seed: int, cycle: int) -> dict:
    return request(
        "fleet_attack",
        None,
        n_homes=SERVICE_LONG_HOMES,
        seed=derive_seed(seed, f"long:{cycle}"),
        **FLEET_PARAMS,
    )


def home_days(req: dict) -> int:
    params = req["params"]
    return params["n_homes"] * (params["n_days"] - params["training_days"])


def child_env() -> dict:
    """Environment for every child process: the program from ``src``,
    and no inherited cache location."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_CACHE_DIR", None)
    return env


def timed_replay(
    requests: Path, cache_dir: Path, out: Path, trace_dir: Path | None = None
) -> tuple[float, list[str]]:
    """Process start to exit of one fresh-process warm replay
    (``replay.py``); returns the seconds and the rendered digests."""
    env = child_env()
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, str(BENCH / "replay.py"), "--requests", str(requests),
         "--cache-dir", str(cache_dir), "--out", str(out)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        check=False,
    )
    seconds = time.monotonic() - started
    if completed.returncode != 0:
        raise RuntimeError(f"warm replay failed:\n{completed.stderr[-2000:]}")
    return seconds, read_json(out)


def host_loop_s(iterations: int = 2_000_000) -> float:
    """Seconds a fixed pure-Python loop takes.

    Recorded with every run's provenance, at its start and its end, as a
    record of the host's speed: on a shared machine it drifts, and every
    wall time drifts with it.  It is not a metric and scales nothing.
    """
    start = time.perf_counter()
    total = 0
    for number in range(iterations):
        total += number
    return time.perf_counter() - start


def read_json(path: Path):
    return json.loads(Path(path).read_text())


def write_json(path: Path, value) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(value, sort_keys=True))
    os.replace(tmp, path)


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile that has at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With ``n`` samples sorted
    ascending, the sample at index ``n - 11`` has exactly ten above it;
    its percentile is ``100 * (n - 10) / n``.  With fewer than eleven
    samples no such percentile exists and the maximum is returned, with
    percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n < 11:
        return float(ordered[-1]), 100.0, n
    return float(ordered[n - 11]), 100.0 * (n - 10) / n, n
