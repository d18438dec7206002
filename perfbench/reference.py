"""Reference outputs: the same requests through ``SerialRunner``.

``reference_digests(specs)`` returns one SHA-256 of the rendered text per
request spec.  References are computed once per (requests, program
code) and kept under ``.perfbench/ref/``, outside every timed region.
The specs are split over two processes (the box has two cores); each
runs ``SerialRunner`` on its own disk-only cache, so prepares shared
between its requests are computed once and memory stays flat.

Run as a script it computes one group: ``reference.py <in.json> <out.json>``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import BENCH, WORK, child_env, read_json, write_json

# Rough serial cost of each request at the workloads' sizes (seconds),
# used only to balance the two reference processes.
_WEIGHTS = {"tab5": 8.0, "tab6": 2.0, "tab7": 2.1, "fig5": 1.6, "fig10": 1.4, "fig3": 1.3}


def _weight(spec: dict) -> float:
    if spec["experiment"] == "fleet_attack":
        return 0.02 * spec["params"].get("n_homes", 6)
    return _WEIGHTS.get(spec["experiment"], 0.6)


def _fingerprint() -> str:
    from repro.runner.cache import code_fingerprint

    return code_fingerprint()


def reference_digests(specs: list[dict]) -> list[str]:
    key = hashlib.sha256(
        json.dumps([specs, _fingerprint()], sort_keys=True).encode()
    ).hexdigest()[:24]
    path = WORK / "ref" / f"{key}.json"
    if path.exists():
        return read_json(path)
    groups: list[list[int]] = [[], []]
    loads = [0.0, 0.0]
    for index in sorted(range(len(specs)), key=lambda i: -_weight(specs[i])):
        lightest = loads.index(min(loads))
        groups[lightest].append(index)
        loads[lightest] += _weight(specs[index])
    scratch = Path(tempfile.mkdtemp(prefix="ref-", dir=WORK))
    try:
        procs = []
        for number, group in enumerate(groups):
            if not group:
                continue
            source = scratch / f"in{number}.json"
            write_json(source, [specs[i] for i in group])
            target = scratch / f"out{number}.json"
            procs.append(
                (
                    group,
                    target,
                    subprocess.Popen(
                        [sys.executable, str(BENCH / "reference.py"), str(source), str(target)],
                        env=child_env(),
                        stdout=subprocess.DEVNULL,
                        stderr=subprocess.PIPE,
                        text=True,
                    ),
                )
            )
        digests = [""] * len(specs)
        errors = []
        for group, target, proc in procs:
            _, stderr = proc.communicate(timeout=170)
            if proc.returncode != 0:
                errors.append(stderr[-2000:])
                continue
            for index, value in zip(group, read_json(target)):
                digests[index] = value
        if errors:
            raise RuntimeError("reference computation failed:\n" + "\n".join(errors))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    write_json(path, digests)
    return digests


def _compute(source: Path, target: Path) -> None:
    from repro.runner import ArtifactCache, RunRequest, SerialRunner

    specs = read_json(source)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=target.parent))
    runner = SerialRunner(cache=ArtifactCache(memory=False, disk_dir=cache_dir))
    outcomes = runner.run(
        [
            RunRequest.build(spec["experiment"], days=spec["days"], overrides=spec["params"])
            for spec in specs
        ]
    )
    write_json(
        target,
        [hashlib.sha256(outcome.rendered.encode()).hexdigest() for outcome in outcomes],
    )


if __name__ == "__main__":
    _compute(Path(sys.argv[1]), Path(sys.argv[2]))
