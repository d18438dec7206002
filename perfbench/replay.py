"""A fresh-process warm replay, doing what ``repro run`` does.

``repro run <names> --days 6 --jobs 2`` takes no per-experiment
parameters, so it cannot name the seeded requests the workloads make.
This script makes the same calls the CLI makes — ``Session(runner="auto",
jobs=2, origin="cli")``, ``session.run(...)``, print every rendered
artifact — for the requests in ``--requests``, and writes their
rendered-text digests to ``--out`` for the output check.

With ``$PERFBENCH_TRACE_DIR`` set it installs the outside-in tracer first.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from common import JOBS, read_json, write_json


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--requests", required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    from tracing import install_from_env

    install_from_env()
    from repro.api import Session

    session = Session(cache_dir=args.cache_dir, runner="auto", jobs=JOBS, origin="cli")
    specs = read_json(Path(args.requests))
    outcomes = session.run(
        [
            session.request(spec["experiment"], days=spec["days"], **spec["params"])
            for spec in specs
        ]
    )
    for outcome in outcomes:
        print(f"=== {outcome.name} ===")
        print(outcome.rendered)
        print()
    write_json(
        Path(args.out),
        [
            hashlib.sha256(outcome.rendered.encode()).hexdigest() if outcome.cached else ""
            for outcome in outcomes
        ],
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
