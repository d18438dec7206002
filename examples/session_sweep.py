"""Drive a fleet parameter sweep through the `repro.api` Session layer.

The Session is the programmatic front door the CLI itself sits on: this
script runs the `fleet` scaling experiment across several fleet sizes
as ONE sweep — every point runs in one batch through the session's
backend, here a single union shard graph on two local processes — then
queries the persistent run store the sweep left behind.

Run it (uses $REPRO_CACHE_DIR, or a throwaway temp dir)::

    PYTHONPATH=src python examples/session_sweep.py

Inspect the same history from the shell afterwards::

    PYTHONPATH=src python -m repro runs list --cache-dir <printed dir>
"""

from __future__ import annotations

import os
import tempfile

from repro.api import Session


def main() -> None:
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or tempfile.mkdtemp(
        prefix="repro-session-sweep-"
    )
    session = Session(cache_dir=cache_dir, jobs=2)

    print(f"cache + run store: {cache_dir}")
    print("sweeping the batched fleet simulation over fleet sizes...\n")
    sweep = session.sweep(
        "fleet",
        grid={"n_homes": [2, 4, 6]},
        base={"n_zones": 2, "n_days": 1},
    )

    for point, outcome in sweep:
        per_home = sum(outcome.value.daily_cost) / point["n_homes"]
        print(
            f"  n_homes={point['n_homes']}: "
            f"fleet ${sum(outcome.value.daily_cost):.3f}/day "
            f"(${per_home:.3f}/home), {outcome.seconds:.2f}s"
            f"{' [cached]' if outcome.cached else ''}"
        )

    print(f"\nsweep id: {sweep.sweep_id}")
    print("persisted run manifests:")
    for manifest in session.runs(sweep=sweep.sweep_id):
        print(
            f"  {manifest.run_id}  n_homes={manifest.params['n_homes']}  "
            f"runner={manifest.runner}"
        )

    # The store answers "what changed?" without re-running anything.
    first, last = sweep.manifests[0], sweep.manifests[-1]
    diff = session.diff_runs(first.run_id, last.run_id)
    changed = ", ".join(
        f"{name}: {a!r} -> {b!r}" for name, (a, b) in diff.param_changes.items()
    )
    print(f"\ndiff {first.run_id} vs {last.run_id}: {changed}")


if __name__ == "__main__":
    main()
