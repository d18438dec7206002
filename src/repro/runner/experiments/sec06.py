"""Section VI — prototype-testbed validation (single unit of work).

Runs in seconds and touches none of the shared trace/ADM caches; its
shard graph is a single ``plain`` task.
"""

from __future__ import annotations

from repro.core.report import format_table
from repro.runner.registry import Param, experiment
from repro.testbed.experiment import TestbedValidation, run_testbed_validation


def _render(outcome: TestbedValidation) -> str:
    return format_table(
        "Section VI: testbed validation",
        ["Metric", "Value"],
        [
            ["Benign energy (Wh)", outcome.benign_energy_wh],
            ["Attacked energy (Wh)", outcome.attacked_energy_wh],
            ["Energy increase (%)", outcome.increase_percent],
            ["Regression rel. error", outcome.regression_error],
        ],
    )


@experiment(
    name="sec6",
    artifact="Section VI",
    title="testbed validation",
    render=_render,
    params=(Param("n_minutes", 60), Param("seed", 7)),
    tags=frozenset({"table", "testbed"}),
)
def run_sec6(n_minutes: int = 60, seed: int = 7) -> TestbedValidation:
    """The testbed validation (energy increase under MITM attack)."""
    return run_testbed_validation(n_minutes=n_minutes, seed=seed)
