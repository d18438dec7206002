"""The outside-in tracer sees every call the program makes.

On a tiny in-process configuration of each Session workload, the
wrappers' span counts must equal the program's own counts: ``KernelTimed``
events for the ``schedule_dp_batch``, ``simulation`` and ``geometry``
kernels, and ``CacheHit`` / ``CacheMiss`` / ``CachePut`` per tier.  A call
site that bound a function before the wrappers were installed would make
the counts differ, so it cannot drop out silently.  Every batched DP
call must also sit inside a ``shatter_schedule_batch`` span, so a caller
holding its own unwrapped binding of that function (as
``repro.core.shatter`` does) fails the test too.  A second test runs the
process executor and checks that pool workers' spans come home.

The file is not collected by a plain ``pytest`` run of the repository;
run it from the checkout root with::

    python3 -m pytest perfbench/tests/trace_coverage.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from common import FLEET_PARAMS, request  # noqa: E402
from tracing import (  # noqa: E402
    NAME,
    SpanSummary,
    Tracer,
    cache_count_gap,
    load_spans,
    program_cache_counts,
    span_cache_counts,
)

TINY = {
    # fig10 runs the baselines and SHATTER schedules, fig3 simulates,
    # fleet_attack batches many homes' spans into one DP call.
    "paper_suite": [
        request("fig10", 6, seed=11),
        request("fig3", 6, seed=12),
        request("tab3", 6, seed=13),
    ],
    "fleet_attack": [
        request("fleet_attack", None, n_homes=4, seed=14, **{**FLEET_PARAMS, "chunk": 2})
    ],
}


def _run(tmp_path: Path, specs: list[dict], jobs: int):
    from repro.api import Session
    from repro.events.processors import ProfileAggregator
    from repro.runner import load_all

    load_all()
    tracer = Tracer(tmp_path / "spans").install()
    counts = ProfileAggregator()
    try:
        session = Session(cache_dir=str(tmp_path / "cache"), runner="async", jobs=jobs)
        session.subscribe(counts)
        requests = [
            session.request(spec["experiment"], days=spec["days"], **spec["params"])
            for spec in specs
        ]
        session.run(requests)  # cold
        cold = session.last_events
        session.run(requests)  # warm: result-tier hits
    finally:
        tracer.uninstall()
    return tracer, counts, cold


@pytest.mark.parametrize("workload", sorted(TINY))
def test_span_counts_equal_program_counts(workload, tmp_path):
    tracer, counts, _ = _run(tmp_path, TINY[workload], jobs=1)
    summary = SpanSummary(tracer.spans)
    kernels = {name: stat.calls for name, stat in counts.kernels.items()}
    assert kernels.get("schedule_dp_batch", 0) > 0
    assert kernels.get("geometry", 0) > 0
    assert summary.count("attack.dp_batch") == kernels.get("schedule_dp_batch", 0)
    assert summary.count("geometry.oracle") == kernels.get("geometry", 0)
    assert summary.count("hvac.simulate", "hvac.simulate_batch") == kernels.get(
        "simulation", 0
    )
    # Every SHATTER schedule goes through shatter_schedule_batch, so each
    # batched DP call must have been reached through a wrapped binding.
    assert summary.count("attack.batch") > 0
    for span in summary.spans:
        if span[NAME] == "attack.dp_batch":
            assert "attack.batch" in summary.ancestors(span)
    assert span_cache_counts(summary) == program_cache_counts(counts.cache_stats)
    # Fleet homes are generated in the shard, never through the trace tier.
    tiers = ("trace", "adm", "result") if workload == "paper_suite" else ("adm", "result")
    for tier in tiers:
        assert counts.cache_stats.get(f"{tier}.puts", 0) > 0
    if workload == "paper_suite":
        assert kernels.get("simulation", 0) > 0


def test_pool_worker_spans_come_home(tmp_path):
    tracer, counts, cold = _run(tmp_path, TINY["fleet_attack"], jobs=2)
    spans = load_spans(tmp_path / "spans")
    assert spans, "pool workers wrote no span files"
    summary = SpanSummary(spans + tracer.spans)
    pool_tasks = sum(1 for event in cold.task_events if not event.local)
    assert pool_tasks > 0
    assert summary.count("runner.task") == pool_tasks
    assert cache_count_gap(summary, counts.cache_stats) == 0
