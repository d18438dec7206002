"""Serial and parallel runners must produce identical artifacts."""

import numpy as np
import pytest

from repro.runner import (
    RunnerPolicy,
    RunRequest,
    SerialRunner,
    build_runner,
    cache_disabled,
    get_experiment,
)

# Small-scale requests spanning plain, sharded, and multi-shard shapes.
SMALL_REQUESTS = [
    ("fig3", {"n_days": 3, "seed": 1}),
    ("fig4", {"n_days": 5, "seed": 2023, "min_pts_values": [3, 6], "k_values": [2, 4]}),
    ("fig6", {"n_days": 5, "seed": 3}),
]


def _requests():
    return [RunRequest(name, dict(params)) for name, params in SMALL_REQUESTS]


def _process_runner(jobs=2):
    """The graph runner on its process-pool executor, as ``--jobs N``
    builds it."""
    return build_runner(RunnerPolicy(backend="async", jobs=jobs))


def test_capabilities_declared():
    serial = SerialRunner().capabilities
    assert serial.name == "serial"
    pool = _process_runner(jobs=3).capabilities
    assert pool.name == "async-graph[process]"


def test_serial_matches_direct_invocation():
    from repro.runner.experiments import run_fig6

    with cache_disabled():
        outcome = SerialRunner().run_one("fig6", params={"n_days": 5, "seed": 3})
    direct = run_fig6(n_days=5, seed=3)
    assert outcome.rendered == "\n\n".join(r.rendered for r in direct)
    assert outcome.shards == 2
    assert [r.backend for r in outcome.value] == [r.backend for r in direct]
    for mine, theirs in zip(outcome.value, direct):
        assert mine.total_area == pytest.approx(theirs.total_area)


def test_serial_execution_is_deterministic():
    with cache_disabled():
        first = SerialRunner().run(_requests())
        second = SerialRunner().run(_requests())
    for a, b in zip(first, second):
        assert a.rendered == b.rendered


@pytest.mark.slow
def test_parallel_matches_serial_byte_for_byte():
    with cache_disabled():
        serial = SerialRunner().run(_requests())
    with cache_disabled():
        parallel = _process_runner().run(_requests())
    assert [o.name for o in parallel] == [o.name for o in serial]
    for s, p in zip(serial, parallel):
        assert p.rendered == s.rendered, f"{s.name} diverged under parallelism"
        assert not p.cached
    # Structured values agree too, not just the rendering.
    serial_fig3, parallel_fig3 = serial[0].value, parallel[0].value
    for s_result, p_result in zip(serial_fig3, parallel_fig3):
        np.testing.assert_allclose(s_result.ashrae_daily, p_result.ashrae_daily)
        np.testing.assert_allclose(s_result.shatter_daily, p_result.shatter_daily)


@pytest.mark.slow
def test_parallel_string_requests_resolve_defaults():
    with cache_disabled():
        outcome = _process_runner().run_one(
            "fig4",
            params={"n_days": 4, "min_pts_values": [3, 6], "k_values": [2, 4]},
        )
    assert "Fig. 4(a)" in outcome.rendered
    assert "Fig. 4(b)" in outcome.rendered
    assert outcome.shards == 2


def test_request_order_preserved():
    exp = get_experiment("fig3")
    with cache_disabled():
        outcomes = SerialRunner().run(
            [
                RunRequest("fig6", {"n_days": 4, "seed": 3}),
                RunRequest("fig3", {"n_days": 3, "seed": 1}),
            ]
        )
    assert [o.name for o in outcomes] == ["fig6", "fig3"]
    assert outcomes[1].artifact == exp.artifact
