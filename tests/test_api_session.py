"""Tests for the `repro.api` session layer: typed requests, sweeps,
and the byte-identity invariant between the API and the CLI."""

import pytest

from repro.api import RunRequest, RunnerPolicy, Session, expand_grid
from repro.cli import main
from repro.errors import ConfigurationError
from repro.events import replay_events
from repro.runner import SerialRunner, cache_disabled


# ----------------------------------------------------------------------
# Sweep expansion
# ----------------------------------------------------------------------


def test_expand_grid_is_deterministic_odometer_order():
    grid = {"a": [1, 2], "b": [10, 20, 30]}
    points = expand_grid(grid)
    assert points == [
        {"a": 1, "b": 10},
        {"a": 1, "b": 20},
        {"a": 1, "b": 30},
        {"a": 2, "b": 10},
        {"a": 2, "b": 20},
        {"a": 2, "b": 30},
    ]
    # Pure: the same grid always expands identically.
    assert expand_grid(grid) == points
    # Axis order follows key insertion order, not alphabetical.
    swapped = expand_grid({"b": [10, 20], "a": [1]})
    assert swapped == [{"b": 10, "a": 1}, {"b": 20, "a": 1}]


def test_expand_grid_scalar_axis_is_fixed():
    assert expand_grid({"a": [1, 2], "mode": "x"}) == [
        {"a": 1, "mode": "x"},
        {"a": 2, "mode": "x"},
    ]


def test_expand_grid_rejects_degenerate_input():
    with pytest.raises(ConfigurationError, match="empty"):
        expand_grid({})
    with pytest.raises(ConfigurationError, match="no values"):
        expand_grid({"a": []})


def test_sweep_needs_exactly_one_of_grid_or_points(tmp_path):
    session = Session(cache_dir=str(tmp_path / "c"))
    with pytest.raises(ConfigurationError, match="grid= or points="):
        session.sweep("fig3")
    with pytest.raises(ConfigurationError, match="grid= or points="):
        session.sweep("fig3", grid={"n_days": [2]}, points=[{"n_days": 2}])


def test_sweep_validates_parameters_through_resolve(tmp_path):
    session = Session(cache_dir=str(tmp_path / "c"))
    with pytest.raises(ConfigurationError, match="unknown parameter"):
        session.sweep("fig3", grid={"not_a_param": [1, 2]})
    # One bad point rejects the whole sweep before anything runs.
    with pytest.raises(ConfigurationError, match="cannot train on 12 of 12 days"):
        session.sweep("fig10", grid={"training_days": [5, 12]})
    assert session.runs() == []


def test_request_rejects_a_parameter_the_wire_codec_cannot_carry(tmp_path):
    """A set has no tagged-JSON encoding, so no remote worker, run
    manifest or job record could carry it: the request is rejected at
    the front door, before any compute."""
    session = Session(cache_dir=str(tmp_path / "c"))
    with pytest.raises(ConfigurationError, match="'min_pts_values'.*builtins.set"):
        session.request("fig4", min_pts_values={2, 4})
    with pytest.raises(ConfigurationError, match="'min_pts_values'"):
        session.submit("fig4", days=3, min_pts_values={2, 4})
    assert session.runs() == []
    assert not (tmp_path / "c" / "trace").exists(), "nothing was computed"
    # The same values as a list are a valid request.
    request = session.request("fig4", min_pts_values=[2, 4])
    assert request.params["min_pts_values"] == [2, 4]


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------


def test_sweep_shares_prepares_across_points(tmp_path):
    """The scenario-diversity unlock: the points of a 3-point sweep
    share their trace through the artifact cache, so it is generated
    exactly once, not once per point."""
    session = Session(cache_dir=str(tmp_path / "cache"))
    sweep = session.sweep(
        "fig4",
        grid={"min_pts_values": [[2], [4], [2, 4]]},
        days=3,
        base={"k_values": [2]},
    )
    assert len(sweep.outcomes) == 3
    assert sweep.profile is not None
    assert sweep.profile.cache_stats.get("trace.puts") == 1, (
        "the shared trace must be generated exactly once across the sweep"
    )
    # Every point computed its own distinct result.
    assert len({outcome.rendered for outcome in sweep.outcomes}) == 3
    # Point order is the grid expansion order.
    assert sweep.points == [
        {"min_pts_values": [2]},
        {"min_pts_values": [4]},
        {"min_pts_values": [2, 4]},
    ]
    assert [o.params["min_pts_values"] for o in sweep.outcomes] == [
        [2],
        [4],
        [2, 4],
    ]


def test_sweep_shares_reward_tables_across_points(tmp_path):
    """Sweep points differing only in a non-pricing knob (the shard
    width) must restore the same persisted reward tables: the rewards
    tier token excludes fleet-shape parameters."""
    session = Session(cache_dir=str(tmp_path / "cache"))
    sweep = session.sweep(
        "fleet_attack",
        grid={"chunk": [1, 2]},
        base={"n_homes": 2, "n_days": 2, "training_days": 1},
    )
    assert len(sweep.outcomes) == 2
    assert sweep.profile is not None
    stats = sweep.profile.cache_stats
    puts = stats.get("rewards.puts", 0)
    assert puts > 0, "the first point must persist reward tables"
    assert stats.get("rewards.misses", 0) == puts, (
        "every rewards miss must be computed and persisted exactly once"
    )
    assert stats.get("rewards.hits", 0) >= puts, (
        "the second sweep point must reuse the tables, not recompute them"
    )
    # Shard width is a scheduling knob, not a model parameter: both
    # points must render the identical artifact.
    assert len({outcome.rendered for outcome in sweep.outcomes}) == 1


def test_one_point_sweep_matches_cli_serial_run(tmp_path, capsys):
    """Acceptance criterion: a 1-point sweep renders byte-identically
    to `repro run` serial output for the same experiment/parameters."""
    assert main(
        [
            "run",
            "fig3",
            "--days",
            "2",
            "--runner",
            "serial",
            "--cache-dir",
            str(tmp_path / "cli-cache"),
        ]
    ) == 0
    out = capsys.readouterr().out
    cli_rendered = out.split("=== fig3 ===\n", 1)[1].rstrip("\n")

    session = Session(cache_dir=str(tmp_path / "api-cache"))
    sweep = session.sweep("fig3", grid={"n_days": [2]})
    assert len(sweep.outcomes) == 1
    assert sweep.outcomes[0].rendered == cli_rendered


def test_sweep_points_list_is_preserved_in_order(tmp_path):
    session = Session(cache_dir=str(tmp_path / "c"))
    sweep = session.sweep(
        "fig3", points=[{"n_days": 3}, {"n_days": 2}], days=None
    )
    assert [o.params["n_days"] for o in sweep.outcomes] == [3, 2]
    assert all(m.sweep == sweep.sweep_id for m in sweep.manifests)


# ----------------------------------------------------------------------
# Submit / run / policies
# ----------------------------------------------------------------------


def test_submit_runs_and_persists_manifest(tmp_path):
    session = Session(cache_dir=str(tmp_path / "cache"))
    outcome = session.submit("fig3", days=2)
    assert outcome.name == "fig3"
    manifests = session.runs()
    assert [m.experiment for m in manifests] == ["fig3"]
    manifest = manifests[0]
    assert manifest.params == outcome.params
    assert manifest.origin == "api"
    assert manifest.fingerprint
    # Slots and cache figures are not copied into the manifest: the
    # trail it names folds to the run's live aggregate.
    folded = replay_events(session.events(manifest))
    assert folded == session.last_events
    assert folded.slots == {"local": 1}
    assert session.rendered(manifest) == outcome.rendered
    # A second, replayed run records its own manifest, marked cached.
    again = session.submit("fig3", days=2)
    assert again.cached
    assert [m.cached for m in session.runs()] == [False, True]


def test_no_cache_session_runs_without_a_store(tmp_path):
    session = Session(no_cache=True)
    outcome = session.submit("fig3", days=2)
    assert not outcome.cached
    assert session.runs() == []
    with pytest.raises(ConfigurationError, match="persists no runs"):
        session.run_manifest("anything")


def test_runner_policy_validation():
    with pytest.raises(ConfigurationError, match="--workers"):
        Session(runner="remote")
    with pytest.raises(ConfigurationError, match="remote"):
        Session(runner="serial", workers="local:2")
    with pytest.raises(ConfigurationError, match="backend"):
        RunnerPolicy(backend="carrier-pigeon")


def test_session_plan_is_pure(tmp_path):
    session = Session(cache_dir=str(tmp_path / "c"))
    tasks, summaries = session.plan([session.request("fig3", days=3)])
    assert summaries[0].name == "fig3"
    assert len(tasks) == summaries[0].tasks
    assert session.runs() == [], "planning must not record runs"


def test_session_matches_serial_runner_byte_for_byte(tmp_path):
    """The API front door changes how runs are driven, not what they
    compute."""
    with cache_disabled():
        oracle = SerialRunner().run([RunRequest.build("fig6", days=3)])[0]
    session = Session(cache_dir=str(tmp_path / "cache"), jobs=2)
    outcome = session.submit("fig6", days=3)
    assert outcome.rendered == oracle.rendered
