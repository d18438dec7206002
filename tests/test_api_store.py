"""Tests for the persistent run store: manifest round-trips, wire-codec
schema stability, and run diffing."""

import json
import os
import re

import pytest

from repro.api import (
    RunManifest,
    RunStore,
    Session,
    manifest_from_wire,
    manifest_to_wire,
)
from repro.cli import main
from repro.errors import ConfigurationError


def _manifest(run_id="fig3-20260101-000000-abc123", **overrides):
    base = dict(
        run_id=run_id,
        experiment="fig3",
        artifact="Fig. 3",
        # Tuples and non-JSON scalars must survive persistence exactly.
        params={"n_days": 3, "seed": 2023, "window": (2, 5)},
        created=1_750_000_000.25,
        fingerprint="deadbeefcafef00d",
        runner="async-graph[thread]",
        seconds=1.5,
        cached=False,
        shards=2,
        sweep=None,
        rendered_path="",
        origin="api",
    )
    base.update(overrides)
    return RunManifest(**base)


# ----------------------------------------------------------------------
# Wire codec / schema stability
# ----------------------------------------------------------------------


def test_manifest_wire_round_trip_is_exact():
    manifest = _manifest()
    wire = manifest_to_wire(manifest)
    # The wire form must be plain JSON (that is the on-disk format).
    restored = manifest_from_wire(json.loads(json.dumps(wire)))
    assert restored == manifest
    assert restored.params["window"] == (2, 5)
    assert type(restored.params["window"]) is tuple


def test_manifest_rejects_unknown_format_version():
    wire = manifest_to_wire(_manifest())
    wire["format_version"] = 999
    with pytest.raises(ConfigurationError, match="format version"):
        manifest_from_wire(wire)


def test_manifest_missing_field_is_reported():
    wire = manifest_to_wire(_manifest())
    del wire["experiment"]
    with pytest.raises(ConfigurationError, match="experiment"):
        manifest_from_wire(wire)


# A version-1 manifest as the store wrote it before manifests named
# their trail and while they still copied the trail's slot and cache
# figures (jobs, workers, cache_stats): the exact bytes on disk.
_OLD_MANIFEST_JSON = (
    '{"artifact": "Fig. 3", "cache_stats": {"misses": 3, "puts": 3}, '
    '"cached": false, "created": 1792425192.5, "experiment": "fig3", '
    '"fingerprint": "b1f9b62dfb3f9586", "format_version": 1, "jobs": 1, '
    '"origin": "cli", "params": {"n_days": 2, "seed": 2023, '
    '"window": {"__tuple__": [2, 5]}}, '
    '"rendered_path": "fig3-20261019-160312-a1af7f.txt", '
    '"run_id": "fig3-20261019-160312-a1af7f", '
    '"runner": "async-graph[remote]", "seconds": 0.13, "shards": 2, '
    '"sweep": null, "workers": {"127.0.0.1:34087": 1, "127.0.0.1:46093": 1}}'
)

# The same manifest holding a parameter an older release pickled.
_PICKLED_MANIFEST_JSON = _OLD_MANIFEST_JSON.replace(
    '"seed": 2023,', '"min_pts_values": {"__pickle__": "gASVCQAAAAAAAACPlChLAksEkC4="},'
).replace("fig3-20261019-160312-a1af7f", "fig4-20261019-160312-b2c3d4")


def test_old_manifest_with_copied_trail_figures_reads_back():
    assert manifest_from_wire(json.loads(_OLD_MANIFEST_JSON)) == RunManifest(
        run_id="fig3-20261019-160312-a1af7f",
        experiment="fig3",
        artifact="Fig. 3",
        params={"n_days": 2, "seed": 2023, "window": (2, 5)},
        created=1792425192.5,
        fingerprint="b1f9b62dfb3f9586",
        runner="async-graph[remote]",
        seconds=0.13,
        cached=False,
        shards=2,
        sweep=None,
        rendered_path="fig3-20261019-160312-a1af7f.txt",
        origin="cli",
        events_path="",
    )


def test_old_manifest_shows_no_slot_or_cache_rows(tmp_path, capsys):
    """`repro runs show` folds slots and cache traffic from the run's
    trail; a manifest from before trails has none to fold."""
    runs = tmp_path / "runs"
    runs.mkdir()
    (runs / "fig3-20261019-160312-a1af7f.json").write_text(_OLD_MANIFEST_JSON)
    (runs / "fig3-20261019-160312-a1af7f.txt").write_text("Fig. 3 text\n")
    assert main(["runs", "show", "fig3-2026", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert not re.search(r"^(worker|cache) ", out, re.M)
    # No trail, so no job count either: the runner row is the name.
    assert re.search(r"^runner +async-graph\[remote\] *$", out, re.M)
    assert re.search(r"^param window +\(2, 5\) *$", out, re.M)
    assert out.endswith("Fig. 3 text\n\n")


def test_pickled_parameter_makes_a_manifest_unreadable(tmp_path, capsys):
    """An older release pickled what the wire codec could not carry; this
    one reads no pickles, so such a manifest is skipped by the listing
    like a torn one, and `runs show` fails with one line."""
    store = RunStore(tmp_path / "runs")
    kept = store.record(_manifest(), "text")
    pickled = tmp_path / "runs" / "fig4-20261019-160312-b2c3d4.json"
    pickled.write_text(_PICKLED_MANIFEST_JSON)
    assert store.list() == [kept]
    with pytest.raises(ConfigurationError, match="pickled"):
        store.get("fig4-20261019-160312-b2c3d4")
    code = main(["runs", "show", "fig4-2026", "--cache-dir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("runs show failed: ")
    assert "pickled" in captured.err and len(captured.err.splitlines()) == 1


# ----------------------------------------------------------------------
# Store round-trips
# ----------------------------------------------------------------------


def test_store_write_list_show_round_trip(tmp_path):
    store = RunStore(tmp_path / "runs")
    recorded = store.record(_manifest(), "rendered artifact text\n")
    assert recorded.rendered_path == f"{recorded.run_id}.txt"
    # A fresh store object over the same directory sees the same run.
    reread = RunStore(tmp_path / "runs")
    listed = reread.list()
    assert listed == [recorded]
    assert reread.get(recorded.run_id) == recorded
    assert reread.rendered(recorded.run_id) == "rendered artifact text\n"


def test_store_list_is_ordered_and_filtered(tmp_path):
    store = RunStore(tmp_path / "runs")
    second = store.record(
        _manifest(run_id="fig3-b", created=2_000.0), "b"
    )
    first = store.record(_manifest(run_id="fig3-a", created=1_000.0), "a")
    other = store.record(
        _manifest(run_id="fig6-c", experiment="fig6", created=1_500.0,
                  sweep="fig6-s1"),
        "c",
    )
    assert [m.run_id for m in store.list()] == ["fig3-a", "fig6-c", "fig3-b"]
    assert store.list(experiment="fig3") == [first, second]
    assert store.list(sweep="fig6-s1") == [other]


def test_store_get_accepts_unique_prefix(tmp_path):
    store = RunStore(tmp_path / "runs")
    store.record(_manifest(run_id="fig3-20260101-000000-aa1111"), "x")
    store.record(_manifest(run_id="fig3-20260101-000000-bb2222"), "y")
    found = store.get("fig3-20260101-000000-aa")
    assert found.run_id == "fig3-20260101-000000-aa1111"
    with pytest.raises(ConfigurationError, match="ambiguous"):
        store.get("fig3-20260101")
    with pytest.raises(ConfigurationError, match="no run"):
        store.get("nope")


def test_store_list_skips_torn_manifests(tmp_path):
    store = RunStore(tmp_path / "runs")
    kept = store.record(_manifest(), "text")
    (tmp_path / "runs" / "torn.json").write_text("{not json")
    assert store.list() == [kept]


def test_corrupt_manifest_and_missing_artifact_raise_typed_errors(tmp_path):
    """`get`/`rendered` on damaged entries must raise ConfigurationError
    (the CLI's catch), never a raw JSON/OS traceback."""
    store = RunStore(tmp_path / "runs")
    recorded = store.record(_manifest(run_id="run-torn"), "text")
    (tmp_path / "runs" / "run-torn.json").write_text("{not json")
    with pytest.raises(ConfigurationError, match="unreadable"):
        store.get("run-torn")
    healthy = store.record(_manifest(run_id="run-ok"), "text")
    (tmp_path / "runs" / healthy.rendered_path).unlink()
    with pytest.raises(ConfigurationError, match="rendered artifact"):
        store.rendered("run-ok")
    assert recorded.run_id == "run-torn"


# ----------------------------------------------------------------------
# Retention (runs prune)
# ----------------------------------------------------------------------


def test_prune_keep_rule_retains_newest(tmp_path):
    store = RunStore(tmp_path / "runs")
    for run_id, created in (("r-a", 1000.0), ("r-b", 2000.0),
                            ("r-c", 3000.0), ("r-d", 4000.0)):
        store.record(_manifest(run_id=run_id, created=created), run_id)
    deleted = store.prune(keep=2)
    assert [m.run_id for m in deleted] == ["r-a", "r-b"]
    assert [m.run_id for m in store.list()] == ["r-c", "r-d"]
    assert not (tmp_path / "runs" / "r-a.json").exists()
    assert not (tmp_path / "runs" / "r-a.txt").exists()


def test_prune_older_than_and_combined_rules(tmp_path):
    store = RunStore(tmp_path / "runs")
    store.record(_manifest(run_id="r-old", created=0.0), "old")
    store.record(_manifest(run_id="r-mid", created=200_000.0), "mid")
    store.record(_manifest(run_id="r-new", created=400_000.0), "new")
    deleted = store.prune(older_than_days=1, now=250_000.0)
    assert [m.run_id for m in deleted] == ["r-old"]
    # Combined rules: a run dies if *either* dooms it.
    deleted = store.prune(keep=50, older_than_days=0, now=300_000.0)
    assert [m.run_id for m in deleted] == ["r-mid"]
    assert [m.run_id for m in store.list()] == ["r-new"]


def test_prune_protects_lineage_baselines(tmp_path):
    """The newest run per (experiment, fingerprint) survives any rule:
    it is the diff baseline for that code version."""
    store = RunStore(tmp_path / "runs")
    store.record(_manifest(run_id="f1-a", created=1000.0), "a")
    store.record(_manifest(run_id="f1-b", created=2000.0), "b")
    store.record(
        _manifest(run_id="f2-c", created=1500.0, fingerprint="0ther"), "c"
    )
    store.record(
        _manifest(run_id="g1-d", created=500.0, experiment="fig6"), "d"
    )
    deleted = store.prune(keep=0)
    assert [m.run_id for m in deleted] == ["f1-a"]
    assert [m.run_id for m in store.list()] == ["g1-d", "f2-c", "f1-b"]
    # A second pass has nothing left to doom: pruning is idempotent.
    assert store.prune(keep=0) == []


def test_prune_deletes_event_trails(tmp_path):
    store = RunStore(tmp_path / "runs")
    trail = tmp_path / "runs" / "events-r-a.jsonl"
    store.record(
        _manifest(run_id="r-a", created=1000.0,
                  events_path="events-r-a.jsonl"),
        "a",
    )
    trail.write_text('{"type": "RunFinished"}\n')
    store.record(_manifest(run_id="r-b", created=2000.0), "b")
    deleted = store.prune(keep=1)
    assert [m.run_id for m in deleted] == ["r-a"]
    assert not trail.exists(), "event trail must be garbage-collected"


def test_prune_keeps_a_trail_a_kept_run_still_reads(tmp_path):
    # Every manifest of one run batch names the batch's single trail.
    store = RunStore(tmp_path / "runs")
    trail = tmp_path / "runs" / "events" / "batch.jsonl"
    trail.parent.mkdir(parents=True)
    trail.write_text('{"type": "RunFinished"}\n')
    for run_id, created in (("r-a", 1000.0), ("r-b", 2000.0)):
        store.record(
            _manifest(run_id=run_id, created=created,
                      events_path="events/batch.jsonl"),
            run_id,
        )
    store.record(_manifest(run_id="r-c", created=3000.0), "c")
    with pytest.raises(ConfigurationError, match="no event trail"):
        store.events_file("r-c")
    assert [m.run_id for m in store.prune(keep=2)] == ["r-a"]
    assert store.events_file("r-b") == trail
    # The last run of the batch to go takes the trail with it.
    assert [m.run_id for m in store.prune(keep=1)] == ["r-b"]
    assert not trail.exists()


def test_prune_deletes_orphan_trails_of_failed_runs(tmp_path):
    """A run that raised leaves a trail and no manifest.  Either rule
    deletes such an orphan, but never one a control-plane job record
    names, and ``keep`` spares one newer than every kept run (it may
    belong to a run still in flight)."""
    root = tmp_path / "runs"
    store = RunStore(root)
    (root / "events").mkdir(parents=True)
    (root / "jobs").mkdir()

    def trail(name, mtime):
        path = root / "events" / f"{name}.jsonl"
        path.write_text('{"kind": "RunStarted"}\n')
        os.utime(path, (mtime, mtime))
        return path

    old_orphan = trail("failed-old", 1000.0)
    job_linked = trail("failed-job", 1000.0)
    new_orphan = trail("failed-new", 3000.0)
    kept_trail = trail("kept", 2000.0)
    (root / "jobs" / "job-1.json").write_text(
        json.dumps({"job_id": "job-1", "events_path": "events/failed-job.jsonl"})
    )
    store.record(
        _manifest(run_id="r-a", created=2000.0, events_path="events/kept.jsonl"),
        "a",
    )
    # r-a is its lineage's newest run, so no manifest is pruned.
    assert store.prune(keep=0) == []
    assert not old_orphan.exists()
    assert new_orphan.exists() and job_linked.exists() and kept_trail.exists()
    assert store.prune(older_than_days=1, now=3000.0 + 86400.0 + 1.0) == []
    assert not new_orphan.exists()
    assert job_linked.exists() and kept_trail.exists()


def test_prune_requires_a_rule_and_validates_bounds(tmp_path):
    store = RunStore(tmp_path / "runs")
    with pytest.raises(ConfigurationError, match="retention rule"):
        store.prune()
    with pytest.raises(ConfigurationError, match="keep"):
        store.prune(keep=-1)
    with pytest.raises(ConfigurationError, match="older_than_days"):
        store.prune(older_than_days=-0.5)


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------


def test_diff_reports_the_one_changed_param(tmp_path):
    store = RunStore(tmp_path / "runs")
    a = store.record(_manifest(run_id="run-a"), "same text")
    b = store.record(
        _manifest(run_id="run-b", params={"n_days": 5, "seed": 2023,
                                          "window": (2, 5)}),
        "same text",
    )
    diff = store.diff("run-a", "run-b")
    assert diff.param_changes == {"n_days": (3, 5)}
    assert diff.field_changes == {}
    assert diff.rendered_identical
    assert not diff.identical  # params differ even though text matches
    assert diff.a == a and diff.b == b


def test_diff_reports_rendered_divergence_and_absent_params(tmp_path):
    store = RunStore(tmp_path / "runs")
    store.record(_manifest(run_id="run-a"), "line\nold\n")
    store.record(
        _manifest(
            run_id="run-b",
            params={"n_days": 3, "seed": 2023},
            fingerprint="0123456789abcdef",
        ),
        "line\nnew\n",
    )
    diff = store.diff("run-a", "run-b")
    assert diff.param_changes["window"] == ((2, 5), diff.MISSING)
    assert diff.field_changes["fingerprint"] == (
        "deadbeefcafef00d",
        "0123456789abcdef",
    )
    assert not diff.rendered_identical
    assert "-old" in diff.rendered_diff and "+new" in diff.rendered_diff


def test_identical_runs_diff_clean(tmp_path):
    store = RunStore(tmp_path / "runs")
    store.record(_manifest(run_id="run-a"), "text")
    store.record(_manifest(run_id="run-b"), "text")
    assert store.diff("run-a", "run-b").identical


# ----------------------------------------------------------------------
# CLI and API share one store
# ----------------------------------------------------------------------


def test_cli_and_api_runs_land_in_the_same_store(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "fig3", "--days", "2", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    session = Session(cache_dir=cache_dir)
    session.submit("fig3", days=3)
    origins = [(m.origin, m.params["n_days"]) for m in session.runs()]
    assert origins == [("cli", 2), ("api", 3)]
    assert main(["runs", "list", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert out.count("fig3-") == 2
