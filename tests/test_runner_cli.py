"""Tests for the registry-driven CLI surface (new commands and flags)."""

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError, DatasetError
from repro.runner import get_cache
from repro.runner.registry import experiment_names, experiments_by_tag


def test_run_with_cache_dir_replays_second_run(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "fig3", "--days", "3", "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert "=== fig3 ===" in first
    assert main(
        ["run", "fig3", "--days", "3", "--cache-dir", cache_dir, "--timings"]
    ) == 0
    second = capsys.readouterr().out
    assert first in second, "cached replay must render identically"
    assert "True" in second.split("Timings")[1], "second run should be cached"


def test_run_no_cache_flag(tmp_path, capsys):
    assert main(["run", "fig3", "--days", "3", "--no-cache", "--timings"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 3" in out
    assert "False" in out.split("Timings")[1]


def test_run_restores_previous_cache(tmp_path):
    before = get_cache()
    main(["run", "fig3", "--days", "3", "--cache-dir", str(tmp_path / "c")])
    assert get_cache() is before


def test_tag_selection_runs_matching_artifacts(tmp_path, capsys):
    # The "testbed" tag selects exactly sec6, which runs in seconds.
    assert [e.name for e in experiments_by_tag("testbed")] == ["sec6"]
    assert main(
        ["run", "--tag", "testbed", "--cache-dir", str(tmp_path / "c")]
    ) == 0
    out = capsys.readouterr().out
    assert "=== sec6 ===" in out
    assert "testbed validation" in out


def test_run_requires_a_selection(capsys):
    with pytest.raises(SystemExit):
        main(["run"])


def test_run_all_flag_selects_everything():
    parser = build_parser()
    args = parser.parse_args(["run", "--all"])
    from repro.cli import _select_names

    assert _select_names(args) == sorted(experiment_names())
    args = parser.parse_args(["run", "all"])
    assert _select_names(args) == sorted(experiment_names())


def test_cache_info_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    main(["run", "fig3", "--days", "3", "--cache-dir", cache_dir])
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert cache_dir in out
    assert "trace entries" in out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "removed" in out
    assert main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "trace entries" not in out


@pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "graph"])
def test_run_library_error_prints_one_line(jobs, tmp_path, capsys, monkeypatch):
    """A ReproError exits 1 with one stderr line, whether it is raised
    directly (serial) or is the cause of a failed graph task."""
    from repro.runner.experiments import fig03

    def fail(*args, **kwargs):
        raise DatasetError("need at least one training day")

    # Inside fig3's shard task; forked pool members inherit the patch.
    monkeypatch.setattr(fig03, "simulate", fail)
    argv = ["run", "fig3", "--days", "3", "--jobs", jobs]
    assert main([*argv, "--cache-dir", str(tmp_path / "cache")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("run failed: DatasetError: ")
    assert err.endswith("need at least one training day\n")
    assert err.count("\n") == 1


def test_run_other_errors_keep_their_traceback(monkeypatch):
    from repro.api import Session
    from repro.runner.scheduler import TaskExecutionError

    def fail(self, requests):
        cause = ValueError("a bug, not a library error")
        raise TaskExecutionError("k", "fig3/run", "local", cause) from cause

    monkeypatch.setattr(Session, "run", fail)
    with pytest.raises(TaskExecutionError, match="a bug"):
        main(["run", "fig3", "--days", "3", "--no-cache"])


def test_jobs_flag_parses():
    args = build_parser().parse_args(["run", "fig3", "--jobs", "4"])
    assert args.jobs == 4


def test_runner_auto_selection():
    """The CLI is a thin client: backend selection is RunnerPolicy +
    build_runner, shared with the Python API."""
    from repro.cli import _make_session
    from repro.runner import (
        AsyncShardRunner,
        RunnerPolicy,
        SerialRunner,
        build_runner,
    )

    parser = build_parser()

    def runner_for(argv):
        session = _make_session(parser.parse_args(argv))
        return build_runner(session.policy, cache=session.cache)

    assert isinstance(runner_for(["run", "fig3"]), SerialRunner)
    pooled = runner_for(["run", "fig3", "--jobs", "4"])
    assert isinstance(pooled, AsyncShardRunner)
    assert pooled.capabilities.name == "async-graph[process]"
    # The process pool is the graph runner's executor, not a backend.
    with pytest.raises(ConfigurationError, match="unknown runner backend"):
        runner_for(["run", "fig3", "--jobs", "4", "--runner", "process"])
    assert isinstance(
        runner_for(["run", "fig3", "--runner", "async"]), AsyncShardRunner
    )
    # --profile reports on the run it is given: every backend emits the
    # same telemetry, so the flag never changes the backend.
    assert isinstance(runner_for(["run", "fig3", "--profile"]), SerialRunner)
    # The factory is also reachable without any argparse plumbing.
    assert isinstance(build_runner(RunnerPolicy(backend="serial")), SerialRunner)


def test_dry_run_validates_whole_registry(capsys):
    assert main(["run", "--all", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "Dry run:" in out
    assert "acyclic" in out
    for name in experiment_names():
        assert name in out
    # Nothing was computed, so nothing was rendered.
    assert "===" not in out


def test_dry_run_rejects_a_split_without_evaluation_days(capsys):
    assert main(["run", "fig10", "--days", "3", "--dry-run"]) == 1
    captured = capsys.readouterr()
    assert "shard graphs valid" not in captured.out
    assert captured.err.startswith("dry-run failed: experiment 'fig10' cannot")
    assert main(["run", "fig10", "--days", "4", "--dry-run"]) == 0


def test_dry_run_reports_graph_shape(capsys):
    assert main(["run", "fig6", "--dry-run"]) == 0
    out = capsys.readouterr().out
    row = next(
        line for line in out.splitlines() if line.startswith("fig6")
    )
    # fig6: two shards feed a merge (3 tasks).
    assert row.split() == ["fig6", "2", "3"]


def test_profile_prints_scheduler_telemetry(tmp_path, capsys):
    assert main(
        [
            "run",
            "fig3",
            "--days",
            "3",
            "--profile",
            "--runner",
            "async",
            "--cache-dir",
            str(tmp_path / "c"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Scheduler profile" in out
    assert "fig3/merge" in out
    assert "utilization" in out
    assert "cache hit rate" in out


def test_profile_under_serial_runner_reports_full_telemetry(tmp_path, capsys):
    # Serial runs go through the same event pipeline as the graph
    # runners, so --profile renders the full report (not just cache
    # stats) on every backend.
    assert main(
        [
            "run",
            "fig3",
            "--days",
            "3",
            "--profile",
            "--runner",
            "serial",
            "--cache-dir",
            str(tmp_path / "c"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "Scheduler profile (serial" in out
    assert "fig3/run" in out
    assert "utilization" in out
    assert "cache hit rate" in out
    assert "Kernel profile" in out


def test_profile_reports_corrupt_counter(tmp_path, capsys):
    assert main(
        [
            "run",
            "fig3",
            "--days",
            "3",
            "--profile",
            "--cache-dir",
            str(tmp_path / "c"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "cache corrupt entries" in out


# ----------------------------------------------------------------------
# Remote backend surface
# ----------------------------------------------------------------------


def test_workers_flag_selects_remote_backend():
    from repro.cli import _make_session
    from repro.runner import AsyncShardRunner, RemoteExecutor, build_runner

    parser = build_parser()

    def runner_for(argv):
        session = _make_session(parser.parse_args(argv))
        return build_runner(session.policy, cache=session.cache)

    runner = runner_for(["run", "fig3", "--workers", "local:2"])
    assert isinstance(runner, AsyncShardRunner)
    assert isinstance(runner.executor, RemoteExecutor)
    assert runner.capabilities.name == "async-graph[remote]"
    runner = runner_for(
        ["run", "fig3", "--runner", "remote", "--workers", "h1:70,h2:70"]
    )
    assert isinstance(runner.executor, RemoteExecutor)


def test_remote_runner_flag_validation(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["run", "fig3", "--runner", "remote"])
    assert "--workers" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["run", "fig3", "--runner", "serial", "--workers", "local:2"])
    assert "remote" in capsys.readouterr().err


def test_worker_parser_flags():
    args = build_parser().parse_args(
        ["worker", "--listen", "0.0.0.0:7070", "--cache-dir", "/x", "--jobs", "3"]
    )
    assert args.listen == "0.0.0.0:7070"
    assert args.cache_dir == "/x"
    assert args.jobs == 3


def test_cli_run_remote_local_workers_matches_serial(tmp_path, capsys):
    """The acceptance-criteria path end to end: `repro run --runner
    remote --workers local:2` renders byte-identically to serial."""
    assert main(
        [
            "run",
            "fig3",
            "--days",
            "2",
            "--runner",
            "serial",
            "--cache-dir",
            str(tmp_path / "serial"),
        ]
    ) == 0
    serial_out = capsys.readouterr().out
    assert main(
        [
            "run",
            "fig3",
            "--days",
            "2",
            "--runner",
            "remote",
            "--workers",
            "local:2",
            "--cache-dir",
            str(tmp_path / "remote"),
        ]
    ) == 0
    remote_out = capsys.readouterr().out
    assert remote_out == serial_out


# ----------------------------------------------------------------------
# Run-store verbs
# ----------------------------------------------------------------------


def test_runs_list_show_diff_end_to_end(tmp_path, capsys):
    """`repro run` persists manifests the `runs` verbs can query."""
    cache_dir = str(tmp_path / "cache")
    assert main(["run", "fig3", "--days", "2", "--cache-dir", cache_dir]) == 0
    assert main(["run", "fig3", "--days", "3", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    assert main(["runs", "list", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    ids = [
        line.split()[0]
        for line in out.splitlines()
        if line.startswith("fig3-")
    ]
    assert len(ids) == 2, out

    assert main(["runs", "show", ids[0], "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "param n_days" in out
    assert "code fingerprint" in out
    assert "Fig. 3" in out, "show must include the rendered artifact"

    assert main(["runs", "diff", ids[0], ids[1], "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "param n_days" in out
    assert "rendered artifacts differ" in out


def test_runs_list_empty_store(tmp_path, capsys):
    assert main(["runs", "list", "--cache-dir", str(tmp_path / "empty")]) == 0
    assert "no persisted runs" in capsys.readouterr().out


def test_runs_list_filters_by_experiment(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    main(["run", "fig3", "--days", "2", "--cache-dir", cache_dir])
    main(["run", "sec6", "--cache-dir", cache_dir])
    capsys.readouterr()
    assert main(
        ["runs", "list", "--cache-dir", cache_dir, "--experiment", "sec6"]
    ) == 0
    out = capsys.readouterr().out
    assert "sec6-" in out and "fig3-" not in out


def test_runs_verb_arity_is_validated(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["runs", "show", "--cache-dir", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["runs", "diff", "only-one", "--cache-dir", str(tmp_path)])


def test_runs_prune_end_to_end(tmp_path, capsys):
    """`runs prune --keep N` garbage-collects old manifests but never
    the newest run of a code-fingerprint lineage."""
    cache_dir = str(tmp_path / "cache")
    main(["run", "fig3", "--days", "2", "--cache-dir", cache_dir])
    main(["run", "fig3", "--days", "3", "--cache-dir", cache_dir])
    capsys.readouterr()

    assert main(["runs", "prune", "--keep", "1", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "pruned fig3-" in out
    assert "1 run(s) pruned" in out

    assert main(["runs", "list", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    ids = [
        line.split()[0]
        for line in out.splitlines()
        if line.startswith("fig3-")
    ]
    assert len(ids) == 1, out

    # The survivor is its lineage's last green run: keep=0 cannot
    # delete it.
    assert main(["runs", "prune", "--keep", "0", "--cache-dir", cache_dir]) == 0
    assert "nothing to prune" in capsys.readouterr().out

    with pytest.raises(SystemExit):
        main(["runs", "prune", "--cache-dir", cache_dir])
    with pytest.raises(SystemExit):
        main(["runs", "prune", "some-run", "--keep", "1",
              "--cache-dir", cache_dir])


def test_no_cache_run_skips_the_store(tmp_path, capsys):
    """--no-cache has no disk tier, hence nowhere to persist manifests;
    the run must still succeed."""
    assert main(["run", "fig3", "--days", "2", "--no-cache"]) == 0
    capsys.readouterr()


def test_cache_info_reports_corrupt_and_verify_scans(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    main(["run", "fig3", "--days", "3", "--cache-dir", str(cache_dir)])
    capsys.readouterr()
    victim = sorted((cache_dir / "trace").iterdir())[0]
    victim.write_bytes(b"{torn")
    assert main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    # Stats are per-process: plain info neither scans nor claims a
    # (necessarily zero) corrupt count.
    assert "corrupt entries" not in out
    assert victim.exists(), "plain info must not touch entries"
    assert main(
        ["cache", "info", "--cache-dir", str(cache_dir), "--verify"]
    ) == 0
    out = capsys.readouterr().out
    assert "Integrity scan" in out
    assert "corrupt entries" in out
    assert not victim.exists(), "--verify must delete the corrupt entry"
