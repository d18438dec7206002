"""Command-line interface: a thin shell client over :mod:`repro.api`.

Usage::

    python -m repro list
    python -m repro run fig3 --days 7
    python -m repro run tab5 tab6 --days 10 --jobs 4
    python -m repro run --all --jobs 8 --profile
    python -m repro run --all --dry-run
    python -m repro run --tag sweep
    python -m repro run fig3 --runner remote --workers local:2
    python -m repro worker --listen 0.0.0.0:7070 --cache-dir /shared/cache
    python -m repro serve --listen 127.0.0.1:7321 --cache-dir /shared/cache
    python -m repro worker --join 127.0.0.1:7321 --cache-dir /shared/cache
    python -m repro submit fig4 --connect 127.0.0.1:7321 --wait
    python -m repro jobs list --connect 127.0.0.1:7321
    python -m repro drain 127.0.0.1:7070 --connect 127.0.0.1:7321
    python -m repro runs list
    python -m repro runs show fig3-20260101-120000-ab12cd
    python -m repro runs diff <run-a> <run-b>
    python -m repro runs events fig3-20260101-120000-ab12cd
    python -m repro runs prune --keep 20
    python -m repro cache info
    python -m repro cache clear
    python -m repro lint --select hot-path-scalar-calls --format json

Every ``run`` invocation builds a :class:`repro.api.Session` from its
flags and executes through it — argument parsing and printing live
here; orchestration (runner selection, cache wiring, run-manifest
persistence) lives in :mod:`repro.api`.  Dispatch is registry-driven:
every artifact is an :class:`~repro.runner.registry.Experiment` spec,
executed through a pluggable backend.  ``--jobs 1`` (the default) runs
serially; ``--jobs N`` schedules every experiment's shard graph through
one interleaved :class:`~repro.runner.async_graph.AsyncShardRunner` on
N local processes; ``--runner`` overrides the choice (``serial`` /
``async`` / ``remote``; ``async`` at ``--jobs 1`` runs the graph on
threads).  The remote backend ships shards to ``repro worker``
processes named by ``--workers host:port,...`` (or ``--workers
local:N``, which spawns N worker subprocesses on this machine); all
workers must share the coordinator's ``--cache-dir``.  A run that
fails on a :class:`~repro.errors.ReproError`, raised directly or as
the cause of a failed graph task, or that loses its last remote
worker, prints one stderr line and exits 1; Ctrl-C prints one line
and exits 130.
Runs share a content-keyed artifact cache (traces, fitted ADMs, results)
persisted under ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-shatter``;
``--no-cache`` disables it and ``repro cache clear`` wipes it.  Every
completed run leaves a manifest under ``<cache dir>/runs/``; ``repro
runs list|show|diff|events`` query that history and ``repro runs
prune --keep N|--older-than D`` garbage-collects it (always retaining
each lineage's newest run and every trail a kept run reads).  Every
run emits a typed telemetry stream (:mod:`repro.events`), persisted as
a JSONL audit trail next to the manifests whenever a run store exists
(every run but ``--no-cache``).  ``--profile`` renders the same stream
and leaves the backend as the other flags chose it: scheduler
utilization (per worker, with task-connection counts, for the remote
backend), per-tier cache hit rates plus corrupt-entry counts, and
per-kernel wall time (batched geometry, schedule DP, simulation),
identical in shape on every backend; ``--dry-run`` validates the
selection's shard graphs (registry completeness, acyclicity) without
computing anything.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from repro.api import Session
from repro.api.store import STORE_SUBDIR, RunStore
from repro.core.report import format_table
from repro.devtools.lint.cli import add_lint_parser, run_lint
from repro.errors import ConfigurationError, ReproError
from repro.events.processors import (
    read_events_jsonl,
    render_profile,
    replay_events,
)
from repro.runner import (
    ArtifactCache,
    all_experiments,
    configure_cache,
    default_disk_dir,
    experiment_names,
    experiments_by_tag,
    load_all,
)
from repro.runner.scheduler import TaskExecutionError, WorkerLostError

load_all()


def _artifact_id(value: str) -> str:
    """Parse-time validation of artifact names (argparse ``type``)."""
    known = sorted(experiment_names()) + ["all"]
    if value not in known:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(known)})"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SHATTER reproduction: regenerate paper artifacts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available artifacts")

    add_lint_parser(subparsers)

    run_parser = subparsers.add_parser("run", help="regenerate artifacts")
    run_parser.add_argument(
        "artifact",
        nargs="*",
        type=_artifact_id,
        metavar="ARTIFACT",
        help="paper artifact(s) to regenerate ('all' runs everything; "
        "see 'repro list')",
    )
    run_parser.add_argument(
        "--all",
        action="store_true",
        dest="run_all",
        help="run every registered artifact",
    )
    run_parser.add_argument(
        "--tag",
        default=None,
        help="run every artifact carrying this registry tag",
    )
    run_parser.add_argument(
        "--days",
        type=int,
        default=10,
        help="trace length in days (default 10; the paper uses 30)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="concurrency bound; >1 schedules the interleaved shard "
        "graph across workers",
    )
    run_parser.add_argument(
        "--runner",
        default="auto",
        metavar="BACKEND",
        help="execution backend: auto, serial, async, or remote (auto: "
        "remote when --workers is given, async when --jobs>1, else "
        "serial; async runs the shard graph on --jobs processes, or on "
        "threads at --jobs 1)",
    )
    run_parser.add_argument(
        "--workers",
        default=None,
        metavar="SPEC",
        help="remote workers: 'host:port,host:port' naming running "
        "'repro worker' processes, or 'local:N' to spawn N local "
        "worker subprocesses (all workers must share --cache-dir)",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache for this run",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        help="override the on-disk cache location",
    )
    run_parser.add_argument(
        "--timings",
        action="store_true",
        help="print per-artifact compute seconds and cache hits",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-task scheduler timings, utilization, cache hit "
        "rates, and per-kernel wall time of the run",
    )
    run_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="validate the selection's shard graphs (registry "
        "completeness, acyclicity) without computing",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="serve shard tasks to a remote coordinator (repro run "
        "--runner remote)",
    )
    worker_parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="address to bind (port 0 picks a free port; the bound "
        "address is announced on stdout)",
    )
    worker_parser.add_argument(
        "--cache-dir",
        default=None,
        help="shared artifact-cache directory (must be the same "
        "storage the coordinator uses)",
    )
    worker_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="run without any artifact cache (every shard recomputes "
        "the traces and ADMs it needs)",
    )
    worker_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="slot capacity advertised to the coordinator (default 1); "
        "N > 1 slots are N forked processes, each with its own memory "
        "tier, and one slot runs tasks in this process",
    )
    worker_parser.add_argument(
        "--join",
        default=None,
        metavar="HOST:PORT",
        help="self-register with a 'repro serve' control plane instead "
        "of waiting for a static --workers dial (heartbeats, rejoin "
        "after backoff, deregister on graceful shutdown)",
    )
    worker_parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="with --join: seconds between liveness beats (default 2)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the persistent control plane (HTTP job queue + "
        "self-registering workers)",
    )
    serve_parser.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="address to bind (port 0 picks a free port; the bound "
        "address is announced on stdout)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache dir whose run store holds the durable job queue",
    )
    serve_parser.add_argument(
        "--resume",
        action="store_true",
        help="re-enqueue jobs found queued or running on disk (after a "
        "crash or kill); without it they are cancelled",
    )
    serve_parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=6.0,
        metavar="SECONDS",
        help="retire a worker silent for longer than this (default 6)",
    )

    submit_parser = subparsers.add_parser(
        "submit", help="submit a run or sweep to a 'repro serve' plane"
    )
    submit_parser.add_argument(
        "experiment", metavar="ARTIFACT", help="experiment to run"
    )
    submit_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="control plane address (from its announce line)",
    )
    submit_parser.add_argument(
        "--days", type=int, default=None, help="trace length in days"
    )
    submit_parser.add_argument(
        "--set",
        action="append",
        default=[],
        dest="sets",
        metavar="NAME=VALUE",
        help="parameter override (VALUE is a Python literal, else a "
        "string); repeatable",
    )
    submit_parser.add_argument(
        "--grid",
        action="append",
        default=[],
        dest="grids",
        metavar="NAME=[V1,V2,...]",
        help="sweep axis (VALUE must be a Python list literal); any "
        "--grid makes the job a sweep; repeatable",
    )
    submit_parser.add_argument(
        "--client",
        default="cli",
        help="client name for multi-tenant fairness (default 'cli')",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its rendered "
        "artifact(s), byte-identical to 'repro run'",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --wait: give up after this long (job keeps running)",
    )

    jobs_parser = subparsers.add_parser(
        "jobs", help="inspect or cancel control-plane jobs"
    )
    jobs_parser.add_argument(
        "action",
        choices=["list", "show", "events", "cancel", "result"],
        help="list all jobs, show one, dump its event trail, cancel a "
        "queued job, or print a finished job's artifact(s)",
    )
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None, metavar="JOB", help="job id"
    )
    jobs_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="control plane address",
    )

    drain_parser = subparsers.add_parser(
        "drain",
        help="stop leasing new shards to a worker (in-flight finishes)",
    )
    drain_parser.add_argument(
        "address", metavar="HOST:PORT", help="registered worker address"
    )
    drain_parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="control plane address",
    )

    runs_parser = subparsers.add_parser(
        "runs", help="inspect persisted run manifests"
    )
    runs_parser.add_argument(
        "action",
        choices=["list", "show", "diff", "events", "prune"],
        help="list manifests, show one run, diff two runs, dump one "
        "run's event trail, or garbage-collect old runs",
    )
    runs_parser.add_argument(
        "run_id",
        nargs="*",
        metavar="RUN",
        help="run id(s): one for 'show'/'events', two for 'diff' "
        "(unique prefixes accepted)",
    )
    runs_parser.add_argument(
        "--experiment",
        default=None,
        help="with 'list': only runs of this experiment",
    )
    runs_parser.add_argument(
        "--cache-dir",
        default=None,
        help="cache dir whose run store to query",
    )
    runs_parser.add_argument(
        "--keep",
        type=int,
        default=None,
        metavar="N",
        help="with 'prune': retain the newest N runs",
    )
    runs_parser.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="with 'prune': delete runs older than DAYS days",
    )

    cache_parser = subparsers.add_parser("cache", help="inspect the artifact cache")
    cache_parser.add_argument("action", choices=["info", "clear"])
    cache_parser.add_argument(
        "--cache-dir",
        default=None,
        help="override the on-disk cache location",
    )
    cache_parser.add_argument(
        "--verify",
        action="store_true",
        help="with 'info': decode every persisted artifact, report and "
        "delete corrupt entries",
    )
    return parser


def _select_names(args: argparse.Namespace) -> list[str]:
    """Which experiments a ``run`` invocation names, in output order."""
    if args.run_all or "all" in args.artifact:
        return sorted(experiment_names())
    names: list[str] = list(args.artifact)
    if args.tag:
        names += [
            exp.name
            for exp in experiments_by_tag(args.tag)
            if exp.name not in names
        ]
    return names


def _cmd_list() -> int:
    rows = [
        [exp.name, exp.artifact, exp.title, " ".join(sorted(exp.tags))]
        for exp in all_experiments()
    ]
    print(
        format_table(
            "Available artifacts", ["id", "artifact", "description", "tags"], rows
        )
    )
    return 0


def _make_session(args: argparse.Namespace, origin: str = "cli") -> Session:
    """Build the :class:`repro.api.Session` a ``run`` invocation uses."""
    return Session(
        cache_dir=getattr(args, "cache_dir", None),
        no_cache=getattr(args, "no_cache", False),
        runner=args.runner,
        jobs=args.jobs,
        workers=args.workers,
        origin=origin,
    )


def _cmd_dry_run(session: Session, args: argparse.Namespace, names: list[str]) -> int:
    """Plan every selected experiment's shard graph without computing.

    Proves the registry resolves each name, parameters resolve under
    ``--days``, and the union task graph is acyclic — the cheap CI gate.
    """
    try:
        tasks, summaries = session.plan(
            [session.request(name, days=args.days) for name in names]
        )
    except ConfigurationError as error:
        print(f"dry-run failed: {error}", file=sys.stderr)
        return 1
    print(
        format_table(
            f"Dry run: {len(tasks)} task(s) across {len(names)} experiment(s)",
            ["id", "shards", "graph tasks"],
            [[s.name, s.shards, s.tasks] for s in summaries],
        )
    )
    print("shard graphs valid: acyclic, all dependencies resolved")
    return 0


def _print_profile(session: Session) -> None:
    """Render ``--profile`` from the run's event aggregate.

    Pure presentation: every backend (serial included) emits through
    the same event pipeline, so this is one formatting path regardless
    of runner, fed by :attr:`Session.last_events`.
    """
    aggregator = session.last_events
    runner = session.last_runner
    if aggregator is None or runner is None:
        print("(no scheduler telemetry was emitted for this run)")
        return
    print(render_profile(aggregator, runner.capabilities.name))


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    names = _select_names(args)
    if not names:
        if args.tag:
            parser.error(f"no artifacts tagged {args.tag!r} (see 'repro list')")
        parser.error("nothing to run: name artifacts, or pass --all / --tag")
    try:
        session = _make_session(args)
    except ConfigurationError as error:
        parser.error(str(error))
    if args.dry_run:
        return _cmd_dry_run(session, args, names)
    try:
        outcomes = session.run(
            [session.request(name, days=args.days) for name in names]
        )
    except KeyboardInterrupt:
        print("run interrupted", file=sys.stderr)
        return 130
    except (ReproError, TaskExecutionError) as error:
        cause = error.__cause__ if isinstance(error, TaskExecutionError) else error
        # A library error or a lost last worker is the run's outcome,
        # not a bug: one line.  Anything else keeps its traceback.
        if not isinstance(cause, (ReproError, WorkerLostError)):
            raise
        print(f"run failed: {type(cause).__name__}: {error}", file=sys.stderr)
        return 1
    for outcome in outcomes:
        print(f"=== {outcome.name} ===")
        print(outcome.rendered)
        print()
    if args.timings:
        assert session.last_runner is not None
        print(
            format_table(
                f"Timings ({session.last_runner.capabilities.name} runner)",
                ["id", "seconds", "shards", "cached"],
                [
                    [o.name, o.seconds, o.shards, str(o.cached)]
                    for o in outcomes
                ],
            )
        )
    if args.profile:
        _print_profile(session)
    return 0


# ----------------------------------------------------------------------
# Run-store verbs
# ----------------------------------------------------------------------


def _run_store(args: argparse.Namespace) -> RunStore:
    root = args.cache_dir or default_disk_dir()
    return RunStore(Path(root) / STORE_SUBDIR)


def _format_when(created: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(created)) + "Z"


def _cmd_runs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        return _cmd_runs_inner(args, parser)
    except ConfigurationError as error:
        print(f"runs {args.action} failed: {error}", file=sys.stderr)
        return 1


def _cmd_runs_inner(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    store = _run_store(args)
    if args.action == "list":
        if args.run_id:
            parser.error("'runs list' takes no run ids")
        manifests = store.list(experiment=args.experiment)
        if not manifests:
            print(f"no persisted runs under {store.root}")
            return 0
        print(
            format_table(
                f"Persisted runs ({store.root})",
                ["run id", "experiment", "when (UTC)", "runner", "seconds",
                 "cached", "sweep"],
                [
                    [
                        m.run_id,
                        m.experiment,
                        _format_when(m.created),
                        m.runner,
                        f"{m.seconds:.2f}",
                        str(m.cached),
                        m.sweep or "-",
                    ]
                    for m in manifests
                ],
            )
        )
        return 0
    if args.action == "show":
        if len(args.run_id) != 1:
            parser.error("'runs show' takes exactly one run id")
        manifest = store.get(args.run_id[0])
        # Slots and cache traffic are the batch trail's facts, folded
        # here as --profile folds them; a manifest without a readable
        # trail (written before trails, or pruned) shows neither.
        try:
            trail = store.events_file(manifest)
        except ConfigurationError:
            profile = None
        else:
            profile = replay_events(read_events_jsonl(trail))
        runner = manifest.runner
        if profile is not None:
            runner += f" ({profile.jobs} job(s))"
        rows = [
            ["experiment", manifest.experiment],
            ["artifact", manifest.artifact],
            ["when (UTC)", _format_when(manifest.created)],
            ["origin", manifest.origin],
            ["runner", runner],
            ["code fingerprint", manifest.fingerprint],
            ["seconds", f"{manifest.seconds:.2f}"],
            ["cached replay", str(manifest.cached)],
            ["shards", manifest.shards],
            ["sweep", manifest.sweep or "-"],
        ]
        for name in sorted(manifest.params):
            rows.append([f"param {name}", repr(manifest.params[name])])
        if profile is not None:
            for worker in sorted(profile.slots):
                rows.append(
                    [f"worker {worker}", f"{profile.slots[worker]} slot(s)"]
                )
            for key in sorted(profile.cache_stats):
                rows.append([f"cache {key}", profile.cache_stats[key]])
        print(format_table(f"Run {manifest.run_id}", ["field", "value"], rows))
        print()
        print(store.rendered(manifest))
        return 0
    if args.action == "prune":
        if args.run_id:
            parser.error("'runs prune' takes no run ids")
        if args.keep is None and args.older_than is None:
            parser.error("'runs prune' needs --keep N and/or --older-than DAYS")
        deleted = store.prune(keep=args.keep, older_than_days=args.older_than)
        if not deleted:
            print("nothing to prune")
            return 0
        for manifest in deleted:
            print(f"pruned {manifest.run_id}")
        print(f"{len(deleted)} run(s) pruned")
        return 0
    if args.action == "events":
        if len(args.run_id) != 1:
            parser.error("'runs events' takes exactly one run id")
        manifest = store.get(args.run_id[0])
        events = read_events_jsonl(store.events_file(manifest))
        for index, event in enumerate(events):
            data = ", ".join(
                f"{f.name}={getattr(event, f.name)!r}" for f in fields(event)
            )
            print(f"{index:5d}  {type(event).__name__:<15s} {data}")
        return 0
    # diff
    if len(args.run_id) != 2:
        parser.error("'runs diff' takes exactly two run ids")
    diff = store.diff(args.run_id[0], args.run_id[1])
    rows = []
    for name, (va, vb) in diff.field_changes.items():
        rows.append([name, repr(va), repr(vb)])
    for name, (va, vb) in diff.param_changes.items():
        rows.append([f"param {name}", repr(va), repr(vb)])
    if rows:
        print(
            format_table(
                f"Runs differ: {diff.a.run_id} vs {diff.b.run_id}",
                ["field", diff.a.run_id, diff.b.run_id],
                rows,
            )
        )
    else:
        print("manifests identical (params, fingerprint, runner)")
    if diff.rendered_identical:
        print("rendered artifacts: byte-identical")
    else:
        print("rendered artifacts differ:")
        print(diff.rendered_diff)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ArtifactCache(
        memory=False, disk_dir=args.cache_dir or default_disk_dir()
    )
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached file(s) from {cache.disk_dir}")
        return 0
    verified = cache.verify_disk() if args.verify else None
    info = cache.describe()
    rows = [["location", info["disk_dir"]]]
    for kind, count in info["disk_files"].items():
        rows.append([f"{kind} entries", count])
    rows.append(["total bytes", info["disk_bytes"]])
    if verified is not None:
        # Shown only when --verify actually scanned the tiers.
        corrupt = sum(report["corrupt"] for report in verified.values())
        rows.append(["corrupt entries", corrupt])
    print(format_table("Artifact cache", ["key", "value"], rows))
    if verified is not None:
        print(
            format_table(
                "Integrity scan (corrupt entries deleted)",
                ["tier", "checked", "corrupt"],
                [
                    [kind, report["checked"], report["corrupt"]]
                    for kind, report in verified.items()
                ],
            )
        )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Serve shard tasks until interrupted (``repro worker``).

    SIGTERM (and Ctrl-C) trigger a *graceful* shutdown: the in-flight
    task finishes and its result is delivered, the worker deregisters
    from its control plane (``--join`` mode), and the process exits 0 —
    a rolling restart never loses a shard.  A pool member that dies
    mid-task breaks the worker: it stops serving and exits 1, and its
    coordinators retry the lost shards elsewhere.
    """
    import signal

    from repro.runner.remote import WorkerServer, parse_address

    if args.no_cache:
        configure_cache(memory=False, disk_dir=None)
    else:
        configure_cache(
            memory=True, disk_dir=args.cache_dir or default_disk_dir()
        )
    host, port = parse_address(args.listen)
    server = WorkerServer(host, port, capacity=max(1, args.jobs))
    address = server.start()

    def _drain(signum, frame):  # noqa: ARG001 - signal handler shape
        server.begin_graceful_shutdown()

    # Install the handler before announcing: anyone parsing the
    # announce line may SIGTERM us the moment they have read it.
    signal.signal(signal.SIGTERM, _drain)
    # Machine-readable announce line: `local:N` spawning parses it to
    # learn OS-assigned ports.
    print(f"REPRO-WORKER-LISTEN {address}", flush=True)
    agent = None
    if args.join:
        from repro.service.agent import WorkerAgent

        agent = WorkerAgent(
            args.join, server, heartbeat_interval=args.heartbeat_interval
        )
        agent.start()
    try:
        # Returns once a drain (SIGTERM) or shutdown frame stops it.
        server.serve_forever()
    except KeyboardInterrupt:
        server.begin_graceful_shutdown()
    finally:
        if server.is_draining():
            server.wait_drained(timeout=60.0)
        if agent is not None:
            agent.stop()  # deregisters: the plane stops leasing us now
        server.close()
    if server.broken:
        print("worker stopped: a pool member died mid-task", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# Service verbs (repro serve / submit / jobs / drain)
# ----------------------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the control plane until interrupted (``repro serve``)."""
    import signal
    import threading

    from repro.service.server import ControlPlane

    plane = ControlPlane(
        args.listen,
        cache_dir=args.cache_dir,
        resume=args.resume,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    address = plane.start()
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    # Machine-readable announce line, mirroring `repro worker`.
    print(f"REPRO-SERVE-LISTEN {address}", flush=True)
    try:
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        plane.stop()
    return 0


def _parse_override(text: str, *, want_axis: bool) -> tuple[str, object]:
    """``NAME=VALUE`` -> (name, parsed value).  VALUE is a Python
    literal when it parses as one, else the raw string; a ``--grid``
    axis must be a list/tuple literal."""
    import ast

    name, sep, raw = text.partition("=")
    if not sep or not name:
        raise ConfigurationError(f"expected NAME=VALUE, got {text!r}")
    try:
        value: object = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    if want_axis:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(
                f"--grid {name} needs a list literal, got {raw!r}"
            )
        value = list(value)
    return name, value


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api.client import ServiceClient

    client = ServiceClient(args.connect)
    params = dict(
        _parse_override(item, want_axis=False) for item in args.sets
    )
    grid = dict(_parse_override(item, want_axis=True) for item in args.grids)
    job = client.submit(
        args.experiment,
        days=args.days,
        params=params,
        grid=grid or None,
        client=args.client,
    )
    # Status goes to stderr so `--wait` stdout stays byte-identical to
    # `repro run` of the same request (the CI smoke diffs the two).
    print(f"submitted {job['job_id']} ({job['state']})", file=sys.stderr)
    if not args.wait:
        print(job["job_id"])
        return 0
    final = client.wait(job["job_id"], timeout=args.timeout)
    if final["state"] != "done":
        print(
            f"job {final['job_id']} {final['state']}: {final['error']}",
            file=sys.stderr,
        )
        return 1
    for run in client.result(job["job_id"]):
        print(f"=== {run['experiment']} ===")
        print(run["rendered"])
        print()
    return 0


def _cmd_jobs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.api.client import ServiceClient

    client = ServiceClient(args.connect)
    if args.action == "list":
        jobs = client.jobs()
        if not jobs:
            print(f"no jobs at {args.connect}")
            return 0
        print(
            format_table(
                f"Jobs ({args.connect})",
                ["job id", "client", "experiment", "kind", "state",
                 "attempts", "error"],
                [
                    [
                        job["job_id"],
                        job["client"],
                        job["experiment"],
                        job["kind"],
                        job["state"],
                        job["attempts"],
                        job["error"] or "-",
                    ]
                    for job in jobs
                ],
            )
        )
        return 0
    if not args.job_id:
        parser.error(f"'jobs {args.action}' needs a JOB id")
    if args.action == "show":
        job = client.job(args.job_id)
        rows = [[key, repr(value)] for key, value in sorted(job.items())]
        print(format_table(f"Job {args.job_id}", ["field", "value"], rows))
        return 0
    if args.action == "cancel":
        job = client.cancel(args.job_id)
        print(f"cancelled {job['job_id']}")
        return 0
    if args.action == "events":
        for index, event in enumerate(client.events(args.job_id)):
            data = ", ".join(
                f"{f.name}={getattr(event, f.name)!r}" for f in fields(event)
            )
            print(f"{index:5d}  {type(event).__name__:<15s} {data}")
        return 0
    # result
    for run in client.result(args.job_id):
        print(f"=== {run['experiment']} ===")
        print(run["rendered"])
        print()
    return 0


def _cmd_drain(args: argparse.Namespace) -> int:
    from repro.api.client import ServiceClient

    ServiceClient(args.connect).drain(args.address)
    print(f"draining {args.address}: no new leases, in-flight finishes")
    return 0


def _cmd_service(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    """Dispatch the control-plane verbs with uniform error reporting."""
    from repro.api.client import ServiceError

    try:
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "drain":
            return _cmd_drain(args)
        return _cmd_jobs(args, parser)
    except (ServiceError, ConfigurationError) as error:
        print(f"{args.command} failed: {error}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command in ("serve", "submit", "jobs", "drain"):
            return _cmd_service(args, parser)
        if args.command == "runs":
            return _cmd_runs(args, parser)
        if args.command == "lint":
            return run_lint(args)
        return _cmd_run(args, parser)
    except BrokenPipeError:
        # Downstream readers (head, grep -q) may close the pipe before
        # the output is fully printed; that is not an error.  Point
        # stdout at devnull so the interpreter's exit-time flush does
        # not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
