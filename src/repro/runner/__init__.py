"""Experiment registry, pluggable runners, and the shared artifact cache.

The subsystem every results-surface interface goes through:

* :mod:`repro.runner.registry` — declarative :class:`Experiment` specs,
  one per paper table/figure, in a decorator-based global registry;
* :mod:`repro.runner.serial` / :mod:`repro.runner.async_graph` — the
  two runners behind the :class:`BaseRunner` capability-declaring API:
  the serial oracle, and the graph runner that schedules a shard-level
  dependency graph across all requests, in submission order, on one
  :class:`Executor` —
  threads (:class:`ThreadExecutor`), local processes
  (:class:`ProcessExecutor`, :mod:`repro.runner.pool`), or remote
  workers;
* :mod:`repro.runner.remote` — the remote-worker protocol
  (``repro worker`` server, :class:`RemoteExecutor` coordinator side);
* :mod:`repro.runner.cache` — content-keyed memoization of house
  traces, fitted ADMs, and whole experiment results;
* :mod:`repro.runner.experiments` — the per-artifact modules.

Typical use::

    from repro.runner import RunnerPolicy, RunRequest, build_runner

    runner = build_runner(RunnerPolicy(jobs=8))
    outcomes = runner.run([RunRequest.for_days("tab5", days=12), "fig3"])
    text = outcomes[0].rendered

Higher-level callers (the CLI, :class:`repro.api.Session`) describe the
backend with a :class:`RunnerPolicy` and let :func:`build_runner`
construct it.
"""

from repro.runner.async_graph import (
    AsyncShardRunner,
    Executor,
    ThreadExecutor,
)
from repro.runner.base import (
    BaseRunner,
    RunnerCapabilities,
    RunnerPolicy,
    RunOutcome,
    RunRequest,
)
from repro.runner.cache import (
    ArtifactCache,
    cache_disabled,
    configure_cache,
    default_disk_dir,
    get_cache,
    set_cache,
)
from repro.runner.pool import ProcessExecutor
from repro.runner.remote import (
    LocalWorkerPool,
    RemoteExecutor,
    RemoteTaskError,
    WorkerServer,
    spawn_local_workers,
)
from repro.runner.registry import (
    Experiment,
    Param,
    all_experiments,
    experiment,
    experiment_names,
    experiments_by_tag,
    get_experiment,
    load_all,
    register,
)
from repro.runner.serial import SerialRunner


def build_runner(
    policy: RunnerPolicy | None = None,
    *,
    cache: ArtifactCache | None = None,
) -> BaseRunner:
    """Construct the execution backend a :class:`RunnerPolicy` names.

    The single factory every entry point shares: the CLI and
    :class:`repro.api.Session` both turn their knobs into a policy and
    call this, so backend-selection rules live in exactly one place.
    Every backend but ``serial`` is the graph runner; its executor is
    remote when workers are named, a process pool when ``jobs > 1``,
    else threads.  ``cache`` (optional) becomes the runner's private
    cache instead of the process-global one.
    """
    policy = policy if policy is not None else RunnerPolicy()
    backend = policy.resolved_backend()
    if backend == "serial":
        return SerialRunner(cache=cache)
    if backend == "remote":
        executor: Executor = RemoteExecutor(policy.workers, cache=cache)
    elif policy.jobs > 1:
        executor = ProcessExecutor(policy.jobs)
    else:
        executor = ThreadExecutor(policy.jobs)
    return AsyncShardRunner(jobs=policy.jobs, cache=cache, executor=executor)


__all__ = [
    "ArtifactCache",
    "AsyncShardRunner",
    "BaseRunner",
    "Executor",
    "Experiment",
    "LocalWorkerPool",
    "Param",
    "ProcessExecutor",
    "RemoteExecutor",
    "RemoteTaskError",
    "RunOutcome",
    "RunRequest",
    "RunnerCapabilities",
    "RunnerPolicy",
    "SerialRunner",
    "ThreadExecutor",
    "WorkerServer",
    "build_runner",
    "all_experiments",
    "cache_disabled",
    "configure_cache",
    "default_disk_dir",
    "experiment",
    "experiment_names",
    "experiments_by_tag",
    "get_cache",
    "get_experiment",
    "load_all",
    "register",
    "set_cache",
    "spawn_local_workers",
]
