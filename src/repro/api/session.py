"""The programmatic front door: one object that drives the whole stack.

:class:`Session` is what services, notebooks, and benchmark harnesses
(and the ``repro`` CLI itself — it is a thin client over this module)
use instead of shelling out:

* :meth:`Session.submit` / :meth:`Session.run` execute typed
  :class:`~repro.runner.base.RunRequest` batches through whichever
  backend the session's :class:`~repro.runner.base.RunnerPolicy` names;
* :meth:`Session.sweep` makes parameter sweeps first-class: a grid (or
  explicit point list) expands deterministically into many requests
  that run as **one batch** through the session's backend; what the
  points share (traces, ADM fits, reward tables) reaches each of them
  through the artifact cache instead of being recomputed per point;
* every completed run persists a
  :class:`~repro.api.store.RunManifest` under the cache dir, queryable
  via :meth:`Session.runs` and the ``repro runs`` CLI verbs.

A run's event stream is its only record: :attr:`Session.last_events`
(its aggregate) and :attr:`Session.last_events_path` (its trail) are
published before it starts, so they describe a run that fails too, and
manifests take their slot table and cache figures from the aggregate.

The byte-identity invariant carries over: a sweep of one point renders
byte-identically to ``repro run`` of the same experiment/parameters,
because merge and render still happen in the coordinator in shard
declaration order regardless of backend.

Typical use::

    from repro.api import Session

    with_store = Session(cache_dir="/tmp/repro-cache", jobs=4)
    sweep = with_store.sweep("fig4", grid={"min_pts_values": [[2], [2, 4]]})
    for point, outcome in zip(sweep.points, sweep.outcomes):
        print(point, outcome.seconds)
    print(with_store.runs()[-1].run_id)
"""

from __future__ import annotations

import itertools
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.api.store import (
    EVENTS_SUBDIR,
    STORE_SUBDIR,
    RunDiff,
    RunManifest,
    RunStore,
)
from repro.errors import ConfigurationError
from repro.events.dispatch import (
    EventDispatcher,
    EventProcessor,
    use_dispatcher,
)
from repro.events.model import Event
from repro.events.processors import (
    JsonlEventWriter,
    ProfileAggregator,
    read_events_jsonl,
)
from repro.runner import (
    ArtifactCache,
    AsyncShardRunner,
    BaseRunner,
    CachePolicy,
    RunnerPolicy,
    RunOutcome,
    RunRequest,
    build_runner,
    default_disk_dir,
    load_all,
)
from repro.runner.async_graph import GraphSummary
from repro.runner.cache import code_fingerprint
from repro.runner.scheduler import Task


def expand_grid(grid: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Expand a parameter grid into an ordered list of sweep points.

    The expansion is pure and deterministic: axes vary in the grid's
    key insertion order, with the *last* axis fastest (odometer order,
    like nested for-loops), so the same grid always yields the same
    point sequence.  A non-sequence value (or a string) is a fixed
    axis: it takes that value at every point.
    """
    if not grid:
        raise ConfigurationError("an empty sweep grid names no runs")
    axes: list[tuple[str, list[Any]]] = []
    for name, values in grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(
            values, (list, tuple)
        ):
            values = [values]
        elif not values:
            raise ConfigurationError(
                f"sweep axis {name!r} has no values; drop the axis or "
                "give it at least one"
            )
        axes.append((name, list(values)))
    names = [name for name, _ in axes]
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(values for _, values in axes))
    ]


@dataclass
class SweepResult:
    """One :meth:`Session.sweep`: points, outcomes, and telemetry
    (``profile`` is the sweep run's event aggregate)."""

    experiment: str
    sweep_id: str
    points: list[dict[str, Any]]
    outcomes: list[RunOutcome]
    profile: ProfileAggregator | None = None
    manifests: list[RunManifest] = field(default_factory=list)

    def __iter__(self):
        return iter(zip(self.points, self.outcomes))


class Session:
    """A configured connection to the experiment stack.

    Args:
        cache_dir: Disk tier for the artifact cache; the run store
            lives at ``<cache_dir>/runs``.  Defaults to
            ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-shatter``.
        no_cache: Run with caching fully off; no manifests are
            persisted either (there is no store location without a
            cache dir).
        runner: Backend name (``auto``/``serial``/``async``/
            ``remote``) — see :class:`RunnerPolicy`.  ``async`` and
            ``remote`` are the graph runner on a thread, process-pool
            (``jobs > 1``), or remote-worker executor.
        jobs: Concurrency bound for parallel backends.
        workers: Remote worker spec (``"host:port,..."`` or
            ``"local:N"``); implies the remote backend under ``auto``.
        origin: Stamped on every manifest (``"api"``, ``"cli"``).
        events: JSONL event-trail persistence: ``"auto"`` (write a
            trail whenever the session has a run store), ``"jsonl"``
            (require persistence; errors without a store), ``"off"``
            (never write).  An in-memory
            :class:`~repro.events.processors.ProfileAggregator` is
            attached to every run regardless — read it from
            :attr:`last_events`, which pool and remote workers' events
            reach too.
    """

    _EVENT_MODES = ("auto", "jsonl", "off")

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        no_cache: bool = False,
        runner: str = "auto",
        jobs: int = 1,
        workers: str | None = None,
        origin: str = "api",
        events: str = "auto",
    ) -> None:
        load_all()
        self.policy = RunnerPolicy(backend=runner, jobs=max(1, jobs), workers=workers)
        self.policy.resolved_backend()  # fail fast on contradictory knobs
        if events not in self._EVENT_MODES:
            raise ConfigurationError(
                f"unknown events mode {events!r}; pick one of "
                f"{', '.join(self._EVENT_MODES)}"
            )
        if no_cache:
            self.cache = ArtifactCache(memory=False, disk_dir=None)
        else:
            self.cache = ArtifactCache(
                memory=True, disk_dir=cache_dir or default_disk_dir()
            )
        self.origin = origin
        self.store: RunStore | None = (
            RunStore(self.cache.disk_dir / STORE_SUBDIR)
            if self.cache.disk_dir is not None
            else None
        )
        if events == "jsonl" and self.store is None:
            raise ConfigurationError(
                "events='jsonl' needs somewhere to write trails; this "
                "session persists no runs (no_cache)"
            )
        self.events_mode = events
        self._processors: list[EventProcessor] = []
        self.last_runner: BaseRunner | None = None
        self.last_manifests: list[RunManifest] = []
        self.last_events: ProfileAggregator | None = None
        self.last_events_path: Path | None = None

    # ------------------------------------------------------------------
    # Building requests
    # ------------------------------------------------------------------

    def request(
        self,
        name: str,
        *,
        days: int | None = None,
        cache: CachePolicy | None = None,
        sweep: str | None = None,
        client: str = "",
        **overrides: Any,
    ) -> RunRequest:
        """A typed, fully-resolved request (validated against the
        experiment's parameter schema).  ``client`` tags the request
        with its submitting tenant for multi-client fairness (the
        service control plane sets it; single-tenant callers leave it
        empty)."""
        return RunRequest.build(
            name,
            days=days,
            overrides=overrides,
            cache=cache,
            sweep=sweep,
            client=client,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def submit(
        self,
        name: str | RunRequest,
        *,
        days: int | None = None,
        cache: CachePolicy | None = None,
        **overrides: Any,
    ) -> RunOutcome:
        """Run one experiment; returns its outcome (manifest persisted)."""
        if isinstance(name, RunRequest):
            if days is not None or overrides or cache is not None:
                raise ConfigurationError(
                    "submit(request) takes no extra parameters; build "
                    "them into the request"
                )
            request = name
        else:
            request = self.request(name, days=days, cache=cache, **overrides)
        return self.run([request])[0]

    def run(self, requests: Sequence[RunRequest | str]) -> list[RunOutcome]:
        """Execute a batch of requests through one runner: the backend
        the session's :class:`RunnerPolicy` names."""
        coerced = self._coerce(requests)
        return self._execute(build_runner(self.policy, cache=self.cache), coerced)

    def run_with(
        self, runner: BaseRunner, requests: Sequence[RunRequest]
    ) -> list[RunOutcome]:
        """Execute a batch through a caller-constructed runner.

        The service control plane uses this to lend the runner its
        long-lived remote executor while keeping everything else the
        session does — event dispatch, trail persistence, manifest
        recording — exactly as :meth:`run` would.  ``last_manifests``
        lines up with ``requests`` afterwards.
        """
        return self._execute(runner, list(requests))

    def sweep(
        self,
        name: str,
        grid: Mapping[str, Any] | None = None,
        *,
        points: Iterable[Mapping[str, Any]] | None = None,
        days: int | None = None,
        base: Mapping[str, Any] | None = None,
        cache: CachePolicy | None = None,
    ) -> SweepResult:
        """Run one experiment across many parameter points, as one batch.

        ``grid`` (a mapping of parameter name to a list of values)
        expands via :func:`expand_grid`; ``points`` is the explicit
        alternative (an ordered list of override dicts).  ``base``
        overrides apply to every point; ``days`` scales each point the
        way ``repro run --days`` would.

        All points run through the session's backend, exactly as
        :meth:`run` runs a batch.  Traces and ADM fits whose inputs the
        sweep does not vary reach every point through the artifact
        cache instead of being recomputed per point — what makes wide
        scenario sweeps affordable.
        """
        if (grid is None) == (points is None):
            raise ConfigurationError(
                "sweep() needs exactly one of grid= or points="
            )
        expanded = (
            expand_grid(grid)
            if grid is not None
            else [dict(point) for point in points or []]
        )
        if not expanded:
            raise ConfigurationError("sweep() expanded to zero points")
        sweep_id = f"{name}-{uuid.uuid4().hex[:8]}"
        requests = [
            self.request(
                name,
                days=days,
                cache=cache,
                sweep=sweep_id,
                **{**dict(base or {}), **point},
            )
            for point in expanded
        ]
        outcomes = self.run(requests)
        return SweepResult(
            experiment=name,
            sweep_id=sweep_id,
            points=expanded,
            outcomes=outcomes,
            profile=self.last_events,
            manifests=list(self.last_manifests),
        )

    def plan(
        self, requests: Sequence[RunRequest | str]
    ) -> tuple[list[Task], list[GraphSummary]]:
        """The union task graph the batch would execute (dry run):
        validates registry resolution, parameters, and acyclicity
        without computing or touching the cache."""
        runner = AsyncShardRunner(jobs=self.policy.jobs)
        return runner.build_graph(self._coerce(requests))

    # ------------------------------------------------------------------
    # Run store
    # ------------------------------------------------------------------

    def subscribe(self, processor: EventProcessor) -> None:
        """Attach a processor to every subsequent run's event stream.

        Subscribed processors receive events after the session's own
        aggregator (and before the JSONL writer) and are *not* closed
        between runs — they live as long as the session.
        """
        self._processors.append(processor)

    def events(self, run: RunManifest | str) -> list[Event]:
        """A persisted run's event trail, decoded in dispatch order."""
        return read_events_jsonl(self._require_store().events_file(run))

    def runs(
        self, experiment: str | None = None, sweep: str | None = None
    ) -> list[RunManifest]:
        """Persisted manifests, oldest first (empty without a store)."""
        if self.store is None:
            return []
        return self.store.list(experiment=experiment, sweep=sweep)

    def run_manifest(self, run_id: str) -> RunManifest:
        return self._require_store().get(run_id)

    def rendered(self, run: RunManifest | str) -> str:
        return self._require_store().rendered(run)

    def diff_runs(self, a: RunManifest | str, b: RunManifest | str) -> RunDiff:
        return self._require_store().diff(a, b)

    def prune_runs(
        self,
        *,
        keep: int | None = None,
        older_than_days: float | None = None,
    ) -> list[RunManifest]:
        """Garbage-collect old persisted runs (see :meth:`RunStore.prune`);
        the newest run per (experiment, fingerprint) lineage survives."""
        return self._require_store().prune(
            keep=keep, older_than_days=older_than_days
        )

    def _require_store(self) -> RunStore:
        if self.store is None:
            raise ConfigurationError(
                "this session persists no runs (no_cache)"
            )
        return self.store

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _coerce(self, requests: Sequence[RunRequest | str]) -> list[RunRequest]:
        coerced = []
        for request in requests:
            if isinstance(request, str):
                request = self.request(request)
            coerced.append(request)
        if not coerced:
            raise ConfigurationError("nothing to run: the batch is empty")
        return coerced

    def _execute(
        self, runner: BaseRunner, requests: list[RunRequest]
    ) -> list[RunOutcome]:
        # Published before the run, so a failed run leaves its own
        # record here, not the previous run's.
        aggregator = ProfileAggregator()
        self.last_runner = runner
        self.last_events = aggregator
        self.last_events_path = None
        self.last_manifests = []
        processors: list[EventProcessor] = [aggregator, *self._processors]
        writer: JsonlEventWriter | None = None
        trail_name = ""
        if self.events_mode != "off" and self.store is not None:
            trail_id = RunStore.new_run_id(requests[0].experiment, time.time())
            trail_name = f"{EVENTS_SUBDIR}/{trail_id}.jsonl"
            writer = JsonlEventWriter(
                self.store.root / trail_name,
                header={
                    "experiments": [r.experiment for r in requests],
                    "origin": self.origin,
                    "runner": runner.capabilities.name,
                },
            )
            self.last_events_path = writer.path
            processors.append(writer)
        dispatcher = EventDispatcher(processors)
        try:
            with use_dispatcher(dispatcher):
                outcomes = runner.run(requests)
        finally:
            # Close only the trail writer: subscribed processors are
            # session-lived, and the aggregator stays readable.
            if writer is not None:
                writer.close()
        self.last_manifests = self._record(
            requests, outcomes, runner, aggregator, trail_name
        )
        return outcomes

    def _record(
        self,
        requests: list[RunRequest],
        outcomes: list[RunOutcome],
        runner: BaseRunner,
        aggregator: ProfileAggregator,
        trail_name: str = "",
    ) -> list[RunManifest]:
        if self.store is None:
            return []
        manifests = []
        for request, outcome in zip(requests, outcomes):
            created = time.time()
            manifest = RunManifest(
                run_id=RunStore.new_run_id(outcome.name, created),
                experiment=outcome.name,
                artifact=outcome.artifact,
                params=dict(outcome.params),
                created=created,
                fingerprint=code_fingerprint(),
                runner=runner.capabilities.name,
                jobs=runner.capabilities.max_workers,
                workers=dict(aggregator.slots),
                seconds=outcome.seconds,
                cached=outcome.cached,
                shards=outcome.shards,
                sweep=request.sweep,
                cache_stats=dict(aggregator.cache_stats),
                rendered_path="",  # filled by the store
                origin=self.origin,
                events_path=trail_name,
            )
            manifests.append(self.store.record(manifest, outcome.rendered))
        return manifests
