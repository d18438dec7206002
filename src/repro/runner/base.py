"""Runner abstraction over the experiment registry.

A runner takes :class:`RunRequest`s — the typed unit of work every
entry point (CLI, :class:`repro.api.Session`, benchmarks) speaks: an
experiment name, its fully-resolved parameters, and per-request
:class:`CachePolicy`.  Batches of requests are the native input:
``run(requests)`` is the only execution entry point, and graph-aware
runners plan one union DAG across the whole batch.  Runners produce
:class:`RunOutcome`s (structured value + rendered text + timing),
declare what they support via :class:`RunnerCapabilities`, and are
constructed from a :class:`RunnerPolicy` by
:func:`repro.runner.build_runner`.

All runners share the result-replay tier of the artifact cache, so the
choice of runner never changes *what* is computed, only how fast.
Rendering always happens in the coordinating process, from the merged
structured value: that is the invariant that makes serial, parallel,
and cached runs emit byte-identical artifacts.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.runner.cache import ArtifactCache, get_cache
from repro.runner.registry import Experiment, get_experiment


@dataclass(frozen=True)
class RunnerCapabilities:
    """What an execution backend declares about itself: its name (run
    manifests and trails record it) and its concurrency bound."""

    name: str
    max_workers: int = 1


@dataclass(frozen=True)
class CachePolicy:
    """How one request interacts with the result-replay cache tier.

    The trace/ADM tiers are an implementation detail of the experiment
    internals and stay on; this policy governs only whole-result replay
    — the tier that can turn a run into a no-op.  ``read_results=False``
    forces recomputation (while still persisting the fresh value unless
    ``write_results`` is also off), the knob a benchmark or a
    staleness-suspicious rerun wants.
    """

    read_results: bool = True
    write_results: bool = True

    @staticmethod
    def replay() -> "CachePolicy":
        return CachePolicy()

    @staticmethod
    def refresh() -> "CachePolicy":
        """Recompute, then overwrite the cached result."""
        return CachePolicy(read_results=False, write_results=True)

    @staticmethod
    def bypass() -> "CachePolicy":
        """Neither read nor write the result tier."""
        return CachePolicy(read_results=False, write_results=False)


@dataclass(frozen=True)
class RunnerPolicy:
    """Which execution backend a batch of requests runs under.

    ``backend="auto"`` resolves to remote when workers are named, the
    async shard graph when ``jobs > 1``, else serial.  Both ``async``
    and ``remote`` are the graph runner; ``jobs > 1`` gives ``async`` a
    local process pool (see :func:`repro.runner.build_runner`).  Every
    backend emits the same task, worker and run events, so telemetry
    never decides the backend.
    """

    backend: str = "auto"
    jobs: int = 1
    workers: str | None = None

    _BACKENDS = ("auto", "serial", "async", "remote")

    def __post_init__(self) -> None:
        if self.backend not in self._BACKENDS:
            raise ConfigurationError(
                f"unknown runner backend {self.backend!r}; "
                f"choose from {', '.join(self._BACKENDS)}"
            )

    def resolved_backend(self) -> str:
        """The concrete backend this policy names (validated)."""
        backend = self.backend
        if backend == "auto":
            if self.workers:
                backend = "remote"
            else:
                backend = "async" if self.jobs > 1 else "serial"
        if backend == "remote" and not self.workers:
            raise ConfigurationError(
                "--runner remote needs --workers host:port,... or "
                "--workers local:N"
            )
        if backend != "remote" and self.workers:
            raise ConfigurationError(
                f"--workers only applies to the remote backend, not "
                f"--runner {backend}"
            )
        return backend


@dataclass
class RunRequest:
    """One experiment to run: resolved parameters plus run policies.

    ``params`` must be the output of :meth:`Experiment.resolve` (or a
    dict of known parameter names) — :meth:`build` is the constructor
    that routes name/days/overrides through ``resolve()`` so every
    entry point gets the same unknown-parameter validation and
    ``--days`` scaling.  ``sweep`` groups the requests of one
    :meth:`repro.api.Session.sweep` expansion.  ``client`` names the
    submitting tenant when requests from several clients share one
    batch (the service control plane): the scheduler round-robins ready
    tasks across distinct clients.
    """

    experiment: str
    params: dict[str, Any] = field(default_factory=dict)
    cache: CachePolicy = field(default_factory=CachePolicy)
    sweep: str | None = None
    client: str = ""

    @staticmethod
    def build(
        name: str,
        *,
        days: int | None = None,
        overrides: dict[str, Any] | None = None,
        cache: CachePolicy | None = None,
        sweep: str | None = None,
        client: str = "",
    ) -> "RunRequest":
        """The typed front door: resolve parameters through the spec."""
        exp = get_experiment(name)
        return RunRequest(
            experiment=name,
            params=exp.resolve(days=days, **(overrides or {})),
            cache=cache if cache is not None else CachePolicy(),
            sweep=sweep,
            client=client,
        )

    @staticmethod
    def for_days(name: str, days: int | None = None) -> "RunRequest":
        return RunRequest.build(name, days=days)


@dataclass
class RunOutcome:
    """The result of running one experiment."""

    name: str
    artifact: str
    params: dict[str, Any]
    value: Any
    rendered: str
    seconds: float
    cached: bool = False
    shards: int = 1


def _result_token(params: dict[str, Any]) -> tuple:
    return tuple(sorted((k, repr(v)) for k, v in params.items()))


class BaseRunner(ABC):
    """Abstract base for all experiment runners."""

    def __init__(self, cache: ArtifactCache | None = None) -> None:
        self._cache = cache

    @property
    def cache(self) -> ArtifactCache:
        return self._cache if self._cache is not None else get_cache()

    @property
    @abstractmethod
    def capabilities(self) -> RunnerCapabilities:
        """Declare what this runner supports."""

    @abstractmethod
    def run(self, requests: Sequence[RunRequest | str]) -> list[RunOutcome]:
        """Execute every request, preserving request order."""

    def run_one(
        self,
        name: str,
        params: dict[str, Any] | None = None,
        days: int | None = None,
    ) -> RunOutcome:
        """Convenience wrapper for a single experiment."""
        return self.run([RunRequest.build(name, days=days, overrides=params)])[0]

    # ------------------------------------------------------------------
    # Shared plumbing
    # ------------------------------------------------------------------

    @staticmethod
    def _coerce(requests: Iterable[RunRequest | str]) -> list[RunRequest]:
        coerced = []
        for request in requests:
            if isinstance(request, str):
                request = RunRequest.for_days(request)
            coerced.append(request)
        return coerced

    def _cached_outcome(
        self, exp: Experiment, request: RunRequest
    ) -> RunOutcome | None:
        """Replay a previous run of a cacheable experiment, if stored
        and the request's cache policy allows reading it."""
        if (
            not exp.cacheable
            or not self.cache.enabled
            or not request.cache.read_results
        ):
            return None
        started = time.perf_counter()
        value = self.cache.get_result(exp.name, _result_token(request.params))
        if value is None:
            return None
        return self._finish(
            exp,
            request,
            value,
            seconds=time.perf_counter() - started,
            cached=True,
        )

    def _finish(
        self,
        exp: Experiment,
        request: RunRequest,
        value: Any,
        seconds: float,
        cached: bool = False,
        shards: int = 1,
    ) -> RunOutcome:
        """Render, store in the result cache, and wrap up an outcome."""
        params = request.params
        if (
            not cached
            and exp.cacheable
            and self.cache.enabled
            and request.cache.write_results
        ):
            self.cache.put_result(exp.name, _result_token(params), value)
        return RunOutcome(
            name=exp.name,
            artifact=exp.artifact,
            params=dict(params),
            value=value,
            rendered=exp.render(value),
            seconds=seconds,
            cached=cached,
            shards=shards,
        )
