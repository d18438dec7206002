"""Declarative registry of the paper's experiments.

Every table and figure of conf_dsn_HaqueNRUN23 is described by one
:class:`Experiment` spec: its CLI name, the paper artifact it
reproduces, a parameter schema with scaled-down defaults, tags, and the
callables that compute and render it.  Specs register themselves into a
process-global registry (via the :func:`experiment` decorator or
:func:`register`), and every interface — ``repro run``, the benchmark
harness, the examples — dispatches through the registry instead of
hard-coding runner lists.

Experiments come in two executable shapes:

* **plain** — ``fn(**params)`` computes the whole artifact;
* **sharded** — ``shards(params)`` names independent work units (houses,
  datasets, capability sweep points …), ``run_shard(**params, **shard)``
  computes one, and ``merge(params, shards, parts)`` assembles the final
  structured value.  :meth:`Experiment.execute` runs shards serially, so
  a parallel runner that fans the same shards out and merges in order
  produces *identical* results by construction.

A graph-aware runner (:class:`~repro.runner.async_graph.AsyncShardRunner`)
turns a sharded experiment into its shards feeding one coordinator-side
merge, and a plain one into a single task; shards share traces and ADMs
through the content-keyed artifact cache (:mod:`repro.runner.common`).

``render(value)`` must be a cheap pure function of the structured value:
runners call it after (possibly remote or cached) execution, which is
what guarantees serial, parallel, and cached runs emit byte-identical
text.

Because shards may execute on remote workers, everything a spec puts in
``params`` and shard dicts must survive the task-payload wire codec
(:mod:`repro.core.serialization`) *exactly* — JSON scalars,
lists/tuples/dicts of them, or values whose pickle round-trips.  Enum
members should be shipped as their ``.value`` (the existing convention);
``tests/test_runner_remote.py`` pins the round-trip for every
registered spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Param:
    """One experiment parameter: a name, a scaled-down default, docs."""

    name: str
    default: Any = None
    doc: str = ""


@dataclass(frozen=True)
class Experiment:
    """Declarative spec for one paper artifact.

    Attributes:
        name: Registry / CLI id (``"fig3"``, ``"tab5"``, …).
        artifact: The paper artifact reproduced (``"Fig. 3"``).
        title: One-line description for listings.
        render: Pure function from the structured value to the rendered
            plain-text artifact.
        fn: Whole-artifact runner (plain experiments).
        params: Parameter schema; defaults are the scaled-down regime.
        tags: Free-form labels for ``repro run --tag``.
        scale_days: Maps the CLI ``--days`` knob to parameter overrides.
        shards / run_shard / merge: Sharded execution triple (see module
            docstring); all three or none.
        cacheable: Whether results may be replayed from the cache
            (timing experiments opt out).
        deterministic: Whether identical params imply identical values
            (timing experiments measure wall-clock and do not).  A
            non-deterministic experiment must not be cacheable —
            replaying one run's values as another's would be wrong —
            and registration enforces that.
    """

    name: str
    artifact: str
    title: str
    render: Callable[[Any], str]
    fn: Callable[..., Any] | None = None
    params: tuple[Param, ...] = ()
    tags: frozenset[str] = field(default_factory=frozenset)
    scale_days: Callable[[int], dict[str, Any]] | None = None
    shards: Callable[[dict], list[dict]] | None = None
    run_shard: Callable[..., Any] | None = None
    merge: Callable[[dict, list[dict], list[Any]], Any] | None = None
    cacheable: bool = True
    deterministic: bool = True

    def __post_init__(self) -> None:
        shard_parts = (self.shards, self.run_shard, self.merge)
        if any(p is not None for p in shard_parts) and not all(
            p is not None for p in shard_parts
        ):
            raise ConfigurationError(
                f"experiment {self.name!r} must define all of "
                "shards/run_shard/merge or none"
            )
        if self.fn is None and self.shards is None:
            raise ConfigurationError(
                f"experiment {self.name!r} has no way to execute: "
                "provide fn or a shard triple"
            )
        if self.cacheable and not self.deterministic:
            raise ConfigurationError(
                f"experiment {self.name!r} is non-deterministic and must "
                "set cacheable=False: replaying one run's values as "
                "another's would be wrong"
            )

    # ------------------------------------------------------------------
    # Parameters
    # ------------------------------------------------------------------

    def defaults(self) -> dict[str, Any]:
        return {p.name: p.default for p in self.params}

    def resolve(self, days: int | None = None, **overrides: Any) -> dict[str, Any]:
        """Concrete parameters: defaults, then ``--days`` scaling, then
        explicit overrides.

        ``days`` and an integral ``n_days`` must be at least 1: no
        experiment has anything to compute on an empty trace.  Every
        training split (``training_days`` and each entry of
        ``training_day_values``) must leave at least one training and
        one evaluation day of the ``n_days`` trace, the bound
        :func:`~repro.dataset.splits.split_days` enforces mid-run, so a
        request that could only fail is rejected before any compute.  So
        is a ``training_day_values`` that is not a list of splits.
        """
        if days is not None and days < 1:
            raise ConfigurationError(
                f"experiment {self.name!r} needs days >= 1, got {days!r}"
            )
        params = self.defaults()
        if days is not None and self.scale_days is not None:
            params.update(self.scale_days(days))
        unknown = set(overrides) - set(params)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) for {self.name!r}: {sorted(unknown)}"
            )
        params.update(overrides)
        self._check_splits(params)
        return params

    def _check_splits(self, params: dict[str, Any]) -> None:
        values = params.get("training_day_values", ())
        if not isinstance(values, (list, tuple)):
            raise ConfigurationError(
                f"experiment {self.name!r} needs training_day_values as a "
                f"list of training-day counts, not {values!r}"
            )
        n_days = params.get("n_days")
        if not isinstance(n_days, int) or isinstance(n_days, bool):
            return
        if n_days < 1:
            raise ConfigurationError(
                f"experiment {self.name!r} needs n_days >= 1, got {n_days}"
            )
        for split in (params.get("training_days"), *values):
            if isinstance(split, int) and not 1 <= split < n_days:
                raise ConfigurationError(
                    f"experiment {self.name!r} cannot train on {split} of "
                    f"{n_days} days: a training split needs at least one "
                    "training and one evaluation day"
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @property
    def shardable(self) -> bool:
        return self.shards is not None

    def shard_params(self, params: dict[str, Any]) -> list[dict[str, Any]]:
        if self.shards is None:
            raise ConfigurationError(f"experiment {self.name!r} is not sharded")
        return self.shards(params)

    def execute_shard(self, params: dict[str, Any], shard: dict[str, Any]) -> Any:
        assert self.run_shard is not None
        return self.run_shard(**{**params, **shard})

    def execute(
        self, params: dict[str, Any] | None = None, days: int | None = None
    ) -> Any:
        """Run the whole experiment in-process (shards sequentially).

        Parameters go through :meth:`resolve` — the same unknown-name
        validation and ``days`` scaling every other entry point gets —
        so a typo'd override fails loudly instead of being silently
        ignored by ``fn(**params)`` catch-alls.
        """
        resolved = self.resolve(days=days, **(params or {}))
        if self.shardable:
            assert self.merge is not None
            shards = self.shard_params(resolved)
            parts = [self.execute_shard(resolved, shard) for shard in shards]
            return self.merge(resolved, shards, parts)
        assert self.fn is not None
        return self.fn(**resolved)


# ----------------------------------------------------------------------
# Global registry
# ----------------------------------------------------------------------

_REGISTRY: dict[str, Experiment] = {}
_loaded = False


def register(exp: Experiment) -> Experiment:
    """Add a spec to the global registry; names and artifacts are unique."""
    if exp.name in _REGISTRY:
        raise ConfigurationError(f"experiment {exp.name!r} is already registered")
    taken = {e.artifact for e in _REGISTRY.values()}
    if exp.artifact in taken:
        raise ConfigurationError(
            f"paper artifact {exp.artifact!r} is already registered"
        )
    _REGISTRY[exp.name] = exp
    return exp


def unregister(name: str) -> None:
    """Remove a spec (tests only)."""
    _REGISTRY.pop(name, None)


def experiment(
    *,
    name: str,
    artifact: str,
    title: str,
    render: Callable[[Any], str],
    params: tuple[Param, ...] = (),
    tags: frozenset[str] | set[str] | tuple[str, ...] = (),
    scale_days: Callable[[int], dict[str, Any]] | None = None,
    cacheable: bool = True,
    deterministic: bool = True,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a plain (unsharded) experiment runner."""

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        register(
            Experiment(
                name=name,
                artifact=artifact,
                title=title,
                render=render,
                fn=fn,
                params=params,
                tags=frozenset(tags),
                scale_days=scale_days,
                cacheable=cacheable,
                deterministic=deterministic,
            )
        )
        return fn

    return decorate


def load_all() -> None:
    """Import the per-artifact modules so they self-register."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    import repro.runner.experiments  # noqa: F401  (registers on import)


def get_experiment(name: str) -> Experiment:
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def all_experiments() -> list[Experiment]:
    load_all()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def experiment_names() -> list[str]:
    load_all()
    return sorted(_REGISTRY)


def experiments_by_tag(tag: str) -> list[Experiment]:
    load_all()
    return [e for e in all_experiments() if tag in e.tags]
