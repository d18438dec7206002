"""Outside-in tracing: spans from wrappers the benchmark installs itself.

The program is not edited.  :class:`Tracer` replaces each layer's public
functions (and the few private kernels the program itself times as
``KernelTimed`` events, so the two counts can be compared) with thin
wrappers that record one span per call: name, start, end, parent span,
request id, process and thread, plus a tag (cache tier, hit/miss) and a
number (bytes, batch width).

Two things make a naive monkey-patch miss calls, and both are handled:

* Modules that did ``from x import f`` hold their own binding of ``f``.
  :meth:`Tracer.install` rebinds *every* attribute of every loaded
  ``repro`` module that is the original function, so a call through any
  binding is seen.  The coverage check in ``tests/trace_coverage.py``
  compares span counts with the program's own event counts, so a binding
  this misses cannot drop out silently.
* Process-pool workers are forked after installation, so they inherit
  the wrappers, but they leave through ``os._exit`` and skip ``atexit``.
  The tracer therefore registers a :mod:`multiprocessing` after-fork hook
  that starts an empty span list in the child and a ``Finalize`` that
  writes it out when the worker process shuts down.

Spans stay in memory and are written once, at the end of each process,
as ``spans-<pid>.json`` in the trace directory.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Any, Callable, Iterable

# Span record layout (a list, so it serialises compactly):
# [sid, name, start, end, parent_sid, request, pid, tid, tag, value]
SID, NAME, START, END, PARENT, REQUEST, PID, TID, TAG, VALUE = range(10)

_MISSING = object()


def _tier_of(name: str) -> str:
    return name.split("_", 1)[1]


def _describe_get(tier: str):
    def describe(args, kwargs, result):
        return f"{tier}:{'miss' if result is None else 'hit'}", 0

    return describe


def _describe_put(tier: str):
    return lambda args, kwargs, result: (tier, 0)


def _describe_encode(args, kwargs, result):
    return "", len(result)


def _describe_decode(args, kwargs, result):
    raw = args[0] if args else kwargs.get("raw", b"")
    return "", len(raw)


def _describe_decode_file(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    try:
        return "", os.path.getsize(path)
    except OSError:
        return "", 0


def _describe_batch(args, kwargs, result):
    jobs = args[0] if args else kwargs.get("jobs", ())
    return "", len(jobs)


def _request_of_payload(args, kwargs):
    payload = args[0] if args else kwargs["payload"]
    return str(payload[1])


# (module, attribute path, span name, describe) for plain call wrappers.
FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.dataset.synthetic", "generate_house_trace", "dataset.trace", None),
    ("repro.dataset.synthetic", "generate_home_fleet", "dataset.fleet", None),
    ("repro.adm.cluster_model", "ClusterADM.fit", "adm.fit", None),
    ("repro.geometry.halfplane", "stay_range_table", "geometry.stay_range_table", None),
    ("repro.geometry.halfplane", "points_in_hulls", "geometry.points_in_hulls", None),
    # The program charges stealth-oracle construction to its GEOMETRY
    # kernel timer (the oracle builds the ADM's stay tables).
    ("repro.attack.schedule", "_StealthOracle.__init__", "geometry.oracle", None),
    ("repro.attack.schedule", "shatter_schedule_batch", "attack.batch", _describe_batch),
    # The batched DP kernel behind shatter_schedule_batch, which the
    # program times as SCHEDULE_DP_BATCH.
    ("repro.attack.schedule", "_optimize_spans_batch", "attack.dp_batch", None),
    ("repro.attack.greedy", "greedy_schedule", "attack.greedy", None),
    ("repro.attack.biota", "biota_greedy_attack", "attack.biota", None),
    ("repro.attack.realtime", "execute_attack", "attack.execute", None),
    ("repro.hvac.simulation", "simulate", "hvac.simulate", None),
    ("repro.hvac.simulation", "simulate_batch", "hvac.simulate_batch", None),
    ("repro.core.serialization", "encode_artifact", "codec.encode", _describe_encode),
    ("repro.core.serialization", "decode_artifact", "codec.decode", _describe_decode),
    (
        "repro.core.serialization",
        "decode_artifact_file",
        "codec.decode",
        _describe_decode_file,
    ),
    ("repro.api.store", "RunStore.record", "store.record", None),
    ("repro.events.processors", "JsonlEventWriter.handle", "events.write", None),
) + tuple(
    ("repro.runner.cache", f"ArtifactCache.{method}", "cache.get", _describe_get(_tier_of(method)))
    for method in ("get_trace", "get_adm", "get_analysis", "get_rewards", "get_result")
) + tuple(
    ("repro.runner.cache", f"ArtifactCache.{method}", "cache.put", _describe_put(_tier_of(method)))
    for method in ("put_trace", "put_adm", "put_analysis", "put_rewards", "put_result")
) + (
    ("repro.runner.cache", "ArtifactCache.put_spill", "cache.put", _describe_put("spill")),
    (
        "repro.runner.cache",
        "ArtifactCache.take_spill",
        "cache.get",
        lambda args, kwargs, result: ("spill:hit", 0),
    ),
)


class Tracer:
    """Records spans around the program's layer functions (see module doc)."""

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.spans: list[list] = []
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []
        self._active = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, request: str | None) -> tuple[int, int | None, str, float]:
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (None, "")
        sid = next(self._ids)
        req = request if request is not None else inherited
        stack.append((sid, req))
        return sid, parent, req, time.perf_counter()

    def _close(self, sid, parent, req, start, name, tag="", value=0) -> None:
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append(
            [sid, name, start, end, parent, req, self.pid, threading.get_ident(), tag, value]
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        describe: Callable | None = None,
        request_of: Callable | None = None,
    ) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of else None
            sid, parent, req, start = tracer._open(request)
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tag, value = ("", 0)
                if describe is not None and result is not _MISSING:
                    tag, value = describe(args, kwargs, result)
                tracer._close(sid, parent, req, start, name, tag, value)

        return traced

    def wrap_generator_factory(self, fn: Callable, name: str) -> Callable:
        """For a function returning an iterator: one span per ``next``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)

            def steps():
                while True:
                    sid, parent, req, start = tracer._open(None)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        tracer._close(sid, parent, req, start, name)
                        return
                    except BaseException:
                        tracer._close(sid, parent, req, start, name)
                        raise
                    tracer._close(sid, parent, req, start, name)
                    yield item

            return steps()

        return traced

    def _merge_wrapper(self, fn: Callable) -> Callable:
        """Coordinator merges run through ``AsyncShardRunner._execute_task``
        with a ``"merge"`` payload; other payloads pass straight through
        (in the process executor that call only waits on a pool future)."""
        tracer = self

        @functools.wraps(fn)
        def traced(runner, task, deps, worker):
            if task.payload[0] != "merge":
                return fn(runner, task, deps, worker)
            sid, parent, req, start = tracer._open(str(task.payload[1]))
            try:
                return fn(runner, task, deps, worker)
            finally:
                tracer._close(sid, parent, req, start, "runner.merge")

        return traced

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target and rebind every loaded alias of it.

        Call after the program's modules are imported (``load_all``) and
        before any process pool forks.
        """
        if self._active:
            return self
        self._active = True
        replacements: dict[int, Any] = {}
        for module_name, path, name, describe in FUNCTIONS:
            owner, attr, original = _resolve(module_name, path)
            replacements[id(original)] = self._set(
                owner, attr, original, self.wrap(original, name, describe)
            )
        owner, attr, original = _resolve("repro.dataset.synthetic", "iter_home_fleet")
        replacements[id(original)] = self._set(
            owner, attr, original, self.wrap_generator_factory(original, "dataset.fleet_home")
        )
        owner, attr, original = _resolve("repro.runner.async_graph", "_execute_payload")
        replacements[id(original)] = self._set(
            owner,
            attr,
            original,
            self.wrap(original, "runner.task", request_of=_request_of_payload),
        )
        owner, attr, original = _resolve(
            "repro.runner.async_graph", "AsyncShardRunner._execute_task"
        )
        self._set(owner, attr, original, self._merge_wrapper(original))
        self._rebind_aliases(replacements)
        mp_util.register_after_fork(self, Tracer._after_fork)
        return self

    def _set(self, owner: Any, attr: str, original: Any, wrapper: Any) -> Any:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        return wrapper

    def _rebind_aliases(self, replacements: dict[int, Any]) -> None:
        originals = {id(original): original for _, _, original in self._restore}
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None and originals.get(id(value)) is value:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._active = False

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------

    def _after_fork(self) -> None:
        if not self._active:
            return
        self.spans = []
        self.pid = os.getpid()
        self._local = threading.local()
        mp_util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> Path:
        """Write this process's spans (once per process, at its end)."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)
        return path


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    return owner, attr, original


def install_from_env() -> Tracer | None:
    """Install a tracer writing to ``$PERFBENCH_TRACE_DIR`` if it is set;
    the process flushes its spans at interpreter exit."""
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not out_dir:
        return None
    import atexit

    from repro.runner import load_all

    load_all()
    tracer = Tracer(out_dir).install()
    atexit.register(tracer.flush)
    return tracer


def wrapper_cost(calls: int = 20_000) -> float:
    """Seconds one wrapper adds to the call it wraps (best of five).

    Times many calls of a no-op with and without a wrapper; times the
    span count, this estimates a traced run's tracing overhead without
    differencing two noisy wall times.
    """
    tracer = Tracer(".")

    def noop():
        return None

    traced = tracer.wrap(noop, "noop")
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter()
        for _ in range(calls):
            traced()
        wrapped = time.perf_counter()
        best = min(best, ((wrapped - plain) - (plain - start)) / calls)
        tracer.spans.clear()
    return max(best, 0.0)


# ----------------------------------------------------------------------
# The program's own counts, for comparison
# ----------------------------------------------------------------------


def span_cache_counts(summary: "SpanSummary") -> dict[str, int]:
    """Cache traffic as the wrappers saw it, keyed like the per-tier
    entries of ``ProfileAggregator.cache_stats`` (``"adm.hits"`` …)."""
    counts: dict[str, int] = {}
    for (name, tag), count in summary.tags.items():
        if name == "cache.get":
            tier, outcome = tag.split(":")
            key = f"{tier}.{'hits' if outcome == 'hit' else 'misses'}"
        elif name == "cache.put":
            key = f"{tag}.puts"
        else:
            continue
        counts[key] = counts.get(key, 0) + count
    return counts


def program_cache_counts(cache_stats: dict[str, int]) -> dict[str, int]:
    """The per-tier hit/miss/put entries of a ``cache_stats`` dict."""
    return {
        key: count
        for key, count in cache_stats.items()
        if key.rsplit(".", 1)[-1] in ("hits", "misses", "puts") and "." in key
    }


def cache_count_gap(summary: "SpanSummary", cache_stats: dict[str, int]) -> int:
    """|wrapper count - program count|, summed over tiers and kinds."""
    spans = span_cache_counts(summary)
    program = program_cache_counts(cache_stats)
    return sum(abs(spans.get(key, 0) - program.get(key, 0)) for key in set(spans) | set(program))


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def load_spans(out_dir: str | Path) -> list[list]:
    spans: list[list] = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    return spans


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[tuple, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault((span[PID], span[PARENT]), []).append(
                (span[START], span[END])
            )
    result = []
    for span in spans:
        start, end = span[START], span[END]
        inner = [
            (max(s, start), min(e, end))
            for s, e in children.get((span[PID], span[SID]), ())
            if min(e, end) > max(s, start)
        ]
        result.append((end - start) - _union_length(inner))
    return result


class SpanSummary:
    """Per-name call counts, self seconds and values over a span set."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.value: dict[str, int] = {}
        self.tags: dict[tuple[str, str], int] = {}
        self._by_key = by_key = {(span[PID], span[SID]): span for span in spans}
        self.parent_name = {
            (span[PID], span[SID]): (
                by_key[(span[PID], span[PARENT])][NAME]
                if (span[PID], span[PARENT]) in by_key
                else None
            )
            for span in spans
        }
        for span, own in zip(spans, self_times(spans)):
            name = span[NAME]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.value[name] = self.value.get(name, 0) + int(span[VALUE] or 0)
            if span[TAG]:
                key = (name, span[TAG])
                self.tags[key] = self.tags.get(key, 0) + 1

    def seconds(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def ancestors(self, span: list) -> list[str]:
        """Names of the span's enclosing spans, innermost first."""
        names = []
        parent = self._by_key.get((span[PID], span[PARENT]))
        while parent is not None:
            names.append(parent[NAME])
            parent = self._by_key.get((parent[PID], parent[PARENT]))
        return names

    def child_value(self, name: str, parent: str) -> int:
        return sum(
            int(span[VALUE] or 0)
            for span in self.spans
            if span[NAME] == name
            and self.parent_name[(span[PID], span[SID])] == parent
        )

    def uncovered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` that no top-level span covers."""
        covered = _union_length(
            (max(span[START], start), min(span[END], end))
            for span in self.spans
            if span[PARENT] is None and min(span[END], end) > max(span[START], start)
        )
        return (end - start) - covered
