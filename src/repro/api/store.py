"""Persistent run manifests: what ran, with what, and where the output is.

Until now a run's identity evaporated the moment its artifact scrolled
by.  :class:`RunStore` fixes that: every completed run persists a
:class:`RunManifest` — experiment, resolved parameters, code
fingerprint, runner name, timing, the path of the rendered artifact
and the path of its batch's event trail — as one JSON file under
``<cache dir>/runs/``, next to a ``.txt`` holding the rendered text
itself.  The store is queryable from Python
(:meth:`repro.api.Session.runs`) and from the shell (``repro runs
list|show|diff``), and two manifests can be diffed to answer "what
changed between these runs?" without re-running anything.  What the
run's workers did (slots, cache traffic, tasks) is not copied into the
manifest: it is in the trail, which ``repro runs show`` folds.

Manifests go through the record codec
(:func:`repro.core.serialization.record_to_wire`), the same wire
encoding task payloads and events use, so parameter values that are
not plain JSON — tuples, numpy scalars — survive the round-trip
*exactly*; a manifest read back is equal to the one written.
"""

from __future__ import annotations

import difflib
import json
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.core.serialization import record_from_wire, record_to_wire
from repro.errors import ConfigurationError
from repro.runner.cache import atomic_write

_MANIFEST_VERSION = 1

# Subdirectory of the artifact-cache dir that holds the run store.
STORE_SUBDIR = "runs"

# Subdirectory of the store root that holds JSONL event trails, one
# per run batch; every manifest of the batch names it.
EVENTS_SUBDIR = "events"

# Subdirectory of the store root that holds the control plane's job
# records (:mod:`repro.service.jobs`); a failed batch's jobs name its
# trail.
JOBS_SUBDIR = "jobs"


@dataclass(frozen=True)
class RunManifest:
    """Everything worth remembering about one completed run."""

    run_id: str
    experiment: str
    artifact: str
    params: dict[str, Any]
    created: float
    fingerprint: str
    runner: str
    seconds: float
    cached: bool
    shards: int
    sweep: str | None
    rendered_path: str
    origin: str = "api"
    # Store-root-relative path of the run's JSONL event trail, or ""
    # for a manifest written before runs kept trails.
    events_path: str = ""


def manifest_to_wire(manifest: RunManifest) -> dict:
    """A JSON-ready encoding of a manifest: its format version plus
    every field through the record codec."""
    return {"format_version": _MANIFEST_VERSION, **record_to_wire(manifest)}


def manifest_from_wire(payload: dict) -> RunManifest:
    """Invert :func:`manifest_to_wire`; validates the format version.

    Keys the manifest no longer has are ignored: version-1 manifests
    that still carry ``jobs``, ``workers`` and ``cache_stats`` read
    back, and one without ``events_path`` reads back with no trail.
    """
    version = payload.get("format_version")
    if version != _MANIFEST_VERSION:
        raise ConfigurationError(
            f"unsupported run-manifest format version {version!r}"
        )
    return record_from_wire(RunManifest, payload)


@dataclass(frozen=True)
class RunDiff:
    """What differs between two persisted runs."""

    a: RunManifest
    b: RunManifest
    # Parameter name -> (value in a, value in b); a parameter absent on
    # one side appears as the _MISSING sentinel string.
    param_changes: dict[str, tuple[Any, Any]]
    # Non-parameter manifest fields that differ, same shape.
    field_changes: dict[str, tuple[Any, Any]]
    rendered_identical: bool
    rendered_diff: str = ""

    MISSING = "<absent>"

    @property
    def identical(self) -> bool:
        return (
            not self.param_changes
            and not self.field_changes
            and self.rendered_identical
        )


class RunStore:
    """Directory of run manifests plus their rendered artifacts.

    Layout: ``<root>/<run_id>.json`` (manifest) and
    ``<root>/<run_id>.txt`` (rendered text).  Writes are atomic
    (tmp + rename) so a listing never sees a torn manifest; unreadable
    entries are skipped by :meth:`list` rather than failing the whole
    query — one corrupt file must not hide the rest of the history.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @staticmethod
    def new_run_id(experiment: str, created: float) -> str:
        """A unique, chronologically sortable run id."""
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime(created))
        return f"{experiment}-{stamp}-{uuid.uuid4().hex[:6]}"

    def record(self, manifest: RunManifest, rendered: str) -> RunManifest:
        """Persist one run; returns the manifest with its final
        ``rendered_path`` filled in (relative to the store root)."""
        self.root.mkdir(parents=True, exist_ok=True)
        rendered_name = f"{manifest.run_id}.txt"
        manifest = replace(manifest, rendered_path=rendered_name)
        atomic_write(self.root / rendered_name, rendered.encode())
        atomic_write(
            self.root / f"{manifest.run_id}.json",
            json.dumps(manifest_to_wire(manifest), sort_keys=True).encode(),
        )
        return manifest

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def list(
        self, experiment: str | None = None, sweep: str | None = None
    ) -> list[RunManifest]:
        """Every readable manifest, oldest first (stable: created then
        run id), optionally filtered by experiment or sweep group."""
        manifests = []
        if not self.root.is_dir():
            return manifests
        for entry in self.root.glob("*.json"):
            try:
                manifest = manifest_from_wire(json.loads(entry.read_text()))
            except (OSError, ValueError, ConfigurationError):
                continue  # torn/foreign file; surfaced by `get`, not here
            if experiment is not None and manifest.experiment != experiment:
                continue
            if sweep is not None and manifest.sweep != sweep:
                continue
            manifests.append(manifest)
        manifests.sort(key=lambda m: (m.created, m.run_id))
        return manifests

    def get(self, run_id: str) -> RunManifest:
        """The manifest for ``run_id`` (exact, or a unique prefix)."""
        path = self.root / f"{run_id}.json"
        if not path.is_file():
            matches = sorted(self.root.glob(f"{run_id}*.json"))
            if len(matches) > 1:
                names = ", ".join(m.stem for m in matches)
                raise ConfigurationError(
                    f"run id {run_id!r} is ambiguous: {names}"
                )
            if not matches:
                raise ConfigurationError(
                    f"no run {run_id!r} in {self.root} "
                    "(see 'repro runs list')"
                )
            path = matches[0]
        try:
            return manifest_from_wire(json.loads(path.read_text()))
        except (OSError, ValueError) as error:
            # Torn write from a foreign tool, disk corruption, or a
            # hand-edited file: surface a typed, actionable error
            # instead of a JSON traceback.
            raise ConfigurationError(
                f"run manifest {path.name} is unreadable: {error}"
            ) from error

    def rendered(self, run: RunManifest | str) -> str:
        """The rendered artifact text a run persisted."""
        manifest = run if isinstance(run, RunManifest) else self.get(run)
        try:
            return (self.root / manifest.rendered_path).read_text()
        except OSError as error:
            raise ConfigurationError(
                f"run {manifest.run_id} has no readable rendered artifact "
                f"({manifest.rendered_path}): {error}"
            ) from error

    def events_file(self, run: RunManifest | str) -> Path:
        """The JSONL event-trail path a run persisted.

        Raises :class:`ConfigurationError` when the manifest names no
        trail or its trail file has gone missing.
        """
        manifest = run if isinstance(run, RunManifest) else self.get(run)
        if not manifest.events_path:
            raise ConfigurationError(f"run {manifest.run_id} has no event trail")
        path = self.root / manifest.events_path
        if not path.is_file():
            raise ConfigurationError(
                f"run {manifest.run_id} event trail is missing "
                f"({manifest.events_path})"
            )
        return path

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def prune(
        self,
        *,
        keep: int | None = None,
        older_than_days: float | None = None,
        now: float | None = None,
    ) -> list[RunManifest]:
        """Delete old runs (manifest, rendered text, event trail).

        ``keep=N`` retains the newest ``N`` runs; ``older_than_days=D``
        deletes runs created more than ``D`` days before ``now``
        (both may be combined — a run is deleted if either rule dooms
        it).  The newest run of every ``(experiment, fingerprint)``
        lineage is always retained, whatever the rules say: that run is
        the baseline future ``runs diff`` calls compare against, and
        deleting the last witness of a code version would make "what
        changed since?" unanswerable.  Every manifest of one run batch
        names the batch's single event trail, so a trail is deleted only
        with the last run that reads it.

        A run that raised leaves a trail but no manifest.  Such an
        *orphan* (a trail under ``events/`` that no manifest and no
        control-plane job record names) is deleted when its last write
        is older than the ``older_than_days`` cutoff, or, under
        ``keep``, older than the oldest run that survives: a newer one
        may belong to a run still in flight.

        Returns the deleted manifests, oldest first.
        """
        if keep is None and older_than_days is None:
            raise ConfigurationError(
                "prune needs a retention rule: keep=N and/or older_than_days=D"
            )
        if keep is not None and keep < 0:
            raise ConfigurationError("keep must be >= 0")
        if older_than_days is not None and older_than_days < 0:
            raise ConfigurationError("older_than_days must be >= 0")
        manifests = self.list()
        # list() is oldest-first, so the last writer wins: the map ends
        # up holding each lineage's newest run.
        protected = {
            (manifest.experiment, manifest.fingerprint): manifest.run_id
            for manifest in manifests
        }
        protected_ids = set(protected.values())
        doomed_ids: set[str] = set()
        if keep is not None and keep < len(manifests):
            doomed_ids.update(
                manifest.run_id
                for manifest in manifests[: len(manifests) - keep]
            )
        cutoff: float | None = None
        if older_than_days is not None:
            cutoff = (time.time() if now is None else now) - (
                older_than_days * 86400.0
            )
            doomed_ids.update(
                manifest.run_id
                for manifest in manifests
                if manifest.created < cutoff
            )
        doomed_ids -= protected_ids
        deleted = [
            manifest for manifest in manifests if manifest.run_id in doomed_ids
        ]
        kept_trails = {
            manifest.events_path
            for manifest in manifests
            if manifest.run_id not in doomed_ids
        }
        for manifest in deleted:
            self._delete_run_files(
                manifest, with_trail=manifest.events_path not in kept_trails
            )
        # An orphan is doomed by either rule: older than the age cutoff,
        # or, under keep, older than the oldest run that survives.
        limits: list[float] = [] if cutoff is None else [cutoff]
        survivors = [
            manifest.created
            for manifest in manifests
            if manifest.run_id not in doomed_ids
        ]
        if keep is not None and survivors:
            limits.append(min(survivors))
        if limits:
            self._delete_orphan_trails(manifests, max(limits))
        return deleted

    def _delete_orphan_trails(
        self, manifests: list[RunManifest], cutoff: float
    ) -> None:
        """Delete every trail under ``events/`` last written before
        ``cutoff`` that no manifest and no control-plane job record
        names."""
        named = {
            self.root / manifest.events_path
            for manifest in manifests
            if manifest.events_path
        }
        for record in (self.root / JOBS_SUBDIR).glob("*.json"):
            try:
                events_path = json.loads(record.read_text()).get("events_path")
            except (OSError, ValueError, AttributeError):
                continue  # torn/foreign record; it names nothing here
            if events_path:
                named.add(self.root / events_path)
        for path in (self.root / EVENTS_SUBDIR).glob("*.jsonl"):
            if path in named:
                continue
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass  # already gone; pruning is idempotent

    def _delete_run_files(self, manifest: RunManifest, with_trail: bool) -> None:
        paths = [self.root / f"{manifest.run_id}.json"]
        if manifest.rendered_path:
            paths.append(self.root / manifest.rendered_path)
        if with_trail and manifest.events_path:
            paths.append(self.root / manifest.events_path)
        for path in paths:
            try:
                path.unlink()
            except OSError:
                pass  # already gone; pruning is idempotent

    # ------------------------------------------------------------------
    # Diffing
    # ------------------------------------------------------------------

    def diff(self, a: RunManifest | str, b: RunManifest | str) -> RunDiff:
        """Compare two runs: parameters, provenance, rendered output."""
        ma = a if isinstance(a, RunManifest) else self.get(a)
        mb = b if isinstance(b, RunManifest) else self.get(b)
        param_changes: dict[str, tuple[Any, Any]] = {}
        for key in sorted(set(ma.params) | set(mb.params)):
            va = ma.params.get(key, RunDiff.MISSING)
            vb = mb.params.get(key, RunDiff.MISSING)
            if va != vb or type(va) is not type(vb):
                param_changes[key] = (va, vb)
        field_changes: dict[str, tuple[Any, Any]] = {}
        for name in ("experiment", "artifact", "fingerprint", "runner"):
            va, vb = getattr(ma, name), getattr(mb, name)
            if va != vb:
                field_changes[name] = (va, vb)
        ra, rb = self.rendered(ma), self.rendered(mb)
        rendered_diff = ""
        if ra != rb:
            rendered_diff = "\n".join(
                difflib.unified_diff(
                    ra.splitlines(),
                    rb.splitlines(),
                    fromfile=ma.run_id,
                    tofile=mb.run_id,
                    lineterm="",
                )
            )
        return RunDiff(
            a=ma,
            b=mb,
            param_changes=param_changes,
            field_changes=field_changes,
            rendered_identical=ra == rb,
            rendered_diff=rendered_diff,
        )

