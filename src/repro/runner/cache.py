"""Content-keyed artifact cache shared by every experiment runner.

The experiment suite regenerates the same two expensive inputs over and
over: synthetic house traces, keyed by ``(house, n_days, seed)``, and
fitted ADMs, keyed by the training data's provenance plus the
hyperparameters.  :class:`ArtifactCache` memoizes both — in memory
within a process, and optionally on disk (binary array frames via
:mod:`repro.core.arrayframe`) so a second ``repro run --all`` restores
them instead of regenerating and refitting.  Every disk read decodes
the whole frame and verifies every buffer's checksum, whatever its
size: a torn or flipped entry is reported (``CacheCorrupt``), deleted
and recomputed, never returned.

A third tier caches whole experiment *results* (framed structured
values) so a repeated run of a deterministic experiment with identical
parameters is a pure replay, and a fourth persists day-periodic reward
tables shared across days, homes, and sweep points.  Timing experiments
(Fig. 11) opt out via ``Experiment.cacheable = False``.

The disk directory doubles as a large-payload side channel for the
remote runner: a worker whose shard result exceeds
:attr:`ArtifactCache.spill_threshold` writes it under ``spill/`` and
ships only the token (:meth:`ArtifactCache.put_spill` /
:meth:`ArtifactCache.take_spill`), keeping multi-megabyte arrays off
the JSON socket.

The cache keeps no counters: every hit, miss, put and corrupt entry
is a typed cache event (:mod:`repro.events.model`), which the run's
:class:`~repro.events.processors.ProfileAggregator` counts per tier.
Every file it writes goes through :func:`atomic_write`, as do the run
store's, the job store's and the code fingerprint's digest memo.

The process-global cache is configured once per run (CLI flags, worker
initializers) through :func:`configure_cache`; library code reaches it
with :func:`get_cache`.  ``with cache_disabled():`` is the escape hatch
for code that must observe uncached behaviour.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import os
import sys
import time
import uuid
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Any, Iterator

from repro.adm.cluster_model import AdmParams, ClusterADM
from repro.core.arrayframe import estimate_payload_bytes
from repro.core.serialization import (
    cluster_adm_from_arrays,
    cluster_adm_to_arrays,
    decode_artifact_file,
    encode_artifact,
)
from repro.errors import ConfigurationError
from repro.events.dispatch import emit
from repro.events.model import CacheCorrupt, CacheHit, CacheMiss, CachePut
from repro.home.state import HomeTrace

# Bump when cached payload semantics change; stale entries are ignored
# because the version participates in every key.  v2: binary ``.raf``
# array frames replaced the v1 disk formats.
_CACHE_VERSION = 2

_ENV_DIR = "REPRO_CACHE_DIR"

# Worker results smaller than this cross the socket inline; larger ones
# spill to the shared disk tier (when one is configured).
DEFAULT_SPILL_THRESHOLD = 256 * 1024

# The disk tiers, each a directory of ``.raf`` frames under the cache
# dir, that ``verify_disk`` sweeps.
_FRAME_TIERS = ("trace", "adm", "rewards", "result", "spill")


def atomic_write(path: Path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step: readers see the old
    bytes or the new ones, never a torn file.

    The bytes go to a temp file beside ``path`` and then ``os.replace``
    it.  The temp name is a random ``uuid4``, because workers on several
    hosts (or in containers that repeat PIDs) share one cache dir.  A
    failed write removes its temp file and re-raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{uuid.uuid4().hex}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


_fingerprint: str | None = None


def source_digest(source: str) -> str:
    """A behaviour-keyed hash of one module's source.

    Hashes the dump of the parsed AST with docstrings stripped, so
    comment- and docstring-only edits keep the digest (and therefore
    every cache key) stable, while any executable change — a constant,
    an operator, a default — still invalidates.  Unparseable source
    falls back to hashing the raw text.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return hashlib.sha256(source.encode()).hexdigest()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                node.body = body[1:]
    return hashlib.sha256(ast.dump(tree).encode()).hexdigest()


def tree_fingerprint(root: Path, memo_path: Path) -> str:
    """The behaviour hash of the ``*.py`` tree under ``root``.

    Each module contributes its relative path and :func:`source_digest`,
    which stays the definition.  Parsing every module costs most of a
    second, so the digests are memoized in the JSON file ``memo_path``,
    keyed by the sha256 of each module's exact bytes: only modules whose
    bytes the memo has not seen are parsed.  A missing, unreadable,
    corrupt or other-interpreter memo just means recomputing; the memo
    is then rewritten atomically with exactly this tree's entries, and a
    failed write is ignored.
    """
    memo = _read_digest_memo(memo_path)
    digests: dict[str, str] = {}
    fingerprint = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        raw = path.read_bytes()
        key = hashlib.sha256(raw).hexdigest()
        digest = memo.get(key)
        if not isinstance(digest, str):
            # Decoded the way the interpreter reads source (UTF-8 or the
            # coding cookie), never in the locale's encoding.
            digest = source_digest(importlib.util.decode_source(raw))
        digests[key] = digest
        fingerprint.update(str(path.relative_to(root)).encode())
        fingerprint.update(digest.encode())
    if digests != memo:
        payload = json.dumps({"python": sys.version, "digests": digests})
        with suppress(OSError):
            atomic_write(memo_path, payload.encode())
    return fingerprint.hexdigest()[:16]


def _read_digest_memo(memo_path: Path) -> dict[str, Any]:
    try:
        memo = json.loads(memo_path.read_bytes())
    except (OSError, ValueError):
        return {}
    # ``ast.dump`` output may differ between interpreter builds.
    if not isinstance(memo, dict) or memo.get("python") != sys.version:
        return {}
    digests = memo.get("digests")
    return digests if isinstance(digests, dict) else {}


def code_fingerprint() -> str:
    """A behaviour hash of the installed ``repro`` sources.

    Participates in every cache key so that editing library *behaviour*
    invalidates previously persisted artifacts — a stale framed result
    from before the edit must never replay as if it were current.
    Keys are salted per-file with :func:`source_digest`, so formatting,
    comment, and docstring edits do **not** wipe the cache.  Computed
    once per process by :func:`tree_fingerprint`, whose digest memo sits
    beside the package's bytecode (``__pycache__``, or under
    ``PYTHONPYCACHEPREFIX``) rather than in a cache dir, so a process on
    a fresh ``--cache-dir`` still finds it filled.
    """
    global _fingerprint
    if _fingerprint is None:
        import repro

        root = Path(repro.__file__).parent
        init_pyc = importlib.util.cache_from_source(str(root / "__init__.py"))
        memo_name = f"source-digests.{sys.implementation.cache_tag}.json"
        _fingerprint = tree_fingerprint(root, Path(init_pyc).parent / memo_name)
    return _fingerprint


def default_disk_dir() -> Path:
    """Where the CLI persists artifacts: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-shatter``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-shatter"


def adm_params_token(params: AdmParams) -> tuple:
    """A stable, hashable identity for ADM hyperparameters."""
    return (
        params.backend.value,
        params.eps,
        params.min_pts,
        params.k,
        params.seed,
        params.tolerance,
    )


def _digest(kind: str, token: tuple) -> str:
    payload = repr((_CACHE_VERSION, code_fingerprint(), kind, token)).encode()
    return hashlib.sha256(payload).hexdigest()[:32]


class ArtifactCache:
    """Two-level (memory, disk) cache for traces, ADMs, and results.

    Memory entries live for the process; disk entries persist across
    runs.  Traces come back as defensive copies so callers can never
    corrupt a shared entry; ADMs and results are treated as immutable
    after construction (their public APIs are read-only).
    """

    def __init__(
        self,
        *,
        memory: bool = True,
        disk_dir: str | Path | None = None,
        spill_threshold: int | None = None,
    ) -> None:
        self._memory: dict[str, Any] | None = {} if memory else None
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.spill_threshold = (
            DEFAULT_SPILL_THRESHOLD if spill_threshold is None else int(spill_threshold)
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._memory is not None or self.disk_dir is not None

    @property
    def memory_enabled(self) -> bool:
        return self._memory is not None

    def _disk_path(self, kind: str, digest: str) -> Path | None:
        if self.disk_dir is None:
            return None
        return self.disk_dir / kind / f"{digest}.raf"

    # Disk entries are ``.raf`` array frames (raw buffers + manifest,
    # :mod:`repro.core.arrayframe`).  ``_decode`` is the one reader of a
    # tier's files, for ``_get`` and ``verify_disk`` alike: it decodes
    # the whole frame, checking every buffer's crc32, then validates or
    # rebuilds the tier's value.  Any exception it raises makes the entry
    # count as corrupt.

    def _decode(self, kind: str, path: Path) -> Any:
        value = decode_artifact_file(path)
        if kind == "trace":
            return self._check_trace(value)
        if kind == "adm":
            return cluster_adm_from_arrays(value)
        return value

    @staticmethod
    def _encode(kind: str, value: Any) -> bytes:
        if kind == "adm":
            value = cluster_adm_to_arrays(value)
        return encode_artifact(value)

    def _get(self, kind: str, token: tuple) -> Any | None:
        digest = _digest(kind, token)
        if self._memory is not None and digest in self._memory:
            emit(CacheHit(tier=kind))
            return self._memory[digest]
        path = self._disk_path(kind, digest)
        if path is not None and path.exists():
            try:
                value = self._decode(kind, path)
            except Exception:
                # A torn or corrupt file must not crash the run, but it
                # is not a plain miss either: report it separately and
                # delete it so the next writer starts clean instead of
                # every reader re-tripping on the same bad bytes.
                value = None
                emit(CacheCorrupt(tier=kind))
                try:
                    path.unlink()
                except OSError:
                    pass  # racing reader already removed it
            if value is not None:
                emit(CacheHit(tier=kind))
                if self._memory is not None:
                    self._memory[digest] = value
                return value
        emit(CacheMiss(tier=kind))
        return None

    def _put(self, kind: str, token: tuple, value: Any) -> None:
        digest = _digest(kind, token)
        if self._memory is not None:
            self._memory[digest] = value
        path = self._disk_path(kind, digest)
        nbytes = 0
        if path is not None:
            data = self._encode(kind, value)
            nbytes = len(data)
            atomic_write(path, data)
        emit(CachePut(tier=kind, nbytes=nbytes))

    # ------------------------------------------------------------------
    # Trace tier
    # ------------------------------------------------------------------

    @staticmethod
    def _check_trace(value: Any) -> HomeTrace:
        if not isinstance(value, HomeTrace):
            raise ConfigurationError(
                f"trace tier holds {type(value).__name__}, expected HomeTrace"
            )
        return value

    def get_trace(self, house: str, n_days: int, seed: int) -> HomeTrace | None:
        value = self._get("trace", (house, n_days, seed))
        return value.copy() if value is not None else None

    def put_trace(self, house: str, n_days: int, seed: int, trace: HomeTrace) -> None:
        self._put("trace", (house, n_days, seed), trace.copy())

    # ------------------------------------------------------------------
    # ADM tier
    # ------------------------------------------------------------------

    def get_adm(self, token: tuple) -> ClusterADM | None:
        return self._get("adm", token)

    def put_adm(self, token: tuple, adm: ClusterADM) -> None:
        self._put("adm", token, adm)

    # ------------------------------------------------------------------
    # Analysis tier (memory only — pipeline objects are process-local)
    # ------------------------------------------------------------------

    def get_analysis(self, token: tuple) -> Any | None:
        if self._memory is None:
            return None
        digest = _digest("analysis", token)
        if digest in self._memory:
            emit(CacheHit(tier="analysis"))
            return self._memory[digest]
        emit(CacheMiss(tier="analysis"))
        return None

    def put_analysis(self, token: tuple, analysis: Any) -> None:
        if self._memory is None:
            return
        emit(CachePut(tier="analysis"))
        self._memory[_digest("analysis", token)] = analysis

    # ------------------------------------------------------------------
    # Reward-table tier (day-periodic numpy tables shared across days,
    # homes, and sweep points whose pricing inputs match — the token
    # deliberately excludes chunk/fleet-size params, so a sweep over
    # non-pricing knobs reuses one persisted table per pricing config)
    # ------------------------------------------------------------------

    def get_rewards(self, token: tuple) -> Any | None:
        return self._get("rewards", token)

    def put_rewards(self, token: tuple, value: Any) -> None:
        self._put("rewards", token, value)

    # ------------------------------------------------------------------
    # Result tier
    # ------------------------------------------------------------------

    def get_result(self, experiment: str, token: tuple) -> Any | None:
        return self._get("result", (experiment,) + token)

    def put_result(self, experiment: str, token: tuple, value: Any) -> None:
        self._put("result", (experiment,) + token, value)

    # ------------------------------------------------------------------
    # Spill tier (large-payload side channel for remote workers)
    # ------------------------------------------------------------------
    #
    # Unlike the content-keyed tiers, spill entries are one-shot: the
    # worker writes under a random token, the coordinator decodes and
    # deletes.

    def put_spill(self, value: Any) -> str:
        """Persist ``value`` under a fresh token; requires a disk tier."""
        if self.disk_dir is None:
            raise ConfigurationError("spilling requires a disk cache dir")
        token = uuid.uuid4().hex
        data = encode_artifact(value)
        atomic_write(self._spill_path(token), data)
        emit(CachePut(tier="spill", nbytes=len(data)))
        return token

    def take_spill(self, token: str) -> Any:
        """Decode and remove a spilled payload; raises if it is gone or
        torn (the caller decides whether that is retryable)."""
        if self.disk_dir is None:
            raise ConfigurationError(
                "received a spilled result but no disk cache dir is configured"
            )
        if not token or not str(token).isalnum():
            raise ConfigurationError(f"malformed spill token {token!r}")
        path = self._spill_path(token)
        if not path.exists():
            emit(CacheMiss(tier="spill"))
            raise ConfigurationError(f"spilled payload {token} not found")
        try:
            value = self._decode("spill", path)
        except Exception as exc:
            emit(CacheCorrupt(tier="spill"))
            try:
                path.unlink()
            except OSError:
                pass
            raise ConfigurationError(
                f"spilled payload {token} is corrupt: {exc}"
            ) from exc
        emit(CacheHit(tier="spill"))
        try:
            path.unlink()
        except OSError:
            pass
        return value

    def maybe_spill(self, value: Any) -> str | None:
        """Spill ``value`` if it is large enough and a disk tier exists;
        returns the token, or ``None`` to send the value inline."""
        if self.disk_dir is None:
            return None
        if estimate_payload_bytes(value) < self.spill_threshold:
            return None
        return self.put_spill(value)

    def _spill_path(self, token: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / "spill" / f"{token}.raf"

    # ------------------------------------------------------------------
    # Shared-storage coordination
    # ------------------------------------------------------------------
    #
    # A remote worker is only useful if its ``--cache-dir`` is the same
    # shared storage the coordinator reads (shards on every worker store
    # traces and ADMs there for each other, and spilled results travel
    # home through it).  The beacon handshake proves it: the
    # coordinator drops a random token file under its disk tier, the
    # worker checks the same relative path under *its* disk tier, and a
    # miss means the two processes are looking at different
    # directories.

    def write_sync_beacon(self) -> str | None:
        """Drop a beacon file under the disk tier; returns its token
        (``None`` without a disk tier).

        Beacons left behind by coordinators that died before
        :meth:`remove_sync_beacon` are swept here once they are clearly
        stale — runs do not live for days.
        """
        if self.disk_dir is None:
            return None
        sync_dir = self.disk_dir / "sync"
        if sync_dir.is_dir():
            cutoff = time.time() - 24 * 3600.0
            for entry in sync_dir.iterdir():
                try:
                    if entry.is_file() and entry.stat().st_mtime < cutoff:
                        entry.unlink()
                except OSError:
                    pass  # racing coordinator; its beacon, its problem
        token = uuid.uuid4().hex
        atomic_write(self._beacon_path(token), b"repro-shared-cache\n")
        return token

    def check_sync_beacon(self, token: str | None) -> bool:
        """Whether this cache's disk tier holds the beacon ``token``."""
        if self.disk_dir is None or not token or not token.isalnum():
            return False
        return self._beacon_path(token).exists()

    def remove_sync_beacon(self, token: str | None) -> None:
        if self.disk_dir is None or not token or not token.isalnum():
            return
        try:
            self._beacon_path(token).unlink()
        except OSError:
            pass

    def _beacon_path(self, token: str) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / "sync" / f"{token}.beacon"

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def verify_disk(self) -> dict[str, dict[str, int]]:
        """Decode every persisted artifact; delete the ones that fail.

        Returns ``{tier: {"checked": n, "corrupt": m}}`` and emits
        ``CacheCorrupt`` for each corrupt file — ``repro cache info
        --verify`` is the offline sweep for storage that took torn
        writes (e.g. a shared cache dir after a worker host died
        mid-copy).
        """
        report: dict[str, dict[str, int]] = {}
        if self.disk_dir is None or not self.disk_dir.exists():
            return report
        for kind_dir in sorted(self.disk_dir.iterdir()):
            if kind_dir.name not in _FRAME_TIERS or not kind_dir.is_dir():
                continue
            checked = corrupt = 0
            for entry in sorted(kind_dir.iterdir()):
                if not entry.is_file():
                    continue
                checked += 1
                try:
                    self._decode(kind_dir.name, entry)
                except Exception:
                    corrupt += 1
                    emit(CacheCorrupt(tier=kind_dir.name))
                    try:
                        entry.unlink()
                    except OSError:
                        pass
            report[kind_dir.name] = {"checked": checked, "corrupt": corrupt}
        return report

    def clear(self, *, memory: bool = True, disk: bool = True) -> int:
        """Drop cached entries; returns the number of disk files removed."""
        removed = 0
        if memory and self._memory is not None:
            self._memory.clear()
        if disk and self.disk_dir is not None and self.disk_dir.exists():
            for kind_dir in self.disk_dir.iterdir():
                if not kind_dir.is_dir():
                    continue
                # Kind dirs may nest (the run store keeps its JSONL
                # event trails under runs/events/).
                removed += self._clear_tree(kind_dir)
        return removed

    @classmethod
    def _clear_tree(cls, path: Path) -> int:
        removed = 0
        for entry in path.iterdir():
            if entry.is_dir():
                removed += cls._clear_tree(entry)
            else:
                entry.unlink()
                removed += 1
        path.rmdir()
        return removed

    def describe(self) -> dict:
        """Cache shape for ``repro cache info``."""
        files: dict[str, int] = {}
        total_bytes = 0
        if self.disk_dir is not None and self.disk_dir.exists():
            for kind_dir in sorted(self.disk_dir.iterdir()):
                if not kind_dir.is_dir() or kind_dir.name == "sync":
                    # "sync" holds coordination beacons, not artifacts.
                    continue
                entries = [e for e in kind_dir.iterdir() if e.is_file()]
                files[kind_dir.name] = len(entries)
                total_bytes += sum(e.stat().st_size for e in entries)
        return {
            "disk_dir": str(self.disk_dir) if self.disk_dir else None,
            "memory_entries": len(self._memory or {}),
            "disk_files": files,
            "disk_bytes": total_bytes,
        }


# ----------------------------------------------------------------------
# Process-global cache
# ----------------------------------------------------------------------

_active = ArtifactCache()


def get_cache() -> ArtifactCache:
    return _active


def configure_cache(
    *,
    memory: bool = True,
    disk_dir: str | Path | None = None,
    spill_threshold: int | None = None,
) -> ArtifactCache:
    """Install (and return) a fresh process-global cache."""
    global _active
    _active = ArtifactCache(
        memory=memory, disk_dir=disk_dir, spill_threshold=spill_threshold
    )
    return _active


def set_cache(cache: ArtifactCache) -> ArtifactCache:
    """Install an existing cache object (CLI save/restore)."""
    global _active
    _active = cache
    return cache


@contextmanager
def cache_disabled() -> Iterator[None]:
    """Temporarily run with caching fully off."""
    global _active
    previous = _active
    _active = ArtifactCache(memory=False, disk_dir=None)
    try:
        yield
    finally:
        _active = previous
