"""The ``repro lint`` engine: discovery, parsing, rules, suppressions.

One :func:`lint_paths` call walks the requested files, parses each one
once (a content-hash parse cache keyed like the artifact cache's code
salt makes repeated in-process runs — the test suite, editor plugins —
near-free), runs the selected rules from worker threads through the
project's own :class:`~repro.runner.scheduler.GraphScheduler`, applies
inline suppressions and the optional committed baseline, and returns a
deterministic :class:`LintResult`.

Failure taxonomy matters here: a :class:`~repro.devtools.lint.base.Finding`
means the *code* is wrong, a :class:`~repro.devtools.lint.base.LintError`
means the *lint run* is untrustworthy (unreadable file, syntax error),
and the two surface as different exit codes so CI can tell "invariant
violated" from "gate broken".
"""

from __future__ import annotations

import ast
import hashlib
import threading
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.devtools.lint.base import (
    FileContext,
    Finding,
    LintError,
    Rule,
    Suppression,
    all_rules,
)
from repro.devtools.lint.baseline import apply_baseline, load_baseline
from repro.devtools.lint.suppressions import extract_suppressions, scan_comments
from repro.errors import ConfigurationError

# The engine-synthesized rule name for stale suppression comments; it
# lives in the registry (for --select / --list-rules) but its findings
# are produced here, after suppression accounting.
UNUSED_SUPPRESSION = "unused-suppression"


@dataclass(frozen=True)
class _Parsed:
    tree: ast.Module
    comments: Mapping[int, str]
    suppressions: tuple[Suppression, ...]


# Content-hash parse cache: identical file bytes parse once per process
# regardless of how many engine instances or test cases lint them.
_PARSE_CACHE: dict[str, _Parsed] = {}
_PARSE_LOCK = threading.Lock()
_PARSE_CACHE_MAX = 1024

# CPython 3.11 keeps the AST constructor's recursion-depth counter in
# interpreter-wide module state, so concurrent ast.parse() calls from
# worker threads can race into "SystemError: AST constructor recursion
# depth mismatch".  Serialize the parse itself; rule execution (pure
# walks over per-file trees) stays parallel.
_AST_LOCK = threading.Lock()


def parse_source(source: str) -> _Parsed:
    """Parse ``source`` through the content-hash cache."""
    key = hashlib.sha256(source.encode()).hexdigest()
    with _PARSE_LOCK:
        cached = _PARSE_CACHE.get(key)
    if cached is not None:
        return cached
    with _AST_LOCK:
        tree = ast.parse(source)
    comments = scan_comments(source)
    parsed = _Parsed(
        tree=tree,
        comments=comments,
        suppressions=tuple(extract_suppressions(source, comments)),
    )
    with _PARSE_LOCK:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_MAX:
            _PARSE_CACHE.clear()
        _PARSE_CACHE[key] = parsed
    return parsed


def parse_cache_info() -> int:
    """Number of parsed files currently cached (telemetry for tests)."""
    with _PARSE_LOCK:
        return len(_PARSE_CACHE)


@dataclass
class LintResult:
    """Outcome of one engine run (findings and errors are sorted)."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    files: int = 0
    # posix path -> source lines, for baseline snapshotting.
    sources: dict[str, list[str]] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors


@dataclass
class _FileOutcome:
    findings: list[Finding] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def discover_files(paths: Sequence[Path | str]) -> tuple[list[Path], list[LintError]]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: list[Path] = []
    errors: list[LintError] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        elif path.is_file():
            candidates = [path]
        else:
            errors.append(LintError(path=str(raw), message="no such file or directory"))
            continue
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                files.append(candidate)
    return files, errors


def resolve_rules(select: Iterable[str] | None) -> dict[str, Rule]:
    """Validate ``--select`` names against the registry."""
    registry = all_rules()
    if select is None:
        return registry
    chosen: dict[str, Rule] = {}
    for name in select:
        if name not in registry:
            known = ", ".join(sorted(registry))
            raise ConfigurationError(
                f"unknown lint rule {name!r} (known rules: {known})"
            )
        chosen[name] = registry[name]
    return chosen


def _analyze_file(
    path: Path, rules: Mapping[str, Rule], options: Mapping[str, str]
) -> _FileOutcome:
    outcome = _FileOutcome()
    posix = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        outcome.errors.append(LintError(path=posix, message=str(error)))
        return outcome
    outcome.lines = source.splitlines()
    try:
        parsed = parse_source(source)
    except SyntaxError as error:
        outcome.errors.append(
            LintError(path=posix, message=f"syntax error: {error.msg} (line {error.lineno})")
        )
        return outcome
    ctx = FileContext(
        path=path,
        source=source,
        tree=parsed.tree,
        comments=parsed.comments,
        options=options,
    )
    raw_findings: list[Finding] = []
    for rule in rules.values():
        if rule.name == UNUSED_SUPPRESSION:
            continue  # synthesized below, from suppression accounting
        raw_findings.extend(rule.check(ctx))
    outcome.findings = _apply_suppressions(
        ctx, raw_findings, parsed.suppressions, rules
    )
    return outcome


def _apply_suppressions(
    ctx: FileContext,
    findings: list[Finding],
    suppressions: tuple[Suppression, ...],
    rules: Mapping[str, Rule],
) -> list[Finding]:
    """Drop suppressed findings; report stale or bogus suppressions."""
    # (line, rule) -> suppression carrying it.
    by_line_rule: dict[tuple[int, str], Suppression] = {}
    for suppression in suppressions:
        for rule_name in suppression.rules:
            by_line_rule[(suppression.line, rule_name)] = suppression
    used: set[tuple[int, str]] = set()
    kept: list[Finding] = []
    for finding in findings:
        key = (finding.line, finding.rule)
        if key in by_line_rule:
            used.add(key)
        else:
            kept.append(finding)
    if UNUSED_SUPPRESSION not in rules:
        return kept
    registry = all_rules()
    unused_rule = registry[UNUSED_SUPPRESSION]
    for suppression in suppressions:
        for rule_name in suppression.rules:
            if rule_name not in registry:
                kept.append(
                    unused_rule.finding(
                        ctx,
                        suppression.comment_line,
                        f"suppression names unknown rule {rule_name!r}",
                    )
                )
            elif rule_name in rules and (suppression.line, rule_name) not in used:
                kept.append(
                    unused_rule.finding(
                        ctx,
                        suppression.comment_line,
                        f"unused suppression of {rule_name!r} (nothing to "
                        "suppress on its line — remove the comment)",
                    )
                )
    return kept


def _run_parallel(
    files: Sequence[Path],
    rules: Mapping[str, Rule],
    options: Mapping[str, str],
    jobs: int,
) -> list[_FileOutcome]:
    """Analyze files concurrently through the project's graph scheduler.

    The lint engine reuses the same executor the experiment runners use
    (:class:`~repro.runner.scheduler.GraphScheduler` with one flat task
    per file): one scheduling substrate to maintain, and lint runs show
    up in event telemetry if a dispatcher happens to be installed.
    """
    from repro.runner.scheduler import GraphScheduler, Task

    scheduler = GraphScheduler(
        jobs=jobs,
        execute=lambda task, deps, worker: _analyze_file(
            task.payload, rules, options
        ),
    )
    tasks = [
        Task(key=index, payload=path, label=f"lint:{path.name}")
        for index, path in enumerate(files)
    ]
    results = scheduler.run(tasks)
    return [results[index] for index in range(len(files))]


def lint_paths(
    paths: Sequence[Path | str],
    select: Iterable[str] | None = None,
    jobs: int = 1,
    baseline_path: Path | str | None = None,
    options: Mapping[str, str] | None = None,
) -> LintResult:
    """Run the selected rules over ``paths`` and collate the outcome.

    Raises :class:`~repro.errors.ConfigurationError` for caller mistakes
    (unknown rule names, malformed baseline) — the CLI maps those to the
    distinct engine-error exit code.
    """
    rules = resolve_rules(select)
    files, discovery_errors = discover_files(paths)
    result = LintResult(errors=list(discovery_errors), files=len(files))
    options = dict(options or {})
    if jobs > 1 and len(files) > 1:
        outcomes = _run_parallel(files, rules, options, jobs)
    else:
        outcomes = [_analyze_file(path, rules, options) for path in files]
    for path, outcome in zip(files, outcomes):
        result.findings.extend(outcome.findings)
        result.errors.extend(outcome.errors)
        result.sources[path.as_posix()] = outcome.lines
    if baseline_path is not None:
        baseline_file = Path(baseline_path)
        try:
            baseline = load_baseline(baseline_file)
        except FileNotFoundError:
            baseline = Counter()
        except (ValueError, KeyError, TypeError) as error:
            raise ConfigurationError(
                f"unreadable lint baseline {baseline_file}: {error}"
            ) from error
        result.findings = apply_baseline(
            result.findings, baseline, result.sources
        )
    result.findings.sort()
    result.errors.sort()
    return result
