"""The ``repro lint`` engine: discovery, parsing, rules, suppressions.

One :func:`lint_paths` call walks the requested files in one loop,
parses each one once, runs the selected rules over it, applies inline
suppressions, and returns a deterministic :class:`LintResult`.  The
rules are pure-Python AST walks, so the loop runs in the calling
thread.

Failure taxonomy matters here: a :class:`~repro.devtools.lint.base.Finding`
means the *code* is wrong, a :class:`~repro.devtools.lint.base.LintError`
means the *lint run* is untrustworthy (unreadable file, syntax error),
and the two surface as different exit codes so CI can tell "invariant
violated" from "gate broken".
"""

from __future__ import annotations

import ast
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
from repro.devtools.lint.suppressions import extract_suppressions, scan_comments
from repro.errors import ConfigurationError

# The engine-synthesized rule name for stale suppression comments; it
# lives in the registry (for --select / --list-rules) but its findings
# are produced here, after suppression accounting.
UNUSED_SUPPRESSION = "unused-suppression"


@dataclass
class LintResult:
    """Outcome of one engine run (findings and errors are sorted)."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors


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
    path: Path, rules: Mapping[str, Rule], result: LintResult
) -> None:
    """Add one file's findings, or the error that stopped it, to ``result``."""
    posix = path.as_posix()
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        result.errors.append(LintError(path=posix, message=str(error)))
        return
    try:
        tree = ast.parse(source)
        comments = scan_comments(source)
        suppressions = tuple(extract_suppressions(source, comments))
    except SyntaxError as error:
        result.errors.append(
            LintError(path=posix, message=f"syntax error: {error.msg} (line {error.lineno})")
        )
        return
    ctx = FileContext(path=path, source=source, tree=tree, comments=comments)
    raw_findings: list[Finding] = []
    for rule in rules.values():
        if rule.name == UNUSED_SUPPRESSION:
            continue  # synthesized below, from suppression accounting
        raw_findings.extend(rule.check(ctx))
    result.findings.extend(
        _apply_suppressions(ctx, raw_findings, suppressions, rules)
    )


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


def lint_paths(
    paths: Sequence[Path | str], select: Iterable[str] | None = None
) -> LintResult:
    """Run the selected rules over ``paths`` and collate the outcome.

    Raises :class:`~repro.errors.ConfigurationError` for caller mistakes
    (unknown rule names) — the CLI maps those to the distinct
    engine-error exit code.
    """
    rules = resolve_rules(select)
    files, discovery_errors = discover_files(paths)
    result = LintResult(errors=list(discovery_errors), files=len(files))
    for path in files:
        _analyze_file(path, rules, result)
    result.findings.sort()
    result.errors.sort()
    return result
