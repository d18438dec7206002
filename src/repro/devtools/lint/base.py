"""Core types of the ``repro lint`` static-analysis framework.

A *rule* is a stateless object with a stable kebab-case ``name`` that
inspects one parsed file (:class:`FileContext`) at a time and yields
:class:`Finding`\\ s.  Rules register themselves in a module-level
registry via the :func:`register` decorator, so the engine, the CLI's
``--select``, and ``--list-rules`` all share one catalogue.

Rules are pure functions of the context they are handed: every
selected rule walks the same parsed tree, so a rule must never mutate
it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping, Type


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str  # posix path of the offending file
    line: int  # 1-based line of the offending node
    col: int  # 0-based column of the offending node
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass(frozen=True, order=True)
class LintError:
    """The engine itself failed on a file (unreadable, syntax error).

    Distinct from a :class:`Finding`: findings mean the code violates an
    invariant, errors mean the lint run is not trustworthy — the CLI
    maps them to different exit codes.
    """

    path: str
    message: str


@dataclass(frozen=True)
class Suppression:
    """One ``# repro-lint: disable=rule,...`` comment.

    ``line`` is the line the suppression applies to (the comment's own
    line, or the next line when the comment stands alone), and
    ``comment_line`` is where the comment physically lives — unused
    suppressions are reported there.
    """

    line: int
    comment_line: int
    rules: tuple[str, ...]


@dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: Path
    source: str
    tree: ast.Module
    # line number -> full comment text (including the leading '#').
    comments: Mapping[int, str]

    @property
    def posix(self) -> str:
        return self.path.as_posix()

    def match(self, *suffixes: str) -> bool:
        """Whether this file is one of the given path suffixes."""
        return any(self.posix.endswith(suffix) for suffix in suffixes)

    def in_package(self, *parts: str) -> bool:
        """Whether any ``/<part>/`` directory appears in the path."""
        return any(f"/{part}/" in self.posix for part in parts)


class Rule:
    """Base class for lint rules.  Subclass, set ``name`` and
    ``description``, implement :meth:`check`, and decorate with
    :func:`register`."""

    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST | int, message: str
    ) -> Finding:
        """A finding of this rule anchored at ``node`` (or a line)."""
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.posix, line=line, col=col, rule=self.name, message=message
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate the rule into the registry."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"rule {rule_cls.__name__} has no name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def all_rules() -> dict[str, Rule]:
    """The registered rules, keyed by name (import-populated)."""
    # Imported lazily so base/types stay import-cycle-free.
    from repro.devtools.lint import rules as _rules  # noqa: F401

    return dict(_REGISTRY)
