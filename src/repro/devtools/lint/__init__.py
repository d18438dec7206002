"""Project-native AST static analysis (``repro lint``).

The engine (:mod:`~repro.devtools.lint.engine`) parses each file once,
runs the selected rules over it in one serial loop, honours inline
``# repro-lint: disable=RULE`` suppressions (stale ones are themselves
findings), and renders text or JSON with a stable exit-code contract —
0 clean, 1 findings, 2 engine errors — shared by CI, pre-commit, and
humans.

The shipped rules replace the historical CI grep gates and the
test-embedded AST walker with call-graph-aware checks; see
:mod:`repro.devtools.lint.rules` for the catalogue and how to add one.
"""

from repro.devtools.lint.base import (
    FileContext,
    Finding,
    LintError,
    Rule,
    all_rules,
    register,
)
from repro.devtools.lint.engine import LintResult, lint_paths
from repro.devtools.lint.reporters import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    exit_code,
    render_json,
    render_text,
)

__all__ = [
    "EXIT_CLEAN",
    "EXIT_ERROR",
    "EXIT_FINDINGS",
    "FileContext",
    "Finding",
    "LintError",
    "LintResult",
    "Rule",
    "all_rules",
    "exit_code",
    "lint_paths",
    "register",
    "render_json",
    "render_text",
]
