"""Argument wiring for the ``repro lint`` subcommand.

Kept out of :mod:`repro.cli` so the lint surface (flags, defaults,
exit-code mapping) lives next to the engine it drives; the main CLI
only registers the subparser and dispatches here.
"""

from __future__ import annotations

import argparse
import sys

from repro.devtools.lint.base import all_rules
from repro.devtools.lint.engine import lint_paths
from repro.devtools.lint.reporters import (
    EXIT_CLEAN,
    EXIT_ERROR,
    exit_code,
    render_json,
    render_text,
)
from repro.errors import ConfigurationError

DEFAULT_PATHS = ["src/repro"]


def add_lint_parser(subparsers: argparse._SubParsersAction) -> None:
    parser = subparsers.add_parser(
        "lint",
        help="run the project's AST static-analysis rules",
        description=(
            "Static analysis for repro's own invariants (hot-path "
            "batching; pickle, telemetry, lock and suppression "
            "discipline).  Exit codes: 0 clean, 1 findings, 2 the lint "
            "run itself failed."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help=f"files or directories to lint (default: {DEFAULT_PATHS[0]})",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULE,...",
        help="comma-separated rule names to run (default: all rules)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="output_format",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def _cmd_list_rules() -> int:
    rules = all_rules()
    width = max(len(name) for name in rules)
    for name in sorted(rules):
        print(f"{name:<{width}}  {rules[name].description}")
    return EXIT_CLEAN


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _cmd_list_rules()
    paths = args.paths or list(DEFAULT_PATHS)
    select = None
    if args.select is not None:
        select = [name for name in args.select.split(",") if name]
    try:
        result = lint_paths(paths, select=select)
    except ConfigurationError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return EXIT_ERROR
    report = (
        render_json(result)
        if args.output_format == "json"
        else render_text(result)
    )
    print(report)
    return exit_code(result)
