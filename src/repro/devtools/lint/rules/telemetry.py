"""``telemetry-discipline``: a run's telemetry is its event stream.

A ``print()`` inside ``src/repro/runner/`` or ``src/repro/events/`` is
either debug residue or a telemetry side channel the event aggregator
cannot see — the typed event stream is the only spine, so the profile
renderer, JSONL trails, and replay all observe the same facts.
Presentation code (the CLI, reporters) prints; library code emits.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.base import FileContext, Finding, Rule, register


@register
class TelemetryDiscipline(Rule):
    name = "telemetry-discipline"
    description = (
        "no print() in repro.runner or repro.events — telemetry flows "
        "through repro.events.dispatch.emit"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_package("runner", "events"):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                yield self.finding(
                    ctx,
                    node,
                    "print() in runner/event code bypasses the typed event "
                    "stream; emit a repro.events event (or return the text "
                    "to the CLI layer) instead",
                )
