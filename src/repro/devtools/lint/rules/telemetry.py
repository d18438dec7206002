"""``telemetry-discipline``: a run's telemetry is its event stream.

A ``print()`` inside ``src/repro/runner/`` or ``src/repro/events/`` is
either debug residue or a telemetry side channel the event aggregator
cannot see — the typed event stream is the only spine, so the profile
renderer, JSONL trails, and replay all observe the same facts.
Presentation code (the CLI, reporters) prints; library code emits.

For the same reason a ``SchedulerProfile`` or ``TaskRecord`` is built
only in ``events/processors.py``, by the aggregator's fold of the
stream: one built anywhere else is a tally kept beside the events,
which can drift from them and is lost when a run fails.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.base import FileContext, Finding, Rule, register

_PROFILE_TYPES = ("SchedulerProfile", "TaskRecord")
_PROFILE_HOME = "events/processors.py"

@register
class TelemetryDiscipline(Rule):
    name = "telemetry-discipline"
    description = (
        "no print() in repro.runner or repro.events, and no "
        "SchedulerProfile/TaskRecord built outside events/processors.py "
        "— telemetry flows through repro.events.dispatch.emit"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        runtime = ctx.in_package("runner", "events")
        profile_home = ctx.match(_PROFILE_HOME)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            bare = isinstance(node.func, ast.Name)
            # A bare name, or an attribute call on a module or object.
            called = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else getattr(node.func, "attr", "")
            )
            if runtime and bare and called == "print":
                yield self.finding(
                    ctx,
                    node,
                    "print() in runner/event code bypasses the typed event "
                    "stream; emit a repro.events event (or return the text "
                    "to the CLI layer) instead",
                )
            elif called in _PROFILE_TYPES and not profile_home:
                yield self.finding(
                    ctx,
                    node,
                    f"{called}(...) built outside {_PROFILE_HOME} is a "
                    "tally beside the event stream; emit events and read "
                    "the profile from ProfileAggregator.scheduler_profile()",
                )
