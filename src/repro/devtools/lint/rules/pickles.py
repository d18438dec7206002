"""``pickle-discipline``: no :mod:`pickle` in the linted tree.

Structured values cross every process boundary as array frames
(:mod:`repro.core.arrayframe`) or tagged JSON
(:func:`repro.core.serialization.encode_wire_value`), whose decoders
are structural: a value neither can encode raises instead of falling
back to an executable format.  This rule keeps it that way for every
file it is pointed at (``repro lint src/repro``): no ``import`` of the
``pickle`` module (or its C accelerator ``_pickle``), no ``from`` import
of either, and no reference to a name ``pickle``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.base import FileContext, Finding, Rule, register

_MODULES = {"pickle", "_pickle"}


def _root(module: str | None) -> str:
    return (module or "").split(".")[0]


@register
class PickleDiscipline(Rule):
    name = "pickle-discipline"
    description = (
        "no pickle anywhere: array frames and tagged JSON are the only "
        "codecs, and a value neither encodes raises"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _root(alias.name) in _MODULES:
                        yield self.finding(ctx, node, f"import of {alias.name}")
            elif isinstance(node, ast.ImportFrom):
                if _root(node.module) in _MODULES:
                    yield self.finding(ctx, node, f"import from {node.module}")
            elif isinstance(node, ast.Name) and node.id in _MODULES:
                yield self.finding(
                    ctx,
                    node,
                    f"reference to {node.id}: encode with array frames "
                    "or tagged JSON",
                )
